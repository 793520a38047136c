"""A check that a Monte-Carlo standard error is calibrated.

Shared by the estimator tests that have a closed form to check against.
"""

import math

SEEDS = range(1000, 1100)


def assert_calibrated(estimate, expect, seeds=SEEDS):
    """Over independent seeds, the z-scores (mean - expect) / SE of
    estimate(seed) have mean 0 and spread 1.  The SE of 100 z-scores'
    mean is 0.1, and of their sample standard deviation about 0.07, so
    the bounds are 4 of those SEs wide; an SE that is off by a quarter,
    or a bias of 0.4 SE, fails."""
    z = [(est.mean - expect) / est.std_error for est in map(estimate, seeds)]
    mean = sum(z) / len(z)
    spread = math.sqrt(sum((v - mean) ** 2 for v in z) / (len(z) - 1))
    assert abs(mean) < 0.4, f"z-scores have mean {mean:.3f}"
    assert 0.75 < spread < 1.25, f"z-scores have spread {spread:.3f}"
