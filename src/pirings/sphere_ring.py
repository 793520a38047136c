"""Sphere constants and the intersection ring of S^n and RP^n.

All the constants (ball volumes, zonoid lengths of balls and of wedge
powers of balls) are exact rational multiples of powers of pi, kept
symbolic through PiScalar, and so are expected intersection counts with
exact volume ratios.
"""

from fractions import Fraction
import math

from .exact import PiScalar, gamma_half


def kappa(n):
    """Volume of the unit ball in R^n, kappa_0 = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # pi^{n/2} / Gamma(n/2 + 1)
    return PiScalar(1, Fraction(n, 2)) / gamma_half(n + 2)


def ball_length(n):
    """Zonoid length of the unit ball B_n: 2 sqrt(pi) Gamma((n+1)/2) / Gamma(n/2)."""
    if n < 1:
        raise ValueError("n must be positive")
    return ball_wedge_length(n, 0, 1, 1)


def ball_wedge_length(N, d, i, ell_z):
    """Length of Z wedge B^(wedge i) for Z of degree d in R^N with length ell_z.

    Equals ((N-d)! / (N-d-i)!) * (kappa_{N-d} / kappa_{N-d-i}) * ell_z.
    """
    if d + i > N:
        raise ValueError("degree overflow")
    if not isinstance(ell_z, PiScalar):
        ell_z = PiScalar(ell_z)
    m = N - d
    fac = Fraction(math.factorial(m), math.factorial(m - i))
    return PiScalar(fac) * kappa(m) / kappa(m - i) * ell_z


def sphere_volume(n):
    """Volume of the unit sphere S^n: (n+1) * kappa_{n+1}."""
    return PiScalar(n + 1) * kappa(n + 1)


def sphere_expected_count(n, codims, vol_ratios):
    """Expected number of points in the intersection of moved submanifolds of S^n.

    codims are the codimensions d_i (summing to n) and vol_ratios the
    values vol(Y_i)/vol(S^n).  The same formula holds on RP^n with
    ratios taken relative to vol(RP^n).  The pi-dependent factor is
    multiplied by each ratio in turn: exact ratios give the exact
    PiScalar, and from the first float ratio on the value is a float.
    """
    codims = list(codims)
    vol_ratios = list(vol_ratios)
    if n < 0 or any(d < 0 for d in codims):
        raise ValueError(f"n and the codimensions must be nonnegative, "
                         f"got n={n}, codims={codims}")
    if len(codims) != len(vol_ratios):
        raise ValueError("codims and vol_ratios must have equal length")
    if sum(codims) != n:
        raise ValueError("codimensions must sum to n")
    if not all(0 <= v < math.inf for v in vol_ratios):
        raise ValueError(f"volume ratios must be finite and nonnegative, "
                         f"got {vol_ratios}")
    factor = sphere_volume(n) * ball_wedge_length(n, 0, n, 1)
    for d in codims:
        factor = factor / ball_wedge_length(n, 0, d, 1)
    for v in vol_ratios:
        factor = factor * v
    return factor


class SphereRingElement:
    """Element of R[beta]/(beta^(n+1)), the intersection ring of S^n."""

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = [Fraction(0)] * (n + 1)
        if coeffs is not None:
            for i, c in enumerate(coeffs):
                if i <= n:
                    self.coeffs[i] = Fraction(c)

    @classmethod
    def beta(cls, n):
        return cls(n, [0, 1])

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("mixed rings")
        return SphereRingElement(
            self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, SphereRingElement):
            if self.n != other.n:
                raise ValueError("mixed rings")
            out = [Fraction(0)] * (self.n + 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b != 0 and i + j <= self.n:
                        out[i + j] += a * b
            return SphereRingElement(self.n, out)
        return SphereRingElement(self.n, [c * Fraction(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, SphereRingElement)
                and self.n == other.n and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"SphereRingElement({self.n}, {self.coeffs})"
