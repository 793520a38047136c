"""Seeded job lists for the three workloads, and the check of each output.

A job is one `pirings` command line.  Its check receives the parsed JSON
output and the outputs of the jobs before it in the same list, and
returns a list of error strings (empty when the output is right).  All
reference values come from `oracle`, which does not import pirings.
"""

from dataclasses import dataclass
from fractions import Fraction
import json
import math
import random
from typing import Callable, Optional

import oracle

WORKLOADS = ("ring", "zonoid", "mc")
MC_SAMPLES = 200_000
# edeg22 runs five shape estimators, so this draws 5 * 40000 = 2e5 samples
EDEG22_SAMPLES = 40_000
README_EXPR = "gamma - 1/2*beta^2"
MC_SIGMAS = 4.0
# the calibrated expected degree of G(2,4); the acceptance tests pin the
# same value with the same 0.02 allowance
EDEG22_REFERENCE, EDEG22_SLACK = 1.726, 0.02


@dataclass
class Job:
    name: str
    argv: list
    check: Callable[[dict, dict], list]
    # parsed output -> (samples drawn, mean, standard error), for MC jobs
    mc: Optional[Callable[[dict], tuple]] = None


def pi_value(v):
    """Float value of a number, "p/q", {"coeff", "pi_exp"} or a list of those.

    A list is a sum of pi-terms, so the check does not depend on the JSON
    shape of the exact coefficient type.
    """
    if isinstance(v, list):
        return sum(pi_value(x) for x in v)
    if isinstance(v, dict):
        exp = float(Fraction(v.get("pi_exp", 0)))
        return float(Fraction(v["coeff"])) * math.pi ** exp
    if isinstance(v, str):
        return float(Fraction(v))
    return float(v)


def _close(got, want, scale=None, rel=1e-9):
    scale = abs(want) if scale is None else scale
    return abs(got - want) <= rel * max(scale, 1e-300)


def _within_se(est, want, label, slack=0.0):
    mean, se = est["mean"], est["std_error"]
    if not (math.isfinite(mean) and math.isfinite(se) and se > 0):
        return [f"{label}: bad estimate {mean} +- {se}"]
    if abs(mean - want) > MC_SIGMAS * se + slack:
        return [f"{label}: mean {mean} is {abs(mean - want) / se:.1f} SE "
                f"from {want}"]
    return []


# --- ring -----------------------------------------------------------------

def _expr(rng, terms=3, max_exp=3):
    out = []
    for k in range(terms):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
        factors = [str(abs(c))]
        a, b = rng.randint(0, max_exp), rng.randint(0, max_exp)
        factors += [f"s^{a}"] * (a > 0) + [f"t^{b}"] * (b > 0)
        sign = "-" if c < 0 else ("+" if k else "")
        out.append(f"{sign}{'*'.join(factors)}")
    return " ".join(out)


def _check_poly_dict(got, want, scale_factor=1.0):
    """Compare {"s^j*t^i": value} with an oracle element of one ring."""
    errs = []
    exact = scale_factor == 1.0
    keys = set(got) | {f"s^{j}*t^{d - 2 * j}" for d, j in want}
    by_key = {f"s^{j}*t^{d - 2 * j}": poly for (d, j), poly in want.items()}
    for key in sorted(keys):
        poly = by_key.get(key, {})
        val = got.get(key, "0")
        if exact and isinstance(val, str) and set(poly) <= {0}:
            ok = Fraction(val) == poly.get(0, 0)
        else:
            w = sum(float(c) * math.pi ** float(e) for e, c in poly.items())
            ok = _close(pi_value(val) * scale_factor, w)
        if not ok:
            errs.append(f"{key}: got {val}, want {poly}")
    return errs


def _selfint_check(n, d, delta):
    want = oracle.selfint_closed_form(n, d, delta)

    def check(out, _prior):
        errs = [] if out.get("agree") is True else ["agree is not true"]
        for key in ("expected_count", "via_ring"):
            if Fraction(str(out.get(key))) != want:
                errs.append(f"{key}: got {out.get(key)}, want {want}")
        return errs
    return check


def _relations_check(n):
    def check(out, _prior):
        errs = []
        for key, m in (("F_n", n), ("F_n+1", n + 1)):
            st, (p, tlead) = oracle.relation_st(m)
            got = {k: Fraction(v) for k, v in out[key]["st"].items()}
            want = {f"s^{j}*t^{i}": c for (j, i), c in st.items()}
            if got != want:
                errs.append(f"{key}.st differs")
            lead_exp = Fraction(2 * p - 2 * tlead, 3)
            bg = out[key]["beta_gamma"]
            if set(bg) != {f"gamma^{j}*beta^{i}" for j, i in st}:
                errs.append(f"{key}.beta_gamma keys differ")
                continue
            for (j, i), c in st.items():
                w = float(c) * math.pi ** float(Fraction(2 * j - 2 * i, 3)
                                                 - lead_exp)
                if not _close(pi_value(bg[f"gamma^{j}*beta^{i}"]), w):
                    errs.append(f"{key}.beta_gamma gamma^{j}*beta^{i} differs")
        return errs
    return check


def _basis_check(n):
    def check(out, _prior):
        errs = []
        dims = {str(d): len(oracle.j_set(n, d)) for d in range(2 * n + 1)}
        if out.get("dimensions") != dims:
            errs.append("dimensions differ")
        want = {f"s^{j}*t^{d - 2 * j}": oracle.monomial_length_st(n, j, d - 2 * j)
                for d in range(2 * n + 1) for j in oracle.j_set(n, d)}
        got = out.get("lengths", {})
        if set(got) != set(want):
            return errs + ["length keys differ"]
        errs += [f"length {k} differs" for k, w in want.items()
                 if not _close(pi_value(got[k]), w)]
        return errs
    return check


def _multiply_check(n, a, b):
    want = oracle.ring_multiply(n, oracle.parse_ring_expr(n, a),
                                oracle.parse_ring_expr(n, b))

    def check(out, _prior):
        prod = out["product"]
        scale = pi_value(prod["pi_scale"]) if "pi_scale" in prod else 1.0
        return _check_poly_dict(prod["monomials"], want, scale)
    return check


def _length_check(n, expr):
    want = oracle.length_by_degree(n, oracle.parse_ring_expr(n, expr))

    def check(out, _prior):
        got = {int(d): pi_value(v) for d, v in out["length_by_degree"].items()}
        errs = []
        for d in sorted(set(got) | set(want)):
            w, scale = want.get(d, (0.0, 0.0))
            if not _close(got.get(d, 0.0), w, scale):
                errs.append(f"degree {d}: got {got.get(d)}, want {w}")
        return errs
    return check


def ring_jobs(rng, workdir):
    jobs = []
    for n in (24, 28, 32):
        d = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        delta = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                         rng.randint(1, 9))
        jobs.append(Job(f"selfint_n{n}",
                        ["cpn", "selfint", "--n", str(n), f"--d={d}",
                         f"--delta={delta}"],
                        _selfint_check(n, d, delta)))
    jobs.append(Job("relations_n24", ["cpn", "relations", "--n", "24"],
                    _relations_check(24)))
    jobs.append(Job("basis_n12", ["cpn", "basis", "--n", "12"],
                    _basis_check(12)))
    for k in range(2):
        a, b = _expr(rng), _expr(rng)
        jobs.append(Job(f"multiply_{k}",
                        ["cpn", "multiply", "--n", "12", f"--a={a}", f"--b={b}"],
                        _multiply_check(12, a, b)))
    for k in range(2):
        e = _expr(rng, terms=4, max_exp=4)
        jobs.append(Job(f"length_{k}",
                        ["cpn", "length", "--n", "12", f"--expr={e}"],
                        _length_check(12, e)))
    jobs.append(Job("length_readme",
                    ["cpn", "length", "--n", "2", f"--expr={README_EXPR}"],
                    _length_check(2, README_EXPR)))
    return jobs


# --- zonoid ---------------------------------------------------------------

def _weight(rng):
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _int_vector(rng, n, lo=-5, hi=5):
    while True:
        v = [rng.randint(lo, hi) for _ in range(n)]
        if any(v):
            return v


def _body_json(ambient, degree, atoms):
    return {"ambient": ambient, "degree": degree,
            "atoms": [{"w": str(w), "v": v} for w, v in atoms]}


def _degree1(rng, m, n=4):
    return [(_weight(rng), _int_vector(rng, n)) for _ in range(m)]


def _write(workdir, name, data):
    path = workdir / name
    path.write_text(json.dumps(data))
    return str(path)


def _exact_check(key, want, index=None):
    def check(out, _prior):
        got = out[key] if index is None else out[key][index]
        if Fraction(str(got)) != want:
            return [f"{key}: got {got}, want {want}"]
        return []
    return check


def zonoid_jobs(rng, workdir):
    jobs = []
    one = _degree1(rng, 9)
    path = _write(workdir, "mv_one.json",
                  _body_json(4, 1, [(w, [v]) for w, v in one]))
    jobs.append(Job("mixed_volume_one", ["zonoid", "mixed-volume", "-f", path],
                    _exact_check("mixed_volume",
                                 oracle.mixed_volume([one] * 4))))
    four = [_degree1(rng, 6) for _ in range(4)]
    path = _write(workdir, "mv_four.json",
                  [_body_json(4, 1, [(w, [v]) for w, v in b]) for b in four])
    jobs.append(Job("mixed_volume_four", ["zonoid", "mixed-volume", "-f", path],
                    _exact_check("mixed_volume", oracle.mixed_volume(four))))
    for d, l_atoms, k_atoms in ((2, 3, 8), (3, 2, 6)):
        lz = [(_weight(rng), [_int_vector(rng, 4) for _ in range(d)])
              for _ in range(l_atoms)]
        kz = _degree1(rng, k_atoms)
        lpath = _write(workdir, f"crofton_L{d}.json", _body_json(4, d, lz))
        kpath = _write(workdir, f"crofton_K{d}.json",
                       _body_json(4, 1, [(w, [v]) for w, v in kz]))
        jobs.append(Job(f"crofton_d{d}",
                        ["zonoid", "crofton", "--L", lpath, "--K", kpath],
                        _exact_check("value", oracle.crofton(lz, kz))))
    atoms = []
    for _ in range(4000):
        mnpq = [rng.randint(0, 4) for _ in range(3)] + [rng.randint(1, 4)]
        v = [x * rng.choice((-1, 1)) for x in oracle.pythagorean_vector(*mnpq)]
        atoms.append((_weight(rng), v))
    path = _write(workdir, "length_many.json",
                  _body_json(3, 1, [(w, [v]) for w, v in atoms]))
    jobs.append(Job("length_many_atoms", ["zonoid", "length", "-f", path],
                    _exact_check("lengths", oracle.zonoid_length(atoms), 0)))
    return jobs


# --- mc -------------------------------------------------------------------

def _mc_fields(out):
    est = out["estimate"]
    samples = (sum(c["samples"] for c in out["components"].values())
               if "components" in out else est["samples"])
    return samples, est["mean"], est["std_error"]


def _edeg22_check(out, _prior):
    return _within_se(out["estimate"], EDEG22_REFERENCE, "edeg22",
                      slack=EDEG22_SLACK)


def _edeg22_identity_check(out, prior):
    ref = prior.get("edeg22_w1")
    if ref is None:
        return ["no --workers 1 output to compare with"]
    errs = []
    for key in ("mean", "std_error"):
        if out["estimate"][key] != ref["estimate"][key]:
            errs.append(f"estimate.{key} differs between --workers 1 and 2")
    if out.get("components") != ref.get("components"):
        errs.append("components differ between --workers 1 and 2")
    return errs


def _tasaki_check(n, x, y):
    want = oracle.tasaki_kernel(n, x, y)

    def check(out, _prior):
        errs = [] if _close(out["kernel"], want, rel=1e-12) else [
            f"kernel {out['kernel']} != {want}"]
        return errs + _within_se(out["estimate"], want, "tasaki")
    return check


def _ball_check(big_n, i):
    want = oracle.ball_wedge_length(big_n, i)

    def check(out, _prior):
        errs = [] if _close(out["exact"], want, rel=1e-12) else [
            f"exact {out['exact']} != {want}"]
        return errs + _within_se(out["estimate"], want, "ball-mc")
    return check


def _shape_check(diagrams):
    want = oracle.SHAPE_CLOSED_FORMS[diagrams]
    return lambda out, _prior: _within_se(out["estimate"], want, diagrams)


def mc_jobs(rng, workdir):
    seed = str(rng.randrange(1, 2 ** 31))
    edeg = ["schubert", "edeg22", "--samples", str(EDEG22_SAMPLES),
            "--seed", seed, "--workers"]
    jobs = [Job("edeg22_w1", edeg + ["1"], _edeg22_check, _mc_fields),
            Job("edeg22_w2", edeg + ["2"], _edeg22_identity_check, _mc_fields)]
    for n in (2, 3):
        x, y = (round(rng.uniform(0.05, 0.95), 3) for _ in range(2))
        jobs.append(Job(f"tasaki_n{n}",
                        ["cpn", "tasaki", "--n", str(n), "--x", str(x),
                         "--y", str(y), "--mc", "--samples", str(MC_SAMPLES),
                         "--seed", str(rng.randrange(1, 2 ** 31))],
                        _tasaki_check(n, x, y), _mc_fields))
    jobs.append(Job("ball_mc_N6",
                    ["sphere", "ball-mc", "--N", "6", "--i", "6", "--samples",
                     str(MC_SAMPLES), "--seed", str(rng.randrange(1, 2 ** 31))],
                    _ball_check(6, 6), _mc_fields))
    for k, diagrams in enumerate(oracle.SHAPE_CLOSED_FORMS):
        jobs.append(Job(f"shape_{k}",
                        ["schubert", "shape", "--diagrams", diagrams,
                         "--samples", str(MC_SAMPLES),
                         "--seed", str(rng.randrange(1, 2 ** 31))],
                        _shape_check(diagrams), _mc_fields))
    return jobs


BUILDERS = {"ring": ring_jobs, "zonoid": zonoid_jobs, "mc": mc_jobs}


def build_jobs(workload, seed, workdir):
    """The job list of a workload; input files are written into workdir."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)


def check_output(job, stdout, prior):
    """Parse a job's stdout and run its check; returns (parsed, errors)."""
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]
    try:
        return out, job.check(out, prior)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return out, [f"unexpected output shape: {exc!r}"]
