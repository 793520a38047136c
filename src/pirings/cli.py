"""Command line interface: cpn, schubert, zonoid and sphere subcommands.

JSON is the primary output format; tables can also be emitted as CSV.
Exact rationals are serialized as strings "p/q".  Exit codes: 0 on
success, 1 on a computation error, 2 on a usage error.
"""

import argparse
import importlib.util
import io
import json
import math
import os
import sys

from . import __version__


def _lazy(name):
    """The package module `name`, put in sys.modules unexecuted: its body
    runs on the first read of one of its attributes, so a command runs only
    the modules it calls.  A module imported before is returned as it is."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# Importers come before the modules they import from (zonoid before
# exterior, and every module before exact); no module imports sphere_ring,
# so only the `sphere` commands run it.  A tracer that walks sys.modules in
# this order and replaces a function in every module that binds it
# (perfbench/tracing.py) loads each module as it reaches it; so every module
# has bound the original before the walk reaches its home.
cpn_ring, schubert, zonoid, sphere_ring, sampling, exterior, exact = map(
    _lazy, ("cpn_ring", "schubert", "zonoid", "sphere_ring", "sampling",
            "exterior", "exact"))


def _default_seed():
    env = os.environ.get("ZONOID_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValueError(f"ZONOID_SEED is not an integer: {env!r}") from None


def _common_flags(p):
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: ZONOID_SEED env or 0)")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--z", type=float, default=3.0,
                   help="confidence multiplier for intervals")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="output path (default stdout)")


def _ring_to_json(e):
    """Rational coefficients and a common "pi_scale" pi^e (left out when e
    is 0) if all terms share e; else lists of {"coeff", "pi_exp"} terms."""
    terms = {f"s^{j}*t^{d - 2 * j}": c.to_json()
             for (d, j), c in sorted(e.coeffs.items())}
    lists = {m: t if isinstance(t, list) else [t] for m, t in terms.items()}
    exps = {term.get("pi_exp") for ts in lists.values() for term in ts}
    if len(exps) != 1:
        return {"n": e.n, "monomials": lists}
    out = {"n": e.n, "monomials": {m: t["coeff"] for m, t in terms.items()}}
    if (pi_exp := exps.pop()) is not None:
        out["pi_scale"] = {"coeff": "1", "pi_exp": pi_exp}
    return out


def cmd_cpn(args):
    n = args.n
    if n < 0:
        raise ValueError(f"--n must be nonnegative, got {n}")
    if args.action == "basis":
        return {
            "n": n,
            "dimensions": {str(d): cpn_ring.dimension(n, d)
                           for d in range(2 * n + 1)},
            "lengths": {
                f"s^{j}*t^{d - 2 * j}":
                    cpn_ring.monomial_length_st(n, j, d - 2 * j).to_json()
                for d in range(2 * n + 1) for j in cpn_ring.j_set(n, d)
            },
        }
    if args.action == "multiply":
        a = cpn_ring.RingElement.parse(n, args.a)
        b = cpn_ring.RingElement.parse(n, args.b)
        return {"n": n, "product": _ring_to_json(a * b)}
    if args.action == "relations":
        f_n, f_n1 = cpn_ring.relations(n)
        def fmt(rel):
            return {
                "st": {f"s^{j}*t^{i}": c
                       for (j, i), c in sorted(rel["st"].items())},
                "beta_gamma": {f"gamma^{j}*beta^{i}": c.to_json()
                               for (j, i), c in sorted(rel["beta_gamma"].items())},
            }
        return {"n": n, "F_n": fmt(f_n), "F_n+1": fmt(f_n1)}
    if args.action == "length":
        e = cpn_ring.RingElement.parse(n, args.expr)
        return {"n": n, "length_by_degree": {
            str(d): v.to_json()
            for d, v in cpn_ring.length_by_degree(e).items()}}
    if args.action == "selfint":
        closed = cpn_ring.self_intersection_codim2(n, args.d, args.delta)
        via_ring = cpn_ring.self_intersection_via_ring(n, args.d, args.delta)
        return {"n": n, "d": args.d, "delta": args.delta,
                "expected_count": closed,
                "via_ring": via_ring,
                "agree": closed == via_ring}
    if args.action == "tasaki":
        closed = cpn_ring.tasaki_kernel_d2(n, args.x, args.y)
        out = {"n": n, "x": args.x, "y": args.y,
               "kernel": float(closed)}
        if args.mc:
            est = cpn_ring.mc_tasaki_kernel_d2(
                n, args.x, args.y, args.samples, args.seed, args.workers)
            out["estimate"] = est.to_json(args.z)
        return out


def _read(flag, text, read, what="comma-separated integers"):
    """read of each comma-separated item of text, or an error naming the
    flag, what it takes and the text."""
    try:
        return [read(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be {what}, got {text!r}") from None


def _diagram(flag, text, k=None, m=None):
    """A diagram's comma-separated parts, blank text being the empty diagram;
    with k and m given, it must fit the k x m rectangle."""
    parts = _read(flag, text, int) if text.strip() else []
    fit = "" if k is None else f" in the {k} x {m} rectangle of --k and --m"
    if any(p < q for p, q in zip(parts, parts[1:] + [0])) or (
            fit and not schubert.YoungDiagram(parts).fits(k, m)):
        raise ValueError(f"{flag} must be a diagram{fit}: weakly decreasing "
                         f"nonnegative integers, got {text!r}")
    return tuple(parts)


def _fraction(text):
    """An exact rational; fractions (and decimal, which it imports) is
    loaded only by a flag or command that reads one."""
    from fractions import Fraction
    try:
        return Fraction(text)
    except ZeroDivisionError:  # argparse reports only ValueError and TypeError
        raise ValueError(text) from None


_fraction.__name__ = "Fraction"  # argparse's "invalid Fraction value: ..."


def _ratio(x):
    """p/q is an exact ratio; a finite decimal stays a float."""
    if "/" in x:
        return _fraction(x)
    if math.isfinite(v := float(x)):
        return v
    raise ValueError(x)


def cmd_schubert(args):
    k, m = args.k, args.m
    if args.action == "lr":
        table = schubert.lr_coefficients(_diagram("--a", args.a),
                                         _diagram("--b", args.b))
        return {"a": args.a, "b": args.b,
                "coefficients": {str(nu.parts): c for nu, c in
                                 sorted(table.items(), key=lambda x: x[0].parts)}}
    if args.action == "spans":
        return schubert.verify_span_decomposition(
            k, m, args.d, samples=args.spans_samples, seed=args.seed)
    if args.action == "shape":
        lams = [_diagram("--diagrams", t, k, m)
                for t in args.diagrams.split("|")]
        est = schubert.mc_schubert_shape(
            lams, k, m, args.samples, args.seed, args.workers)
        return {"k": k, "m": m, "diagrams": args.diagrams,
                "estimate": est.to_json(args.z),
                "max_sample": est.max_value}
    if args.action == "edeg22":
        est = schubert.edeg22_calibrated(args.samples, args.seed,
                                         args.workers)
        out = {"estimate": est.to_json(args.z)}
        out["components"] = {k2: v.to_json(args.z)
                             for k2, v in est.components.items()}
        return out


def _load_zonoids(path):
    if not path:
        raise ValueError("missing zonoid JSON file")
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        return [zonoid.from_json(data)]
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a zonoid object or a non-empty "
                         "list of them")
    return [zonoid.from_json(d) for d in data]


def cmd_zonoid(args):
    if args.action == "mixed-volume":
        zs = _load_zonoids(args.file)
        n = zs[0].ambient_dim
        if len(zs) == 1:
            zs = zs * n
        mv = zonoid.mixed_volume(zs)
        return {"mixed_volume": _num(mv)}
    if args.action == "length":
        zs = _load_zonoids(args.file)
        return {"lengths": [_num(zonoid.length(z)) for z in zs]}
    if args.action == "crofton":
        l_zon = _load_zonoids(args.L)[0]
        k_zon = _load_zonoids(args.K)[0]
        return {"value": _num(zonoid.crofton_evaluate(l_zon, k_zon))}


def cmd_sphere(args):
    if args.action == "ball-table":
        n = args.N
        if n < 0:
            raise ValueError(f"--N must be nonnegative, got {n}")
        return {"N": n, "rows": [{
            "i": i,
            "kappa_i": sphere_ring.kappa(i).to_json(),
            "ball_wedge_length": sphere_ring.ball_wedge_length(
                n, 0, i, 1).to_json(),
            "ball_length": (sphere_ring.ball_length(i).to_json()
                            if i >= 1 else None),
        } for i in range(n + 1)]}
    if args.action == "expected-count":
        codims = _read("--codims", args.codims, int)
        ratios = _read("--ratios", args.ratios, _ratio,
                       "comma-separated finite numbers, p/q or decimal")
        if len(codims) != len(ratios):
            raise ValueError(f"--codims and --ratios must have equal length, "
                             f"got {args.codims!r} and {args.ratios!r}")
        val = sphere_ring.sphere_expected_count(args.n, codims, ratios)
        return {"n": args.n, "codims": codims,
                "ratios": [_num(r) for r in ratios],
                "expected_count": (val.to_json()
                                   if isinstance(val, exact.PiScalar)
                                   else val)}
    if args.action == "ball-mc":
        if not 1 <= args.i <= args.N:
            raise ValueError(f"need 1 <= --i <= --N, got --N {args.N} "
                             f"and --i {args.i}")
        # the closed form first: its modules are compiled and run before
        # numpy is loaded, so the process's peak memory holds less at once
        closed = sphere_ring.ball_wedge_length(args.N, 0, args.i, 1)
        est = sampling.mc_wedge_length(
            [sampling.gaussian_ball(args.N)] * args.i,
            args.samples, args.seed, args.workers)
        return {"N": args.N, "i": args.i, "exact": float(closed),
                "estimate": est.to_json(args.z)}


def _num(x):
    if isinstance(x, float) and not math.isfinite(x):
        # JSON has no inf or nan
        raise ArithmeticError(f"{x} is not a finite number (float overflow)")
    return x


def _emit(args, report):
    report = {"provenance": {"version": __version__,
                             "seed": args.seed,
                             "samples": args.samples}, **report}
    if args.format == "csv":
        text = _to_csv(report)
    else:
        # default=str writes an exact Fraction as "p/q", as the CSV writer does
        text = json.dumps(report, indent=2, default=str) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def _to_csv(report):
    import csv  # only this output format needs it
    rows = []
    _flatten("", report, rows)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return buf.getvalue()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pirings",
        description="Zonoid calculus and probabilistic intersection rings")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cpn = sub.add_parser("cpn", help="complex projective space ring")
    _common_flags(p_cpn)
    p_cpn.add_argument("--n", type=int, required=True)
    p_cpn.add_argument("action", choices=(
        "basis", "multiply", "relations", "length", "selfint", "tasaki"))
    p_cpn.add_argument("--a", help="first factor (multiply)")
    p_cpn.add_argument("--b", help="second factor (multiply)")
    p_cpn.add_argument("--expr", help="ring expression (length)")
    # argparse passes a string default through type too
    p_cpn.add_argument("--d", type=_fraction, default="1",
                       help="degree d_X (selfint)")
    p_cpn.add_argument("--delta", type=_fraction, default="0",
                       help="angle defect Delta_X (selfint)")
    p_cpn.add_argument("--x", type=float, default=1.0)
    p_cpn.add_argument("--y", type=float, default=1.0)
    p_cpn.add_argument("--mc", action="store_true",
                       help="also Monte-Carlo the Tasaki kernel")

    p_sch = sub.add_parser("schubert", help="Schubert calculus")
    _common_flags(p_sch)
    p_sch.add_argument("--k", type=int, default=2)
    p_sch.add_argument("--m", type=int, default=2)
    p_sch.add_argument("action", choices=("lr", "spans", "shape", "edeg22"))
    p_sch.add_argument("--a", default="", help="first diagram, e.g. '2,1'")
    p_sch.add_argument("--b", default="", help="second diagram")
    p_sch.add_argument("--d", type=int, default=1, help="wedge degree (spans)")
    p_sch.add_argument("--spans-samples", type=int, default=200)
    p_sch.add_argument("--diagrams", default="",
                       help="diagrams separated by '|', e.g. '2|1,1'")

    p_zon = sub.add_parser("zonoid", help="discrete zonoid calculus")
    _common_flags(p_zon)
    p_zon.add_argument("action", choices=("mixed-volume", "length", "crofton"))
    p_zon.add_argument("-f", "--file", help="zonoid JSON file")
    p_zon.add_argument("--L", help="valuation zonoid JSON (crofton)")
    p_zon.add_argument("--K", help="body zonoid JSON (crofton)")

    p_sph = sub.add_parser("sphere", help="sphere ring constants")
    _common_flags(p_sph)
    p_sph.add_argument("action", choices=("ball-table", "expected-count",
                                          "ball-mc"))
    p_sph.add_argument("--N", type=int, default=4)
    p_sph.add_argument("--n", type=int, default=2)
    p_sph.add_argument("--i", type=int, default=1)
    p_sph.add_argument("--codims", default="1,1")
    p_sph.add_argument("--ratios", default="0.5,0.5",
                       help="volume ratios: p/q is exact, a decimal a float")
    return parser


DISPATCH = {"cpn": cmd_cpn, "schubert": cmd_schubert, "zonoid": cmd_zonoid,
            "sphere": cmd_sphere}

# flags whose value may start with "-": "-1/2", "-s", "-gamma", "-1,0.5"
SIGNED_VALUES = ("--d", "--delta", "--a", "--b", "--expr", "--codims",
                 "--ratios")


def _option_strings(parser):
    """Every flag of parser and of its subcommands."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _option_strings(sub)
    return found


def _join_signed_values(argv, flags):
    """argv with each SIGNED_VALUES flag joined, as flag=token, to a next
    token that starts with "-" and is not one of flags.  argparse takes
    such a token for a flag unless it looks like a plain decimal, and then
    reports the flag's value missing; a flag followed by a flag or by
    nothing is left for argparse to refuse."""
    out = []
    for token in argv:
        if (out and out[-1] in SIGNED_VALUES and token.startswith("-")
                and token.split("=")[0] not in flags):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(
        sys.argv[1:] if argv is None else argv, _option_strings(parser)))
    try:
        args.seed = _default_seed() if args.seed is None else args.seed
        if not 0 < args.z < math.inf:
            raise ValueError(f"--z must be finite and > 0, got {args.z}")
        _emit(args, DISPATCH[args.command](args))
    except (ValueError, OSError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
