"""Command-line interface: JSON/CSV front end over the library.

Exit codes: 0 success, 1 numerical failure (a tolerance breach, or an accuracy
that a quadrature or truncation cannot reach), 2 usage or input error. Output
is deterministic for fixed flags and seed.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import cache

import numpy as np

from . import cayley, checks, diffops, fields, geodesics, linalg
from . import metrics, reduction, spaces, theta
from .diffops import DerivativeTable
from .errors import AccuracyError, ConvergenceError, DimensionError, DomainError, NumericError
from .groups import HeisenbergElement
from .metrics import MetricParams
from .spaces import TangentVector

USAGE_ERROR = 2
NUMERIC_FAILURE = 1


def parse_scalar_complex(text: str) -> complex:
    """Accepts 'a,b', 'i', '2i', 'a+bi' and plain real literals: a text ending
    in i is read as Python's complex literal with j for i. Any other text is
    refused by one DomainError that names the accepted forms."""
    text = text.strip()
    try:
        if "," in text:
            re_part, im_part = text.split(",")
            return complex(float(re_part), float(im_part))
        if text.endswith("i"):
            return complex(text[:-1] + "j")
        return complex(float(text), 0.0)
    except ValueError:
        raise DomainError(f"{text!r} is not a scalar: write a real number, 'a,b', "
                          "'bi' or 'a+bi'") from None


def parse_matrix_arg(text: str):
    """Full matrix JSON, or a scalar shorthand for 1 x 1."""
    text = text.strip()
    if text.startswith("{"):
        return linalg.matrix_from_json(json.loads(text))
    return np.array([[parse_scalar_complex(text)]])


def _expand_shorthand(obj: dict) -> dict:
    """obj with each scalar-shorthand value replaced by its 1 x 1 matrix JSON."""
    return {key: val if isinstance(val, dict) else
            linalg.matrix_to_json(np.array([[parse_scalar_complex(str(val))]]))
            for key, val in obj.items()}


# the point class each --space value takes
SPACES = {"hn": spaces.SiegelPoint, "hnm": spaces.JacobiPoint,
          "dn": spaces.DiskPoint, "dnm": spaces.JacobiDiskPoint}


def parse_point_arg(text: str, space: str | None = None):
    """Point JSON with scalar shorthand, or a bare matrix/scalar read as the
    one part of a ``space`` point (omega on hn and by default, w on dn); a
    point outside ``space`` (a key of SPACES) is an input error."""
    text = text.strip()
    if text.startswith("{"):
        point = spaces.point_from_json(_expand_shorthand(json.loads(text)))
    else:
        cls = SPACES.get(space, spaces.SiegelPoint)
        first, *missing = cls.__dataclass_fields__
        if missing:
            raise DomainError(f"a bare matrix gives only {first}; a point of {space} "
                              f"also needs {', '.join(missing)}")
        point = cls.create(parse_matrix_arg(text))
    cls = SPACES.get(space, type(point))
    if type(point) is not cls:
        raise DomainError(f"expected a point of {space} with parts "
                          f"{', '.join(cls.__dataclass_fields__)}, got parts "
                          f"{', '.join(type(point).__dataclass_fields__)}")
    return point


def _json_line(obj) -> str:
    """obj as one line of strict JSON; NaN and infinities are refused."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NumericError("result has non-finite entries") from None


def _emit(obj) -> None:
    print(_json_line(obj))


def cmd_check(args) -> int:
    try:
        rows = checks.run_suite(args.suite, seed=args.seed)
    except KeyError:
        print(f"unknown suite {args.suite!r}; choose from "
              f"{sorted(checks.SUITES)}", file=sys.stderr)
        return USAGE_ERROR
    lines = ["case,lhs,rhs,residual,tol,pass"] + [r.csv() for r in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    failures = [r for r in rows if not r.passed]
    for r in failures:
        print(f"FAIL {r.case}: residual {r.residual:.3e} > tol {r.tol:.3e}",
              file=sys.stderr)
    return NUMERIC_FAILURE if failures else 0


def cmd_distance(args) -> int:
    p0 = parse_point_arg(args.p0, "hn")
    p1 = parse_point_arg(args.p1, "hn")
    rho = geodesics.siegel_distance(p0, p1)
    # every value is computed and checked before anything is written
    eigs = geodesics.cross_ratio_eigenvalues(p0, p1) if args.emit_eigs else None
    line = _json_line({"distance": rho})
    if eigs is not None:
        sys.stdout.write("eigenvalue\n" + "".join(f"{float(x)!r}\n" for x in eigs))
    print(line)
    return 0


def cmd_cayley(args) -> int:
    # a bare matrix is the one part of the source space; JSON gives either model
    bare = not args.point.strip().startswith("{")
    point = parse_point_arg(args.point, ("dn" if args.dir == "fwd" else "hn") if bare else None)
    if args.dir == "fwd":
        out = cayley.to_half_space(point)
    else:
        out = cayley.to_disk(point)
    line = _json_line(out.to_json())
    # rounding can carry the image of a point near the boundary onto it
    try:
        type(out).create(*out.parts())
    except (DimensionError, DomainError) as exc:
        raise NumericError(f"the image is not a valid point: {exc}") from None
    print(line)
    return 0


def cmd_reduce(args) -> int:
    point = parse_point_arg(args.point, args.space)
    if args.space == "hn":
        reduced, cert = reduction.siegel_reduce(point)
    else:
        reduced, cert = reduction.jacobi_reduce(point)
    line = _json_line(reduced.to_json())
    if args.cert:
        payload = {"iterations": cert.iterations, "checks": cert.checks,
                   "gamma": cert.gamma.to_json()}
        with open(args.cert, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
    if not cert.passed:
        raise NumericError("certificate checks failed: "
                           + ", ".join(k for k, ok in cert.checks.items() if not ok))
    print(line)
    return 0


def parse_tangent_arg(text: str, point) -> TangentVector:
    """Tangent JSON {"domega": <matrix>, "dz": <matrix>} at ``point``, with
    scalar shorthand; a bare matrix/scalar is read as the omega-part, and a
    missing dz is zero. A part with non-finite entries, or a shape other than
    the point's (n x n and m x n), is an input error naming the part."""
    obj = json.loads(text) if text.strip().startswith("{") else text
    if not (isinstance(obj, dict) and {"domega", "dz"} & set(obj)):
        obj = {"domega": obj}
    if "domega" not in obj:
        raise DomainError("a tangent needs domega")
    obj = _expand_shorthand(obj)
    parts = []
    for key, shape in (("domega", (point.n, point.n)), ("dz", (point.m, point.n))):
        a = linalg.matrix_from_json(obj[key]) if key in obj else np.zeros(shape, dtype=complex)
        if not np.isfinite(a).all():
            raise DomainError(f"{key} has non-finite entries")
        if a.shape != shape:
            raise DimensionError(f"{key} has shape {a.shape}, the point needs {shape}")
        parts.append(a)
    return TangentVector(*parts)


def cmd_metric(args) -> int:
    point = parse_point_arg(args.point, args.space)
    t1 = parse_tangent_arg(args.t1, point)
    t2 = parse_tangent_arg(args.t2, point)
    metric = {"hn": metrics.siegel_metric, "hnm": metrics.jacobi_metric,
              "dn": metrics.disk_metric, "dnm": metrics.jacobi_disk_metric}[args.space]
    value = metric(point, t1, t2, MetricParams(args.A, args.B) if point.m else args.A)
    _emit({"re": value.real, "im": value.imag})
    return 0


def cmd_laplacian(args) -> int:
    point = parse_point_arg(args.point, args.space)
    field = fields.builtin_field(args.field, s=parse_scalar_complex(args.s), a=args.a)
    table = DerivativeTable(field, point)
    if args.space == "hn":
        value = diffops.laplacian_siegel(table, args.A)
    else:
        value = diffops.laplacian_jacobi(table, MetricParams(args.A, args.B))
    _emit({"re": value.real, "im": value.imag})
    return 0


def cmd_theta(args) -> int:
    ctx = theta.ThetaContext(parse_matrix_arg(args.M), n=1, n_cut=args.n_cut)
    coord = theta.SL2Coord(parse_scalar_complex(args.tau), args.phi)
    h = HeisenbergElement(*(linalg.real_matrix(json.loads(getattr(args, name)), name)
                            for name in ("lam", "mu", "kappa")))
    value = theta.theta_sum(theta.gaussian(ctx), ctx, coord, h)
    _emit({"re": value.real, "im": value.imag})
    return 0


def cmd_element(args) -> int:
    from .groups import parse_generator_word
    g = parse_generator_word(args.word, args.n)
    _emit(g.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="siegeljacobi",
                                     description="Siegel-Jacobi space numerics")
    sub = parser.add_subparsers(dest="command")

    p_check = sub.add_parser("check", help="run an invariant battery, emit CSV")
    p_check.add_argument("--suite", required=True)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=cmd_check)

    p_dist = sub.add_parser("distance", help="geodesic distance between two points")
    p_dist.add_argument("--p0", required=True)
    p_dist.add_argument("--p1", required=True)
    p_dist.add_argument("--emit-eigs", action="store_true")
    p_dist.set_defaults(func=cmd_distance)

    p_cay = sub.add_parser("cayley", help="Cayley / partial Cayley transform")
    p_cay.add_argument("--dir", choices=("fwd", "inv"), required=True)
    p_cay.add_argument("--point", required=True)
    p_cay.set_defaults(func=cmd_cayley)

    p_red = sub.add_parser("reduce", help="fundamental-domain reduction")
    p_red.add_argument("--space", choices=("hn", "hnm"), required=True)
    p_red.add_argument("--point", required=True)
    p_red.add_argument("--cert", default=None)
    p_red.set_defaults(func=cmd_reduce)

    p_met = sub.add_parser("metric", help="invariant metric value on tangents")
    p_met.add_argument("--space", choices=("hn", "hnm", "dn", "dnm"), required=True)
    p_met.add_argument("--A", type=float, default=1.0)
    p_met.add_argument("--B", type=float, default=1.0)
    p_met.add_argument("--point", required=True)
    p_met.add_argument("--t1", required=True)
    p_met.add_argument("--t2", required=True)
    p_met.set_defaults(func=cmd_metric)

    p_lap = sub.add_parser("laplacian", help="invariant Laplacian of a builtin field")
    p_lap.add_argument("--space", choices=("hn", "hnm"), required=True)
    p_lap.add_argument("--A", type=float, default=1.0)
    p_lap.add_argument("--B", type=float, default=1.0)
    p_lap.add_argument("--field", required=True)
    p_lap.add_argument("--s", default="1.0")
    p_lap.add_argument("--a", type=float, default=1.0)
    p_lap.add_argument("--point", required=True)
    p_lap.set_defaults(func=cmd_laplacian)

    p_th = sub.add_parser("theta", help="theta lattice sum of the Gaussian")
    p_th.add_argument("--M", required=True)
    p_th.add_argument("--tau", required=True)
    p_th.add_argument("--phi", type=float, required=True)
    p_th.add_argument("--lam", default="[[0.0]]")
    p_th.add_argument("--mu", default="[[0.0]]")
    p_th.add_argument("--kappa", default="[[0.0]]")
    p_th.add_argument("--n-cut", type=int, default=10)
    p_th.set_defaults(func=cmd_theta)

    p_el = sub.add_parser("element", help="symplectic element from a generator word")
    p_el.add_argument("--word", required=True,
                      help="semicolon-separated word, e.g. 't(0.5);g(0.2);s'")
    p_el.add_argument("--n", type=int, default=1)
    p_el.set_defaults(func=cmd_element)
    return parser


# argparse keeps nothing of a parse in the parser, so one parser serves every
# call in a process; it is built at the first call, not at import
_parser = cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return USAGE_ERROR
    try:
        # overflow and invalid values show up as non-finite results, which
        # _emit refuses; numpy's warnings would only add stray stderr lines
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ArithmeticError, AccuracyError, ConvergenceError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return NUMERIC_FAILURE


if __name__ == "__main__":
    sys.exit(main())
