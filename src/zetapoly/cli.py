"""Command-line front end with reproducible, machine-readable output.

Subcommands: powersum | directional | mahler | period | polyzeta |
bernoulli-id | oracle | selftest.  All results are JSON on stdout with a
versioned schema; identical inputs and configuration produce byte-identical
output.  Each subcommand takes only the shared flags it reads.  Errors
argparse rejects (unknown flags, missing options) exit 2;
every other error, values that do not parse included, exits 1 with a
structured message.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from mpmath import mp

from . import identities, selftest
from .errors import PrecisionUnreachable, ZetaPolyError
from .exactnum import MAX_PRECISION_DPS, SpecialValue, parse_rational, rat_to_str
from .mahler import (
    CompositionFamily,
    QuadratureSettings,
    Z_breakdown,
    Z_value,
    ZBucket,
    ZMaster,
    delta_multiindices,
    period_K,
)
from .multipoly import MPoly
from .oracle import EMSettings, powersum2_numeric, zeta1_numeric
from .polyzeta import build_family, diagonal_value, zeta_P_at
from .powersum import (
    DirectionalSpec,
    PowerSumParams,
    directional_limit,
    value_mixed_last_nonpositive,
    value_nonpositive,
)

SCHEMA = "1"


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _rats(text: str) -> tuple[Fraction, ...]:
    return tuple(map(parse_rational, text.split(",")))


def _load_poly(arg: str, nvars: int | None = None) -> MPoly:
    p = Path(arg)
    if p.exists():
        text = p.read_text()
        if p.suffix == ".json":
            return MPoly.from_json(json.loads(text))
        return MPoly.parse(text, nvars)
    if arg.strip().startswith("{"):
        return MPoly.from_json(json.loads(arg))
    return MPoly.parse(arg, nvars)


def _emit(obj: dict, pretty: bool) -> None:
    obj = {"schema": SCHEMA, **obj}
    if pretty:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(json.dumps(obj, separators=(",", ":"), sort_keys=True))


def _qs(args) -> QuadratureSettings:
    return QuadratureSettings(
        rel_tol=args.rel_tol, abs_tol=args.abs_tol, precision=args.precision
    )


def _add_common(sp, *, precision: bool = True, tolerances: bool = False) -> None:
    """--pretty, plus the shared flags the subcommand reads."""
    if precision:
        sp.add_argument("--precision", type=int,
                        help="working precision in decimal digits")
    if tolerances:
        sp.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-12)
        sp.add_argument("--abs-tol", dest="abs_tol", type=float, default=1e-30)
    sp.add_argument("--pretty", action="store_true", help="indented JSON output")


def _parse_u(text: str, n: int, rows: int) -> CompositionFamily:
    """Parse composition entries "k:g1,...,gn[:count]" separated by ';' into
    a family with a row for every weight up to at least `rows`, zero where
    no entry has that weight."""
    per_k: dict[int, dict[tuple, int]] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"composition entry {chunk!r} is not 'k:g1,..,gn[:count]'")
        k = int(parts[0])
        gamma = tuple(int(x) for x in parts[1].split(","))
        if k < 1 or len(gamma) != n or min(gamma) < 0 or sum(gamma) != k:
            raise ValueError(
                f"composition entry {chunk!r}: need k >= 1 and {n} non-negative entries summing to k"
            )
        count = int(parts[2]) if len(parts) > 2 else 1
        per_k.setdefault(k, {})[gamma] = per_k.get(k, {}).get(gamma, 0) + count
    return CompositionFamily(n=n, u=tuple(
        tuple(per_k.get(k, {}).get(g, 0) for g in delta_multiindices(k, n))
        for k in range(1, max([rows, *per_k]) + 1)))


def cmd_powersum(args) -> dict:
    d = _ints(args.d)
    gamma = _rats(args.gamma) if args.gamma else (Fraction(1),) * len(d)
    params = PowerSumParams.make(d, gamma)
    N = _ints(args.N)
    if args.theta:
        theta = _rats(args.theta)
        spec = DirectionalSpec(N=tuple(-x for x in N), theta=theta)
        val = directional_limit(params, spec, precision=args.precision)
    elif all(x <= 0 for x in N):
        val = SpecialValue.make_exact(value_nonpositive(params, N))
    else:
        val = value_mixed_last_nonpositive(params, N, precision=args.precision)
    return val.to_json(args.precision // 2 + 5)


def cmd_directional(args) -> dict:
    args.theta = args.theta or "0," * (len(_ints(args.d)) - 1) + "1"
    return cmd_powersum(args)


def _bucket_json(b: ZBucket | ZMaster, precision: int) -> dict:
    if isinstance(b, ZMaster):  # DECISIONS.md D14
        if b.key is None:
            return {"rational": rat_to_str(b.coeff)}
        d, c, pairs = b.key
        out = {"master": {"d": d, "c": rat_to_str(c), "a": [rat_to_str(a) for a, _ in pairs],
                          "e": [e for _, e in pairs]}, "coeff": rat_to_str(b.coeff)}
        num = b.value
    else:
        out = {"component": b.component, "i": b.i, "beta": list(b.beta), "alpha": list(b.alpha)}
        if b.orbit > 1:  # DECISIONS.md D13
            out["orbit"] = b.orbit
        if b.value.kind == "exact":
            out["exact"] = str(b.value.exact)
            return out
        num = b.value.num
    with mp.workdps(precision):
        out["value"] = mp.nstr(num.value, 20)
        out["err"] = mp.nstr(num.err, 5)
    return out


def cmd_mahler(args) -> dict:
    P = _load_poly(args.P)
    Q = _load_poly(args.Q, P.nvars) if args.Q else MPoly.one(P.nvars)
    qs = _qs(args)
    if not args.terms:
        return Z_value(P, Q, args.N, qs).to_json(args.precision // 2 + 5)
    val, buckets = Z_breakdown(P, Q, args.N, qs)
    out = val.to_json(args.precision // 2 + 5)
    out["terms"] = [_bucket_json(b, qs.precision) for b in buckets]
    return out


def cmd_period(args) -> dict:
    P = _load_poly(args.P)
    Q = _load_poly(args.Q, P.nvars) if args.Q else MPoly.one(P.nvars)
    alpha = _ints(args.alpha)
    beta = _ints(args.beta)
    u = _parse_u(args.u, P.nvars, len(alpha))
    val = period_K(P, Q, args.N, alpha, u, beta, args.i, _qs(args))
    return val.to_json(args.precision // 2 + 5)


def cmd_polyzeta(args) -> dict:
    spec = json.loads(Path(args.family).read_text())
    polys_spec = spec["polys"] if isinstance(spec, dict) else spec
    if not isinstance(polys_spec, list):
        raise ValueError("a family is a JSON list of polynomials")
    polys = []
    for j, ps in enumerate(polys_spec, start=1):
        if isinstance(ps, str):
            polys.append(MPoly.parse(ps, j))
        else:
            polys.append(MPoly.from_json(ps))
    family = build_family(polys)
    N = _ints(args.N)
    qs = _qs(args)
    if args.diagonal:
        val = diagonal_value(family, N, qs)
    else:
        val = zeta_P_at(family, N, qs)
    return val.to_json(args.precision // 2 + 5)


def cmd_bernoulli_id(args) -> dict:
    n1, n2 = (int(x) for x in args.grid.lower().split("x"))
    reports = identities.verify_identity_grid(n1, n2)
    payload = {
        "reports": [
            {
                "label": r.label,
                "parameters": list(r.parameters),
                "lhs": rat_to_str(r.lhs),
                "rhs": rat_to_str(r.rhs),
                "equal": r.equal,
            }
            for r in reports
        ],
        "all_equal": all(r.equal for r in reports),
    }
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps({"schema": SCHEMA, **payload}, indent=2, sort_keys=True)
        )
    if args.csv:
        lines = ["label,parameters,lhs,rhs,equal"]
        for r in reports:
            lines.append(
                f"{r.label},{' '.join(map(str, r.parameters))},"
                f"{rat_to_str(r.lhs)},{rat_to_str(r.rhs)},{int(r.equal)}"
            )
        print("\n".join(lines))
        return {}
    return payload


def cmd_oracle(args) -> dict:
    em = EMSettings(precision=min(args.precision, 40))
    if args.oracle_cmd == "zeta1":
        val = zeta1_numeric(args.d_single, parse_rational(args.gamma or "1"),
                            parse_rational(args.s), em)
        return {"kind": "numeric", **val.to_json(args.precision // 2 + 5)}
    d = _ints(args.d)
    if args.s:
        s = _rats(args.s)
    elif args.N:
        s = tuple(-x for x in _ints(args.N))
    else:
        raise ValueError("powersum2 needs --N or --s")
    params = PowerSumParams.make(d, _rats(args.gamma) if args.gamma else None)
    res = powersum2_numeric(params, s, em)
    out = {"kind": "numeric", **res.value.to_json(args.precision // 2 + 5)}
    out["residual"] = mp.nstr(res.residual, 5)
    out["em_order"] = res.K
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zetapoly",
        description="Special values of multiple zeta-functions with polynomial denominators",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("powersum", help="value of the power-sum zeta at an integer point")
    sp.add_argument("--d", required=True, help="comma list of exponents d_j")
    sp.add_argument("--gamma", help="comma list of positive rationals (default all 1)")
    sp.add_argument("--N", required=True, help="evaluation point (integers, last <= 0)")
    sp.add_argument("--theta", help="direction for a limit at a point of indeterminacy")
    _add_common(sp)
    sp.set_defaults(fn=cmd_powersum)

    sp = sub.add_parser("directional", help="directional limit at -N (defaults theta = e_n)")
    sp.add_argument("--d", required=True)
    sp.add_argument("--gamma")
    sp.add_argument("--N", required=True)
    sp.add_argument("--theta")
    _add_common(sp)
    sp.set_defaults(fn=cmd_directional)

    sp = sub.add_parser("mahler", help="value of sum Q(m)/P(m)^s at s = -N")
    sp.add_argument("--P", required=True, help="polynomial file or inline text/JSON")
    sp.add_argument("--Q", help="numerator polynomial (default 1)")
    sp.add_argument("--N", type=int, default=0)
    sp.add_argument("--terms", action="store_true", help="emit per-term breakdown")
    _add_common(sp, tolerances=True)
    sp.set_defaults(fn=cmd_mahler)

    sp = sub.add_parser("period", help="one face-period integral")
    sp.add_argument("--P", required=True)
    sp.add_argument("--Q")
    sp.add_argument("--N", type=int, default=0)
    sp.add_argument("--alpha", required=True, help="comma list over weights 1..deg P")
    sp.add_argument("--beta", required=True, help="comma list of derivative orders")
    sp.add_argument("--u", required=True,
                    help="composition entries 'k:g1,..,gn[:count]' joined by ';'")
    sp.add_argument("--i", type=int, required=True, help="face index (1-based)")
    _add_common(sp, tolerances=True)
    sp.set_defaults(fn=cmd_period)

    sp = sub.add_parser("polyzeta", help="regularized value for a polynomial family")
    sp.add_argument("--family", required=True, help="JSON file with the polynomial list")
    sp.add_argument("--N", required=True, help="comma list of non-negative integers")
    sp.add_argument("--diagonal", action="store_true",
                    help="use the diagonal-denominator expansion")
    _add_common(sp, tolerances=True)
    sp.set_defaults(fn=cmd_polyzeta)

    sp = sub.add_parser("bernoulli-id", help="verify the Bernoulli identity grid")
    sp.add_argument("--grid", default="8x8", help="grid bounds, e.g. 8x8")
    sp.add_argument("--json", dest="json_out", help="also write reports to this file")
    sp.add_argument("--csv", action="store_true", help="CSV to stdout instead of JSON")
    _add_common(sp, precision=False)
    sp.set_defaults(fn=cmd_bernoulli_id)

    sp = sub.add_parser("oracle", help="independent Euler-Maclaurin continuation")
    osub = sp.add_subparsers(dest="oracle_cmd", required=True)
    o1 = osub.add_parser("zeta1", help="one-variable continuation")
    o1.add_argument("--d", dest="d_single", type=int, required=True)
    o1.add_argument("--gamma")
    o1.add_argument("--s", required=True)
    _add_common(o1)
    o1.set_defaults(fn=cmd_oracle)
    o2 = osub.add_parser("powersum2", help="two-variable continuation at -N")
    o2.add_argument("--d", required=True)
    o2.add_argument("--gamma")
    o2.add_argument("--N", help="non-negative pair; evaluation point is -N")
    o2.add_argument("--s", help="evaluation point directly (overrides --N)")
    _add_common(o2)
    o2.set_defaults(fn=cmd_oracle)

    sub.add_parser("selftest", help="run the acceptance suite")
    return ap


def main(argv=None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # The reader closed stdout: send the rest to devnull so the
        # interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(argv) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.cmd == "selftest":
        return selftest.main()
    try:
        if "precision" in args:
            if args.precision is None:
                args.precision = int(os.environ.get("ZETAPOLY_PRECISION", "50"))
            if args.precision < 1:
                raise PrecisionUnreachable(f"precision {args.precision} is below 1 digit")
            if args.precision > MAX_PRECISION_DPS:
                raise PrecisionUnreachable(
                    f"precision {args.precision} is above the cap of {MAX_PRECISION_DPS} digits")
        out = args.fn(args)
    except (ZetaPolyError, ValueError, OSError, KeyError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, args.pretty)
        return 1
    if out:
        _emit(out, args.pretty)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
