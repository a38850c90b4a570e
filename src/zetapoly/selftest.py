"""Acceptance suite: the package's golden criteria, one pass/fail line each.

Used both by the command-line ``selftest`` subcommand and by the pytest
acceptance module, so the two always run the identical checks.
"""
from __future__ import annotations

import time
from fractions import Fraction as F

from mpmath import mp, mpf

from . import identities, powersum
from .exactnum import (
    ConstantProduct,
    Record,
    _fill,
    bernoulli,
    riemann_zeta_exact_nonpositive,
)
from .mahler import (
    CompositionFamily,
    QuadratureSettings,
    Y_expansion,
    Z_value,
    delta_multiindices,
    period_K,
    raabe_substitute,
)
from .multipoly import MPoly
from .oracle import EMSettings, powersum2_numeric, zeta1_numeric
from .polyzeta import build_family, zeta_P_at
from .powersum import (
    DirectionalSpec,
    PowerSumParams,
    directional_limit,
    value_mixed_last_nonpositive,
    value_nonpositive,
)


class CriterionResult(Record):
    __slots__ = _fields = ("index", "description", "passed", "elapsed", "limit", "detail")

    def __init__(self, index: int, description: str, passed: bool, elapsed: float, limit: float,
                 detail: str = ""):
        _fill(self, index, description, passed, elapsed, limit, detail)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (
            f"[{status}] criterion {self.index:2d}: {self.description} "
            f"({self.elapsed:.2f}s / limit {self.limit:.0f}s)"
        )
        if self.detail and not self.passed:
            out += f"\n        {self.detail}"
        return out


def _run(index, description, limit, fn) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:  # failure with diagnostics, never a crash
        ok, detail = False, f"exception: {exc!r}"
    elapsed = time.perf_counter() - t0
    passed = ok and elapsed < limit
    if ok and elapsed >= limit:
        detail = f"value checks passed but runtime {elapsed:.2f}s over limit"
    return CriterionResult(index, description, passed, elapsed, limit, detail)


def crit_1():
    for N in range(41):
        if identities.zeta_neg_via_B1(N) != identities.zeta_neg_closed(N):
            return False, f"mismatch at N={N}"
    return True, ""


def crit_2():
    from math import comb

    for a in range(61):
        s = sum(F(comb(a, k)) * bernoulli(k) for k in range(a + 1))
        if s != F(-1) ** a * bernoulli(a):
            return False, f"mismatch at alpha={a}"
    return True, ""


def crit_3():
    b3 = identities.double_B3(0, 0)
    b6 = identities.double_B6(0, 0)
    if not (b3 == b6 == F(5, 12)):
        return False, f"B3(0,0)={b3}, B6(0,0)={b6}"
    fam = build_family([MPoly.parse("x1", 1), MPoly.parse("x1 + x2", 2)])
    qs = QuadratureSettings(rel_tol=1e-12, precision=30)
    v = zeta_P_at(fam, (0, 0), qs).to_numeric(30)
    diff = abs(v.value - mpf(5) / 12)
    if diff > mpf("1e-9"):
        return False, f"polyzeta value off by {mp.nstr(diff, 3)}"
    return True, ""


def crit_4():
    for N1 in range(9):
        for N2 in range(9):
            if identities.double_B3(N1, N2) != identities.double_B6(N1, N2):
                return False, f"mismatch at ({N1},{N2})"
    return True, ""


def crit_5():
    for d in [(2, 3), (2, 4, 8), (3, 4, 5, 7)]:
        p = PowerSumParams.make(d)
        v = value_nonpositive(p, (0,) * len(d))
        if v != F(-1, 2) ** len(d):
            return False, f"d={d}: got {v}"
    return True, ""


def crit_6():
    # ten regular d with gammas, drawn once with random.Random(20240811)
    h = F(1, 2)
    for d, gamma in [
        ((2, 6, 5), (3, 1, 2)), ((4, 5, 3, 5), (2, 1, 2, 1)), ((3, 5), (2, 1)),
        ((3, 6, 6), (2, 2, h)), ((3, 2, 3), (2, 2, 1)), ((6, 3, 5), (3, h, 3)),
        ((5, 2, 4), (1, h, 2)), ((6, 4, 4), (2, h, h)), ((3, 6, 3), (1, h, 1)),
        ((4, 2), (1, 3)),
    ]:
        n = len(d)
        p = PowerSumParams.make(d, gamma)
        v1 = powersum.closed_last_minus1(p)
        r1 = value_nonpositive(p, (0,) * (n - 1) + (-1,))
        v2 = powersum.closed_last_minus2(p)
        r2 = value_nonpositive(p, (0,) * (n - 1) + (-2,))
        if v1 != r1 or v2 != r2:
            return False, f"d={d}, gamma={p.gamma}: {v1} vs {r1}; {v2} vs {r2}"
    return True, ""


def crit_7():
    p = PowerSumParams.make((2, 4))
    z2 = mp.pi**2 / 6
    for N in range(4):
        v = value_mixed_last_nonpositive(p, (1 + N, -N), precision=30)
        got = v.to_numeric(30)
        diff = abs(-2 * got.value - z2)
        if diff > mpf("1e-8"):
            return False, f"N={N}: off by {mp.nstr(diff, 3)}"
    return True, ""


def crit_8():
    P3 = MPoly.parse("x1^2 + 2 x1 x2 + x2^2 + x3^2", 3)
    Q = MPoly.parse("x1^2 + x1 x2", 3)
    d1 = delta_multiindices(1, 3)
    d2 = delta_multiindices(2, 3)
    u = CompositionFamily(
        n=3,
        u=(
            tuple(1 if g == (1, 0, 0) else 0 for g in d1),
            tuple(1 if g == (2, 0, 0) else 0 for g in d2),
        ),
    )
    qs = QuadratureSettings(rel_tol=1e-12, precision=30)
    v = period_K(P3, Q, 0, (1, 1), u, (2, 0, 0), 3, qs)
    target = 2 * mp.atan(mpf(1) / 2)
    diff = abs(v.to_numeric(30).value - target)
    if diff > mpf("1e-8"):
        return False, f"off by {mp.nstr(diff, 3)}"
    return True, ""


def crit_9():
    # Target 1/16 - Gamma(1/3)^3/810: the constant term of theta(t)^4 at
    # t -> 0, theta(t) = sum_{m>=1} exp(-t m^3) (derivation in DECISIONS.md).
    # Built from mpmath's Gamma, not the package's own kernel.
    P4 = MPoly.parse("x1^3 + x2^3 + x3^3 + x4^3", 4)
    qs = QuadratureSettings(rel_tol=1e-8, precision=25)
    v = Z_value(P4, MPoly.one(4), 0, qs).to_numeric(25)
    with mp.workdps(30):
        target = mpf(1) / 16 - mp.gamma(mpf(1) / 3) ** 3 / 810
    diff = abs(v.value - target)
    if diff > mpf("1e-6"):
        return False, (
            f"computed {mp.nstr(v.value, 18)} differs from the target "
            f"1/16 - Gamma(1/3)^3/810 = {mp.nstr(target, 18)} by "
            f"{mp.nstr(diff, 3)} (see DECISIONS.md)"
        )
    return True, ""


def crit_10():
    P = MPoly.parse("x1", 1)
    for total in range(11):
        for N in range(total + 1):
            q = total - N
            Q = MPoly(1, {(q,): F(1)})
            val = raabe_substitute(Y_expansion(P, Q, N))
            if val.kind != "exact":
                return False, f"N={N}, q={q}: non-exact result"
            if val.exact != riemann_zeta_exact_nonpositive(N + q):
                return False, f"N={N}, q={q}: {val.exact}"
    return True, ""


def crit_11():
    em = EMSettings(precision=25)
    for d in (2, 3):
        for N in range(5):
            got = zeta1_numeric(d, F(1), F(-N), em)
            want = riemann_zeta_exact_nonpositive(d * N)
            if abs(got.value - mpf(want.numerator) / want.denominator) > mpf("1e-8"):
                return False, f"zeta1 d={d}, N={N}"
    p = PowerSumParams.make((2, 3))
    for s, want in [((0, 0), F(1, 4)), ((0, -1), F(-1, 240))]:
        res = powersum2_numeric(p, s, em)
        wv = mpf(want.numerator) / want.denominator
        if abs(res.value.value - wv) > mpf("1e-6"):
            return False, f"powersum2 at {s}: {mp.nstr(res.value.value, 12)}"
        if res.residual > mpf("1e-6"):
            return False, f"residual {mp.nstr(res.residual, 3)} at {s}"
    return True, ""


def crit_12():
    p = PowerSumParams.make((3, 2, 2))
    spec = DirectionalSpec(N=(0, 0, 0), theta=(F(0), F(0), F(1)))
    v = directional_limit(p, spec, precision=40)
    if v.kind != "mixed":
        return False, f"expected mixed value, got {v.kind}"
    C = powersum.C_value(p.d, spec.N, 1)
    H = powersum.H_value(p, spec.N)
    if C != F(1, 16) or H != F(-1, 8):
        return False, f"C={C}, H={H}"
    want_terms = ((F(1, 16) * bernoulli(4), ConstantProduct(gammas=(F(1, 2), F(1, 2)))),)
    if v.base != H or v.terms != want_terms:
        return False, f"components: base={v.base}, terms={v.terms}"
    num = v.to_numeric(40)
    target = -mp.pi / 480 - mpf(1) / 8
    diff = abs(num.value - target)
    if diff > mpf("1e-10"):
        return False, f"numeric off by {mp.nstr(diff, 3)}"
    return True, ""


CRITERIA = [
    (1, "exact Riemann identity, two formulas agree for N <= 40", 1.0, crit_1),
    (2, "Bernoulli binomial-sum identity up to index 60", 1.0, crit_2),
    (3, "Euler double value 5/12, exact pair and quadrature path", 30.0, crit_3),
    (4, "double-value identity grid 0..8 x 0..8, exact", 60.0, crit_4),
    (5, "value at the origin equals (-1/2)^n for three configurations", 1.0, crit_5),
    (6, "closed tail forms match the recursion on 10 random configurations", 5.0, crit_6),
    (7, "zeta(2) recovered from the mixed-sign double value, N = 0..3", 5.0, crit_7),
    (8, "golden period integral equals 2*arctan(1/2)", 10.0, crit_8),
    (9, "diagonal cubic 4-fold value 1/16 - Gamma(1/3)^3/810", 300.0, crit_9),
    (10, "expansion + Bernoulli substitution reproduces zeta(-N-q), N+q <= 10", 1.0, crit_10),
    (11, "continuation oracle matches exact values; residual vanishes", 120.0, crit_11),
    (12, "directional limit -pi/480 - 1/8 with exact components", 1.0, crit_12),
]


def run_all(verbose: bool = True) -> list[CriterionResult]:
    results = []
    for index, description, limit, fn in CRITERIA:
        res = _run(index, description, limit, fn)
        if verbose:
            print(res.line(), flush=True)
        results.append(res)
    return results


def main() -> int:
    results = run_all(verbose=True)
    bad = [r for r in results if not r.passed]
    print(f"{len(results) - len(bad)}/{len(results)} acceptance criteria passed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
