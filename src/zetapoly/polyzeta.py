"""Regularized values of multiple zeta-functions with polynomial denominators.

For a family P_1, ..., P_n (P_j in j variables) the value at a non-positive
integer tuple -N, taken as a limit in the last coordinate, reduces to the
value of a one-variable Mahler-type series: Z(P_n, prod_j P_j^{N_j}; 0).
The diagonal-denominator case additionally admits a closed expansion in
generalized beta-like cube integrals.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, prod
from typing import Sequence

from mpmath import mp, mpf

from .errors import HypothesisViolated, NotDiagonal, NotElliptic
from .exactnum import (
    Numeric,
    Record,
    SpecialValue,
    _fill,
    _int_tuple,
    bernoulli_tilde_product,
    multi_factorial,
    point_to_str,
)
from ._quadrature import DEFAULT_QS, QuadratureSettings, cube_integral
from .mahler import Z_value, certify_elliptic
from .multipoly import MPoly, composition_tuples, family_hypotheses, weighted_partitions


class GammaFactorSpec(Record):
    __slots__ = _fields = ("m", "mu")

    def __init__(self, m: int, mu: Sequence[Fraction]):
        (m,) = _int_tuple((m,), "m")
        if m < 0:
            raise ValueError("m must be non-negative")
        mu = tuple(Fraction(x) for x in mu)
        if any(x <= 0 for x in mu):
            raise ValueError("all mu_i must be positive")
        _fill(self, m, mu)


class PolyFamily(Record):
    """Family P_1, ..., P_n with P_j in j variables, plus the flags of the
    hypothesis checks made at construction time."""

    __slots__ = _fields = ("polys", "flags")

    def __init__(self, polys: tuple[MPoly, ...], flags: tuple[str, ...] = ()):
        _fill(self, polys, flags)

    @property
    def n(self) -> int:
        return len(self.polys)


def build_family(polys: Sequence[MPoly]) -> PolyFamily:
    """Validate a family.  Each P_j is decided exactly for positivity on
    [1,oo)^j and, for j < n, the H0S bound (multipoly.family_hypotheses);
    P_n must be homogeneous and elliptic (mahler.certify_elliptic), which
    implies its positivity.  Violations raise with a witness; a hypothesis
    neither certified nor refuted sets a flag."""
    polys = tuple(polys)
    n = len(polys)
    if n < 1:
        raise ValueError("family must contain at least one polynomial")
    for j, P in enumerate(polys, start=1):
        if P.nvars != j:
            raise ValueError(f"P_{j} must have exactly {j} variables")
    unverified: list[int] = []
    for j, P in enumerate(polys, start=1):
        st, wit = family_hypotheses(P)
        if st == "violated":
            raise HypothesisViolated(
                f"P_{j} is not positive on [1,oo)^{j}: "
                f"value <= 0 at {point_to_str(wit)}"
            )
        if st == "unverified":
            unverified.append(j)
    last = polys[-1]
    ok, deg = last.is_homogeneous()
    if not ok or deg < 1:
        raise HypothesisViolated("P_n must be homogeneous of degree >= 1")
    st, wit, i = certify_elliptic(last)
    if st == "violated":
        raise NotElliptic(f"face {i} of P_n non-positive at {point_to_str(wit)}")
    flags = [f"hypotheses_unverified:P{j}" for j in unverified if j < n or st != "certified"]
    if st == "sampled_only":
        flags.append("ellipticity_unverified")
    return PolyFamily(polys=polys, flags=tuple(sorted(flags)))


def build_QN(family: PolyFamily, N: Sequence[int]) -> MPoly:
    """Q_N = prod_j P_j^{N_j} lifted to n variables."""
    N = _int_tuple(N, "N", family.n, nonneg=True)
    n = family.n
    Q = MPoly.one(n)
    for j, (P, Nj) in enumerate(zip(family.polys, N), start=1):
        if Nj == 0:
            continue
        lifted = MPoly(
            n, {e + (0,) * (n - j): c for e, c in P.terms.items()}
        )
        Q = Q * lifted**Nj
    return Q


def zeta_P_at(
    family: PolyFamily, N: Sequence[int], qs: QuadratureSettings = DEFAULT_QS
) -> SpecialValue:
    """Regularized value at -N (limit in the last coordinate):
    Z(P_n, Q_N; 0)."""
    QN = build_QN(family, N)
    val = Z_value(family.polys[-1], QN, 0, qs)
    return val.with_flags(family.flags)


# -----------------------------------------------------------------------------
# Generalized gamma factors and the diagonal-denominator expansion
# -----------------------------------------------------------------------------

def G_factor(
    spec: GammaFactorSpec, qs: QuadratureSettings = DEFAULT_QS
) -> Numeric:
    """The cube integral of prod t_i^{mu_i - 1} / (1 + sum t_i)^m over
    (0,1)^{len(mu)}.

    Each t_i is substituted by u_i^{b_i} with b_i the denominator of mu_i,
    which turns t_i^{mu_i-1} dt_i into b_i u_i^{a_i-1} du_i with integer
    a_i, so the transformed integrand prod b_i u_i^{a_i-1} /
    (1 + sum u_i^{b_i})^m is a polynomial ratio, integrated like a face
    period by ``cube_integral``; for m = 0 a monomial, whose exact moment
    prod 1/mu_i is rounded.
    """
    dim = len(spec.mu)
    if dim == 0:
        return Numeric(mpf(1), mpf(0))
    numer = MPoly(dim, {tuple(x.numerator - 1 for x in spec.mu):
                        prod(x.denominator for x in spec.mu)})
    den = MPoly.one(dim)
    for i, x in enumerate(spec.mu):
        den = den + MPoly.variable(dim, i + 1) ** x.denominator
    return cube_integral(den, numer, spec.m, qs).to_numeric(qs.precision)


@lru_cache(maxsize=256)
def _G_memo(spec: GammaFactorSpec, qs: QuadratureSettings) -> Numeric:
    """G_factor(spec, qs), once per (spec, qs): diagonal values repeat their
    factors within one value and across values.  G_factor is looked up by
    its module name at each miss, so a wrapper put there sees every one."""
    return G_factor(spec, qs)


def _is_diagonal(P: MPoly) -> int | None:
    """Degree d if P = X_1^d + ... + X_n^d, else None."""
    ok, d = P.is_homogeneous()
    if not ok or d < 1:
        return None
    want = {}
    for j in range(P.nvars):
        e = [0] * P.nvars
        e[j] = d
        want[tuple(e)] = Fraction(1)
    return d if P.terms == want else None


def diagonal_value(
    family: PolyFamily, N: Sequence[int], qs: QuadratureSettings = DEFAULT_QS
) -> SpecialValue:
    """Value at -N for a diagonal last polynomial X_1^d + ... + X_n^d,
    expanded over derivative data of Q_N at the origin and generalized
    gamma-factor integrals."""
    last = family.polys[-1]
    d = _is_diagonal(last)
    if d is None:
        raise NotDiagonal("last polynomial must be X_1^d + ... + X_n^d")
    n = family.n
    QN = build_QN(family, N)

    exact_acc = Fraction(0)
    numeric_parts: list[tuple[Fraction, int, tuple[Fraction, ...]]] = []
    # Only exponents actually present in Q_N have a nonzero derivative at 0.
    for beta in sorted(QN.terms.keys()):
        dQ0 = QN.terms[beta] * multi_factorial(beta)
        # every nu <= beta componentwise, in lexicographic order
        for nu in product(*(range(b + 1) for b in beta)):
            for alpha in weighted_partitions(sum(nu) + n, d):
                a_abs = sum(alpha)
                base = Fraction(
                    (-1) ** a_abs * factorial(a_abs - 1), d**n * multi_factorial(beta)
                )
                base *= dQ0
                # binomial powers from the derivatives of the pure powers X^d
                for k, ak in enumerate(alpha, start=1):
                    if ak:
                        base *= comb(d, k) ** ak
                for k in range(len(beta)):
                    base *= comb(beta[k], nu[k])
                # (gamma^1, .., gamma^d), gamma^k in N_0^n with |gamma^k| = alpha_k
                for gammas in composition_tuples(alpha, [n] * d):
                    coeff = base
                    for gk in gammas:
                        coeff /= multi_factorial(gk)
                    bt = bernoulli_tilde_product(
                        beta[i] - nu[i] + sum((k + 1) * gammas[k][i] for k in range(d))
                        for i in range(n)
                    )
                    if bt == 0:
                        continue
                    coeff *= bt
                    for i in range(1, n + 1):
                        mu = tuple(
                            Fraction(
                                1
                                + nu[j]
                                + sum((d - (k + 1)) * gammas[k][j] for k in range(d)),
                                d,
                            )
                            for j in range(n)
                            if j != i - 1
                        )
                        if n == 1:
                            exact_acc += coeff
                        else:
                            numeric_parts.append((coeff, a_abs, mu))
    if not numeric_parts:
        return SpecialValue.make_exact(exact_acc, flags=family.flags)
    with mp.workdps(qs.precision + 10):
        acc = Numeric.from_rational(exact_acc)
        for coeff, m, mu in numeric_parts:
            acc = acc + _G_memo(GammaFactorSpec(m=m, mu=tuple(sorted(mu))), qs).scale(coeff)
    return SpecialValue.make_numeric(acc, flags=family.flags)
