"""Values of power-sum multiple zeta-functions at integer tuples.

The series sum over m_1..m_n >= 1 of prod_j (gamma_1 m_1^{d_1} + ... +
gamma_j m_j^{d_j})^{-s_j}.  Provides the regularity predicates that keep
integer points off the singular locus, the one-variable-dropping recursion,
closed forms for small tails, and the directional limit at points of
indeterminacy with its exact rational and Gamma-product components.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial
from operator import mul
from typing import Sequence

from mpmath import mp

from .errors import (
    HypothesisViolated,
    IraViolated,
    Pole,
    PositiveEntry,
    RegularityViolated,
    ThetaDegenerate,
    UnsupportedPoint,
)
from .exactnum import (
    DEFAULT_DPS,
    Numeric,
    SpecialValue,
    _check_precision,
    _int_tuple,
    _normal_form,
    bernoulli,
    binom_signed,
    riemann_zeta_exact_nonpositive,
    riemann_zeta_numeric,
)


@dataclass(frozen=True)
class PowerSumParams:
    """Shape (n, d, gamma) of the power-sum denominators."""

    n: int
    d: tuple[int, ...]
    gamma: tuple[Fraction, ...]
    numeric_gamma: tuple[complex, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        d = _int_tuple(self.d, "d", self.n)
        g = tuple(Fraction(x) for x in self.gamma)
        if len(g) != self.n:
            raise ValueError("gamma must have length n")
        if any(x < 1 for x in d):
            raise ValueError("all d_j must be >= 1")
        if any(x <= 0 for x in g):
            raise ValueError("exact mode requires positive rational gamma_j")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "gamma", g)

    @staticmethod
    def make(d: Sequence[int], gamma: Sequence[Fraction] | None = None) -> "PowerSumParams":
        return PowerSumParams(n=len(d), d=d, gamma=(1,) * len(d) if gamma is None else gamma)


@dataclass(frozen=True)
class DirectionalSpec:
    """Direction theta and non-negative offset N for a limit at -N."""

    N: tuple[int, ...]
    theta: tuple[Fraction, ...]

    def __post_init__(self):
        th = tuple(Fraction(x) for x in self.theta)
        N = _int_tuple(self.N, "N", len(th), nonneg=True)
        n = len(th)
        if n >= 2:
            if sum(th[1:]) == 0:
                raise ThetaDegenerate("theta_2 + ... + theta_n must be nonzero")
            if th[-1] == 0:
                raise ThetaDegenerate("theta_n must be nonzero")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "theta", th)


# -----------------------------------------------------------------------------
# Regularity predicates
# -----------------------------------------------------------------------------

def _integral_sums(d: tuple[int, ...]):
    """(j, eps) for each sum 1/d_j + sum_{k>j} eps_k/d_k (eps in {0,1})
    that is an integer."""
    n = len(d)
    for j in range(n):
        for eps in product((0, 1), repeat=n - j - 1):
            s = Fraction(1, d[j]) + sum(
                Fraction(e, d[k]) for e, k in zip(eps, range(j + 1, n))
            )
            if s.denominator == 1:
                yield j, eps


def regularity_ok(d: Sequence[int]) -> bool:
    """True iff no sum 1/d_j + sum eps_k/d_k (eps in {0,1}) is an integer."""
    return not any(_integral_sums(_int_tuple(d, "d")))


def ira_ok(d: Sequence[int]) -> tuple[bool, int]:
    """Checks the single-resonance condition: the sum 1/d_j + sum eps_k/d_k
    is an integer exactly for j = 2 with all eps = 1.  Returns (ok, b) where
    b = sum_{k>=2} 1/d_k (an integer when ok)."""
    d = _int_tuple(d, "d")
    n = len(d)
    if n < 3 or list(_integral_sums(d)) != [(1, (1,) * (n - 2))]:
        return False, 0
    return True, int(sum(Fraction(1, dk) for dk in d[1:]))


def _require_regular(params: PowerSumParams):
    if not regularity_ok(params.d):
        raise RegularityViolated(f"d = {params.d} fails the regularity assumption")


# -----------------------------------------------------------------------------
# The one-variable-dropping recursion at integer tuples with last entry <= 0
# -----------------------------------------------------------------------------

def _k_range(dn: int, bound_num: int):
    """k with d_n | 2k-1 and 1 <= k <= floor(bound_num/2)."""
    return [k for k in range(1, bound_num // 2 + 1) if (2 * k - 1) % dn == 0]


def _recursion(d: tuple[int, ...], gamma: tuple, N: tuple[int, ...], leaf, scale, memo: dict):
    """Value at N by dropping the last variable until one is left:

        Z(N) = -1/2 Z'(.., N_{n-1} + N_n)
               - sum_k B_2k/(2k) C(-N_n, m) gamma_n^m Z'(.., N_{n-1} + N_n + m)

    with m = (2k-1)/d_n over the k where that is an integer.  leaf(d_1,
    gamma_1, N_1) gives the one-variable value, scale(v, c) multiplies a
    value by the rational (or, for complex gamma, complex) c; the values
    only need '+'.  memo is keyed by (d, gamma, N).
    """
    key = (d, gamma, N)
    if key in memo:
        return memo[key]
    if len(d) == 1:
        out = leaf(d[0], gamma[0], N[0])
    else:
        if N[-1] > 0:
            raise UnsupportedPoint(
                "recursion reached a level whose last entry is positive; "
                "the value formula does not cover this point"
            )
        dn, gn = d[-1], gamma[-1]
        dp, gp = d[:-1], gamma[:-1]
        head = N[:-2]
        merged = N[-2] + N[-1]
        out = scale(_recursion(dp, gp, head + (merged,), leaf, scale, memo), Fraction(-1, 2))
        for k in _k_range(dn, 1 - dn * N[-1]):
            m = (2 * k - 1) // dn
            # Nonzero: B_2k != 0, and 0 <= m <= -N_n since 2k <= 1 - d_n N_n.
            c = Fraction(bernoulli(2 * k), 2 * k) * binom_signed(-N[-1], m)
            inner = _recursion(dp, gp, head + (merged + m,), leaf, scale, memo)
            out = out + scale(inner, -c * gn**m)
    memo[key] = out
    return out


def _check_last_nonpositive(params: PowerSumParams, N: Sequence[int]) -> tuple[int, ...]:
    N = _int_tuple(N, "N", params.n)
    if N[-1] > 0:
        raise PositiveEntry("last entry must be <= 0")
    _require_regular(params)
    return N


def _exact_leaf(d1: int, g1: Fraction, N1: int) -> Fraction:
    # gamma^{-s} zeta(d*s) at s = N <= 0
    return g1 ** (-N1) * riemann_zeta_exact_nonpositive(-d1 * N1)


def value_nonpositive(params: PowerSumParams, N: Sequence[int]) -> Fraction:
    """Exact value at an all-non-positive integer tuple N."""
    N = _int_tuple(N, "N", params.n)
    if any(x > 0 for x in N):
        raise PositiveEntry("all entries must be <= 0")
    _require_regular(params)
    return _recursion(params.d, params.gamma, N, _exact_leaf, mul, {})


def value_mixed_last_nonpositive(
    params: PowerSumParams, N: Sequence[int], precision: int = DEFAULT_DPS
) -> SpecialValue:
    """Value at an integer tuple whose last entry is <= 0.

    Entries other than the last may be positive; the recursion then reaches
    one-variable zeta values at positive arguments, which are evaluated
    numerically.  The result is exact whenever every argument stays
    non-positive along the way.
    """
    _check_precision(precision)
    N = _check_last_nonpositive(params, N)

    def leaf(d1, g1, N1):
        arg = d1 * N1
        if arg <= 0:
            return SpecialValue.make_exact(_exact_leaf(d1, g1, N1))
        if arg == 1:
            raise Pole("one-variable zeta at its pole (argument 1)")
        z = riemann_zeta_numeric(Fraction(arg), precision)
        return SpecialValue.make_numeric(z.scale(g1 ** (-N1)))

    with mp.workdps(precision + 10):
        return _recursion(params.d, params.gamma, N, leaf, SpecialValue.scale, {})


def value_numeric_complex(
    params: PowerSumParams, N: Sequence[int], precision: int = 30
) -> complex:
    """Numeric-only evaluation for complex gamma with positive real part.

    Same recursion as the exact path, run over complex floats; the last
    entry of N must be <= 0 and intermediate levels must keep their last
    entry non-positive, exactly as in the exact/mixed paths.
    """
    _check_precision(precision)
    gam = params.numeric_gamma
    if gam is None:
        gam = tuple(complex(g) for g in params.gamma)
    if len(gam) != params.n:
        raise ValueError("numeric_gamma has wrong length")
    if any(g.real <= 0 for g in gam):
        raise ValueError("need Re(gamma_j) > 0")
    N = _check_last_nonpositive(params, N)

    def leaf(d1, g1, N1):
        arg = d1 * N1
        if arg <= 0:
            zv = complex(riemann_zeta_exact_nonpositive(-arg))
        elif arg == 1:
            raise Pole("one-variable zeta at its pole")
        else:
            zv = complex(float(riemann_zeta_numeric(Fraction(arg), precision).value), 0.0)
        return g1 ** (-N1) * zv

    return _recursion(params.d, tuple(gam), N, leaf, mul, {})


# -----------------------------------------------------------------------------
# Closed forms
# -----------------------------------------------------------------------------

def closed_zero(params: PowerSumParams) -> Fraction:
    """Value at the origin: (-1/2)^n."""
    _require_regular(params)
    return Fraction(-1, 2) ** params.n


def _minus1_terms(params: PowerSumParams) -> tuple[list[Fraction], list[Fraction]]:
    """b_j = gamma_j B_{d_j+1}/(d_j+1) and the inner sums
    S_k = (-1)^{d_1} b_1 - b_2 - ... - b_k (k = 1..n) that the closed forms
    at (0, ..., 0, -1) and (0, ..., 0, -2) are built from."""
    b = [bernoulli(dj + 1) / (dj + 1) * gj for dj, gj in zip(params.d, params.gamma)]
    S = [(-1) ** params.d[0] * b[0]]
    for bj in b[1:]:
        S.append(S[-1] - bj)
    return b, S


def closed_last_minus1(params: PowerSumParams) -> Fraction:
    """Value at (0, ..., 0, -1): (-1/2)^{n-1} S_n."""
    _require_regular(params)
    return Fraction(-1, 2) ** (params.n - 1) * _minus1_terms(params)[1][-1]


def closed_last_minus2(params: PowerSumParams) -> Fraction:
    """Value at (0, ..., 0, -2):

        (-1/2)^{n-1} gamma_1^2 B_{2d_1+1}/(2d_1+1) - 2 (-1/2)^{n-2} sum_{k=2}^n b_k S_{k-1}
    """
    _require_regular(params)
    d1, g1, n = params.d[0], params.gamma[0], params.n
    b, S = _minus1_terms(params)
    out = Fraction(-1, 2) ** (n - 1) * bernoulli(2 * d1 + 1) / (2 * d1 + 1) * g1**2
    return out - 2 * Fraction(-1, 2) ** (n - 2) * sum(
        (bk * Sk for bk, Sk in zip(b[1:], S)), Fraction(0)
    )


def closed_even_tail(params: PowerSumParams, N: Sequence[int]) -> Fraction:
    """Value at -N when d_2, ..., d_n are all even:

        (-1/2)^{n-1} gamma_1^{|N|} (-1)^{d_1 |N|} B_{d_1|N|+1} / (d_1|N|+1)
    """
    _require_regular(params)
    if any(dj % 2 for dj in params.d[1:]):
        raise HypothesisViolated("requires d_2, ..., d_n all even")
    N = _int_tuple(N, "N", params.n, nonneg=True)
    w = sum(N)
    idx = params.d[0] * w
    return (
        Fraction(-1, 2) ** (params.n - 1)
        * params.gamma[0] ** w
        * Fraction((-1) ** idx)
        * bernoulli(idx + 1)
        / (idx + 1)
    )


# -----------------------------------------------------------------------------
# Directional limit at points of indeterminacy
# -----------------------------------------------------------------------------

def A_value(d: Sequence[int], N: Sequence[int]) -> Fraction:
    """The exact Gamma-ratio product

        prod_{j=3}^n prod_{u=-(N_{j-1}+...+N_n)}^{-(N_j+...+N_n)-1} (u - sum_{k>=j} 1/d_k)

    Empty inner ranges contribute 1."""
    d = _int_tuple(d, "d")
    N = _int_tuple(N, "N")
    ok, _ = ira_ok(d)
    if not ok:
        raise IraViolated(f"d = {d} fails the single-resonance condition")
    n = len(d)
    acc = Fraction(1)
    for j in range(3, n + 1):
        tail = sum(Fraction(1, d[k - 1]) for k in range(j, n + 1))
        lo = -sum(N[j - 2 :])
        hi = -sum(N[j - 1 :]) - 1
        for u in range(lo, hi + 1):
            acc *= u - tail
    return acc


def B_theta(N: Sequence[int], theta: Sequence[Fraction], b: int) -> Fraction:
    """Directional factor

        (-1)^{N_2+...+N_{n-1}+b} * N_n! / (N_2+...+N_n+b)! * theta_n/(theta_2+...+theta_n)
    """
    th = tuple(Fraction(x) for x in theta)
    N = _int_tuple(N, "N", len(th))
    if len(N) < 2:
        raise ValueError("need n >= 2")
    tsum = sum(th[1:])
    if tsum == 0 or th[-1] == 0:
        raise ThetaDegenerate("theta conditions violated")
    sign = (-1) ** (sum(N[1:-1]) + b)
    return (
        Fraction(sign)
        * factorial(N[-1])
        / factorial(sum(N[1:]) + b)
        * (th[-1] / tsum)
    )


def H_value(params: PowerSumParams, N: Sequence[int]) -> Fraction:
    """Exact rational part of the directional limit at -N: the recursion's
    first step at -N, whose one-variable-shorter values are regular."""
    ok, _b = ira_ok(params.d)
    if not ok:
        raise IraViolated(f"d = {params.d} fails the single-resonance condition")
    N = _int_tuple(N, "N", params.n, nonneg=True)
    return _recursion(params.d, params.gamma, tuple(-x for x in N), _exact_leaf, mul, {})


def C_value(d: Sequence[int], N: Sequence[int], b: int) -> Fraction:
    """Closed-form rational coefficient of the Gamma product in the
    directional limit."""
    d = _int_tuple(d, "d")
    N = _int_tuple(N, "N")
    w = sum(N)
    acc = A_value(d, N)
    sign = (-1) ** (sum(N[1:-1]) + b + d[0] * (w + b))
    denom = Fraction(1)
    for dj in d[1:]:
        denom *= dj
    acc *= Fraction(sign) * factorial(N[-1]) / (
        factorial(sum(N[1:]) + b) * denom * (d[0] * (w + b) + 1)
    )
    return acc


def directional_limit(
    params: PowerSumParams, spec: DirectionalSpec, precision: int = DEFAULT_DPS
) -> SpecialValue:
    """Directional limit at -N along theta, as an exact-plus-Gamma value.

    The Gamma-product coefficient is C_value, the closed form of its
    assembly from the Gamma-ratio product A_value and the directional
    factor B_theta; it is nonzero, since under the single-resonance
    condition no factor of A_value vanishes.
    """
    _check_precision(precision)
    d, g = params.d, params.gamma
    ok, b = ira_ok(d)
    if not ok:
        raise IraViolated(f"d = {d} fails the single-resonance condition")
    N = spec.N
    if len(N) != params.n:
        raise ValueError("N has wrong length")
    th = spec.theta
    w = sum(N)
    C = C_value(d, N, b)
    theta_ratio = th[-1] / sum(th[1:])
    H = H_value(params, N)
    bern = bernoulli(d[0] * (w + b) + 1)
    if bern == 0:
        return SpecialValue.make_exact(H)
    # prod_{j>=2} Gamma(1/d_j) (1/gamma_j)^(1/d_j): mixed unless a power is left
    coeff, cp = _normal_form([Fraction(1, dj) for dj in d[1:]],
                             [(1 / gj, Fraction(1, dj)) for dj, gj in zip(d[1:], g[1:])])
    coeff *= C * bern * theta_ratio * g[0] ** (w + b)
    if not cp.powers:
        return SpecialValue.make_mixed(H, [(coeff, cp)])
    with mp.workdps(precision + 10):
        return SpecialValue.make_numeric(cp.to_numeric(precision).scale(coeff)
                                         + Numeric.from_rational(H))
