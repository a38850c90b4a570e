"""Bernoulli-number identities from two independent value formulas.

Two expressions for zeta(-N) and two for the Euler double zeta value at
non-positive integer pairs, all exact rationals.  Agreement of the pairs is
a non-trivial family of relations among Bernoulli numbers; the grid
verifier checks it exhaustively.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, perm

from .exactnum import bernoulli, riemann_zeta_exact_nonpositive


@dataclass(frozen=True)
class IdentityReport:
    parameters: tuple
    lhs: Fraction
    rhs: Fraction
    equal: bool
    label: str


def zeta_neg_via_B1(N: int) -> Fraction:
    """zeta(-N) = -B_{N+1}/(N+1) - sum_a C(N,a) B_a / (N+1-a)."""
    if N < 0:
        raise ValueError("N must be non-negative")
    out = -Fraction(bernoulli(N + 1), N + 1)
    for a in range(N + 1):
        out -= Fraction(comb(N, a)) * bernoulli(a) / (N + 1 - a)
    return out


def zeta_neg_closed(N: int) -> Fraction:
    """zeta(-N) = (-1)^N B_{N+1}/(N+1): the formula every value path uses."""
    return riemann_zeta_exact_nonpositive(N)


@lru_cache(maxsize=None)
def _bernoulli_scaled(cap: int) -> tuple[int, list[int]]:
    """(D, [D B_0, ..., D B_cap]) with D = lcm(den B_0..B_cap)."""
    D = lcm(*(bernoulli(k).denominator for k in range(cap + 1)))
    return D, [b.numerator * (D // b.denominator) for b in map(bernoulli, range(cap + 1))]


@lru_cache(maxsize=None)
def _bernoulli_pairs(l: int, cap: int) -> int:
    """D^2 times the sum over k1 >= l, k2 >= 0, k1 + k2 <= cap of B_k1 B_k2
    times the multinomial (cap - l)! / ((k1 - l)! k2! (cap - k1 - k2)!), D as
    in _bernoulli_scaled(cap); the multinomial is C(cap - l, k1 - l) C(cap - k1, k2)."""
    BD = _bernoulli_scaled(cap)[1]
    total = 0
    for k1 in range(l, cap + 1):
        if BD[k1]:
            row = sum(BD[k2] * comb(cap - k1, k2) for k2 in range(cap - k1 + 1))
            total += BD[k1] * comb(cap - l, k1 - l) * row
    return total


def double_B3(N1: int, N2: int) -> Fraction:
    """Euler double value at (-N1, -N2) from the linear-denominator formula
    (three sums over l of Bernoulli-pair sums).

    Every pair sum is an integer over D^2 (D = lcm(den B_0..B_T), which the
    D of each smaller cap divides), so the weighted sums run in integers,
    one per weight denominator, and divide once."""
    if N1 < 0 or N2 < 0:
        raise ValueError("indices must be non-negative")
    T = N1 + N2 + 2
    D = _bernoulli_scaled(T)[0]
    totals: dict[int, int] = {}
    for l in range(N1 + 1):
        c = comb(N1, l)
        terms = [((-1) ** (N1 - l) * c, comb(T - 1 - l, N2) * (T - l) * (N1 + 1 - l), T),
                 (c, (N2 + 1) * (N1 + 1 - l), N2 + 1 + l)]
        terms += [(c * comb(N2, l2), (T - l - l2) * (N2 + 1 - l2), l + l2) for l2 in range(N2 + 1)]
        for num, den, cap in terms:
            scale = D // _bernoulli_scaled(cap)[0]
            totals[den] = totals.get(den, 0) + num * scale * scale * _bernoulli_pairs(l, cap)
    L = lcm(*totals)
    return Fraction(sum(num * (L // den) for den, num in totals.items()), L * D * D)


@lru_cache(maxsize=None)
def _tilde_pair_sum(A: int, b2: int, S: int) -> int:
    """D^2 sum_{l=0}^{A} C(A, l) B~_{S-b2-l} B~_{b2+l}, D as in
    _bernoulli_scaled(S).  B~_k = (-1)^k B_k and the two indices sum to S,
    so each product is (-1)^S B_{S-b2-l} B_{b2+l}."""
    BD = _bernoulli_scaled(S)[1]
    return (-1) ** S * sum(comb(A, l) * BD[S - b2 - l] * BD[b2 + l] for l in range(A + 1))


def double_B6(N1: int, N2: int) -> Fraction:
    """Euler double value at (-N1, -N2) from the Mahler-series formula,
    with the period integrals already summed in closed form.

    Uses the extended falling factorial with (n)_{-1} = 1/(n+1).  Every term
    is an integer over S! (N1 + 1) D^2 (S = N1 + N2 + 2, D = lcm(den B_0..B_S)),
    so the sum runs in integers and divides once."""
    if N1 < 0 or N2 < 0:
        raise ValueError("indices must be non-negative")
    S = N1 + N2 + 2
    D = _bernoulli_scaled(S)[0]
    total = 0
    for b1 in range(N1 + N2 + 1):
        for b2 in range(N1 + N2 - b1 + 1):
            A = S - b1 - b2
            if b2 > N2:
                continue  # derivative of Q vanishes
            jlo = max(0, b1 - N1)
            jhi = min(b1, N2 - b2)
            # (N1 + 1) times sum_j C(b1, j) (N1)_{b1-j-1} (N2-b2)_j, using
            # (N1)_m (N1 + 1) = (N1 + 1)_{m+1}, which at m = -1 is 1
            inner = sum(comb(b1, j) * perm(N1 + 1, b1 - j) * perm(N2 - b2, j)
                        for j in range(jlo, jhi + 1))
            # S! (-1)^A (A-1)! / (A! b1! b2!) = (-1)^A S! / (A b1! b2!), an
            # integer since (A-1)! times the multinomial S!/(A! b1! b2!) is
            pref = (-1) ** A * (factorial(S) // (A * factorial(b1) * factorial(b2)))
            total += pref * perm(N2, b2) * inner * _tilde_pair_sum(A, b2, S)
    return Fraction(total, factorial(S) * (N1 + 1) * D * D)


def verify_identity_grid(maxN1: int, maxN2: int) -> list[IdentityReport]:
    """Exact equality reports for the double-value pair on the full grid,
    plus the single-variable pair up to maxN1 + maxN2."""
    if maxN1 < 0 or maxN2 < 0:
        raise ValueError("bounds must be non-negative")

    def report(label, parameters, lhs_of, rhs_of) -> IdentityReport:
        lhs, rhs = lhs_of(*parameters), rhs_of(*parameters)
        return IdentityReport(parameters=parameters, lhs=lhs, rhs=rhs, equal=lhs == rhs,
                              label=label)

    return [
        report("zeta_neg", (N,), zeta_neg_via_B1, zeta_neg_closed)
        for N in range(maxN1 + maxN2 + 1)
    ] + [
        report("euler_double", (N1, N2), double_B3, double_B6)
        for N1 in range(maxN1 + 1)
        for N2 in range(maxN2 + 1)
    ]
