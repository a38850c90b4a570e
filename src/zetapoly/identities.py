"""Bernoulli-number identities from two independent value formulas.

Two expressions for zeta(-N) and two for the Euler double zeta value at
non-positive integer pairs, all exact rationals.  Agreement of the pairs is
a non-trivial family of relations among Bernoulli numbers; the grid
verifier checks it exhaustively.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, lcm
from operator import mul

from .exactnum import Record, _fill, bernoulli, riemann_zeta_exact_nonpositive


class IdentityReport(Record):
    __slots__ = _fields = ("parameters", "lhs", "rhs", "equal", "label")

    def __init__(self, parameters: tuple, lhs: Fraction, rhs: Fraction, equal: bool, label: str):
        _fill(self, parameters, lhs, rhs, equal, label)


def zeta_neg_via_B1(N: int) -> Fraction:
    """zeta(-N) = -B_{N+1}/(N+1) - sum_a C(N,a) B_a / (N+1-a).

    C(N, a) / (N + 1 - a) = C(N + 1, a) / (N + 1), so the sum runs in
    integers over (N + 1) D, D as in _bernoulli_scaled(N + 1), and divides
    once."""
    if N < 0:
        raise ValueError("N must be non-negative")
    D, BD = _bernoulli_scaled(N + 1)
    total = BD[N + 1] + sum(comb(N + 1, a) * BD[a] for a in range(N + 1))
    return Fraction(-total, (N + 1) * D)


def zeta_neg_closed(N: int) -> Fraction:
    """zeta(-N) = (-1)^N B_{N+1}/(N+1): the formula every value path uses."""
    return riemann_zeta_exact_nonpositive(N)


@lru_cache(maxsize=None)
def _bernoulli_scaled(cap: int) -> tuple[int, list[int]]:
    """(D, [D B_0, ..., D B_cap]) with D = lcm(den B_0..B_cap)."""
    D = lcm(*(bernoulli(k).denominator for k in range(cap + 1)))
    return D, [b.numerator * (D // b.denominator) for b in map(bernoulli, range(cap + 1))]


@lru_cache(maxsize=None)
def _bernoulli_rows(cap: int) -> list[int]:
    """[sum_{k2 <= cap - k1} D B_k2 C(cap - k1, k2) for k1 = 0..cap], D as in
    _bernoulli_scaled(cap): the inner rows of every _bernoulli_pairs(l, cap)."""
    BD = _bernoulli_scaled(cap)[1]
    return [sum(BD[k2] * comb(m, k2) for k2 in range(m + 1)) for m in range(cap, -1, -1)]


@lru_cache(maxsize=None)
def _bernoulli_pairs(l: int, cap: int) -> int:
    """D^2 times the sum over k1 >= l, k2 >= 0, k1 + k2 <= cap of B_k1 B_k2
    times the multinomial (cap - l)! / ((k1 - l)! k2! (cap - k1 - k2)!), D as
    in _bernoulli_scaled(cap); the multinomial is C(cap - l, k1 - l) C(cap - k1, k2).

    The inner row over k2 depends on (cap, k1) alone, so it is summed once
    per cap (_bernoulli_rows) and each pair sum is one sum over k1.  The row
    is summed term by term, not collapsed by sum_k C(m, k) B_k = (-1)^m B_m:
    that is itself a Bernoulli identity, and B3 must not rest on one, or its
    agreement with B6 would check less."""
    BD, rows = _bernoulli_scaled(cap)[1], _bernoulli_rows(cap)
    return sum(BD[k1] * comb(cap - l, k1 - l) * rows[k1]
               for k1 in range(l, cap + 1) if BD[k1])


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
    squares = [(D // _bernoulli_scaled(cap)[0]) ** 2 for cap in range(T + 1)]
    totals: dict[int, int] = {}
    for l in range(N1 + 1):
        c = comb(N1, l)
        terms = [((-1) ** (N1 - l) * c, comb(T - 1 - l, N2) * (T - l) * (N1 + 1 - l), T),
                 (c, (N2 + 1) * (N1 + 1 - l), N2 + 1 + l)]
        terms += [(c * comb(N2, l2), (T - l - l2) * (N2 + 1 - l2), l + l2) for l2 in range(N2 + 1)]
        for num, den, cap in terms:
            totals[den] = totals.get(den, 0) + num * squares[cap] * _bernoulli_pairs(l, cap)
    L = lcm(*totals)
    return Fraction(sum(num * (L // den) for den, num in totals.items()), L * D * D)


@lru_cache(maxsize=None)
def _tilde_pair_sums(S: int) -> list[list[int]]:
    """T with T[A][b2] = D^2 sum_{l=0}^{A} C(A, l) B~_{S-b2-l} B~_{b2+l} for
    A + b2 <= S, D as in _bernoulli_scaled(S).  B~_k = (-1)^k B_k and the two
    indices sum to S, so each product is (-1)^S B_{S-b2-l} B_{b2+l}.  Row A
    is row A - 1 summed in neighbouring pairs, by Pascal's rule
    C(A, l) = C(A - 1, l) + C(A - 1, l - 1)."""
    BD = _bernoulli_scaled(S)[1]
    row = [(-1) ** S * BD[S - k] * BD[k] for k in range(S + 1)]
    table = [row]
    for _ in range(S):
        row = [x + y for x, y in zip(row, row[1:])]
        table.append(row)
    return table


def _b6_inner(N1: int, y: int, b1: int, fact: list[int]) -> int:
    """double_B6's inner sum: C(b1, j) (N1 + 1)_{b1-j} (y)_j summed over
    max(0, b1 - N1) <= j <= min(b1, y), with fact[i] = i! up to N1 + 1 + y.

    Over all j in 0..b1 the sum is (N1 + 1 + y)_{b1}, by the Vandermonde
    identity for falling factorials.  Its terms vanish for j < b1 - N1 - 1,
    where (N1 + 1)_{b1-j} = 0, and for j > y, where (y)_j = 0.  double_B6's
    range starts one term higher, at j = b1 - N1, so the term
    j = b1 - N1 - 1, C(b1, j) (N1 + 1)! (y)_j = b1! y! / (j! (y - j)!), is
    subtracted when 0 <= j <= y (j < b1 always).  The identity has no
    Bernoulli number in it, so B6 stays independent of B3."""
    n = N1 + 1 + y
    total = fact[n] // fact[n - b1] if b1 <= n else 0
    j = b1 - N1 - 1
    if 0 <= j <= y:
        total -= fact[b1] * fact[y] // (fact[j] * fact[y - j])
    return total


def double_B6(N1: int, N2: int) -> Fraction:
    """Euler double value at (-N1, -N2) from the Mahler-series formula,
    with the period integrals already summed in closed form.

    Uses the extended falling factorial with (n)_{-1} = 1/(n+1).  Every term
    is an integer over S! (N1 + 1) D^2 (S = N1 + N2 + 2, D = lcm(den B_0..B_S)),
    so the sum runs in integers and divides once.  The inner sum over j is
    in closed form (_b6_inner), so a value costs O(S^2) terms; the
    factorials come from one table."""
    if N1 < 0 or N2 < 0:
        raise ValueError("indices must be non-negative")
    S = N1 + N2 + 2
    D = _bernoulli_scaled(S)[0]
    T = _tilde_pair_sums(S)
    fact = list(accumulate(range(1, S + 1), mul, initial=1))
    total = 0
    for b1 in range(N1 + N2 + 1):
        # b2 > N2: the derivative of Q vanishes
        for b2 in range(min(N2, N1 + N2 - b1) + 1):
            A = S - b1 - b2
            # (N1 + 1) times sum_j C(b1, j) (N1)_{b1-j-1} (N2-b2)_j, using
            # (N1)_m (N1 + 1) = (N1 + 1)_{m+1}, which at m = -1 is 1
            inner = _b6_inner(N1, N2 - b2, b1, fact)
            # S! (-1)^A (A-1)! / (A! b1! b2!) = (-1)^A S! / (A b1! b2!), an
            # integer since (A-1)! times the multinomial S!/(A! b1! b2!) is
            pref = (-1) ** A * (fact[S] // (A * fact[b1] * fact[b2]))
            total += pref * (fact[N2] // fact[N2 - b2]) * inner * T[A][b2]
    return Fraction(total, fact[S] * (N1 + 1) * D * D)


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
