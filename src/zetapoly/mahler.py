"""Values of Mahler-type series Z(P,Q;s) = sum Q(m)/P(m)^s at s = -N.

Implements the multi-index bookkeeping (weighted index sets, composition
families and their g-vectors), the period integrals over unit-cube faces
(each one ``_quadrature.cube_integral``: an exact moment, a closed form
over an affine face, an exact reduction to one-variable masters, or a
certified quadrature; in a Z value, the diagonal faces c + sum a_j x_j^d
are reduced exactly and summed into one form instead), the triple sum
behind a value, whose sum over the composition families of a block is
built at once as the polynomial powers prod_k H_k^{alpha_k} on each face,
the polynomial-in-(1+a) expansion of the shifted integral continuation, and
the Raabe-type substitution that turns that expansion into the series value.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import add
from typing import Sequence

from mpmath import mp

from ._quadrature import (DEFAULT_QS, QuadratureSettings, cube_integral, diagonal_reduction,
                          form_value)
from .errors import NotElliptic, NotHomogeneous
from .exactnum import (
    Numeric,
    SpecialValue,
    bernoulli_tilde_product,
    multi_factorial,
    point_to_str,
)
from .multipoly import (
    MPoly,
    MultiIndex,
    _int_product,
    _over_common_denominator,
    bernstein_positive,
    build_P_alpha_u,
    composition_tuples,
    delta_multiindices,
    multiindices_up_to_weight,
    weighted_partitions,
)


# -----------------------------------------------------------------------------
# Multi-index enumeration
# -----------------------------------------------------------------------------

def index_I(N: int, beta: Sequence[int], d: int, q: int, n: int) -> list[MultiIndex]:
    """All alpha in N_0^d with sum_k k*alpha_k = d*N + q + n - |beta|."""
    return weighted_partitions(d * N + q + n - sum(beta), d)


@dataclass(frozen=True)
class CompositionFamily:
    """A family u = (u_1, ..., u_d): u_k assigns a multiplicity to each
    multi-index of weight k, listed in the lexicographic order of
    ``delta_multiindices(k, n)``."""

    n: int
    u: tuple[tuple[int, ...], ...]

    def g_vector(self) -> MultiIndex:
        g = [0] * self.n
        for k, uk in enumerate(self.u, start=1):
            for gamma, mult in zip(delta_multiindices(k, self.n), uk):
                if mult:
                    for i in range(self.n):
                        g[i] += mult * gamma[i]
        return tuple(g)


def enumerate_V(alpha: Sequence[int], n: int) -> list[CompositionFamily]:
    """All composition families with |u_k| = alpha_k for each k."""
    alpha = tuple(int(a) for a in alpha)
    slots = [len(delta_multiindices(k, n)) for k in range(1, len(alpha) + 1)]
    return [CompositionFamily(n=n, u=u) for u in composition_tuples(alpha, slots)]


# -----------------------------------------------------------------------------
# Ellipticity certification (positivity of every face on the unit cube)
# -----------------------------------------------------------------------------

def certify_elliptic(P: MPoly) -> tuple[str, tuple | None, int | None]:
    """Certify positivity of every face of P on the closed unit cube."""
    status = "certified"
    for i in range(1, P.nvars + 1):
        st, wit = bernstein_positive(P.face(i))
        if st == "violated":
            return "violated", wit, i
        if st == "sampled_only":
            status = "sampled_only"
    return status, None, None


# -----------------------------------------------------------------------------
# Period integrals
# -----------------------------------------------------------------------------

def period_K(
    P: MPoly,
    Q: MPoly,
    N: int,
    alpha: Sequence[int],
    u: CompositionFamily | Sequence[Sequence[int]],
    beta: Sequence[int],
    i: int,
    qs: QuadratureSettings = DEFAULT_QS,
) -> SpecialValue:
    """Period integral over the face i of the unit cube:

        int_{[0,1]^{n-1}} P(face_i)^{N-|alpha|} * P^i_{alpha,u} * d^beta Q(face_i)

    The integral is an exact rational for one variable (the integrand is a
    constant) and for N >= |alpha| (a polynomial), a bounded Numeric
    otherwise.  When the face positivity certificate does not close, the
    result carries a "positivity_unverified" flag (DECISIONS.md D6).
    """
    if not isinstance(u, CompositionFamily):
        u = CompositionFamily(n=P.nvars, u=tuple(tuple(x) for x in u))
    alpha = tuple(int(a) for a in alpha)
    beta = tuple(int(b) for b in beta)
    if min(alpha, default=0) < 0:
        raise ValueError(f"alpha {alpha} has a negative entry")
    for k, row in enumerate(u.u, start=1):
        for j, mult in enumerate(row, start=1):
            if mult < 0:
                raise ValueError(f"row {k} of u has the negative entry {mult} at position {j}")
    st, wit = bernstein_positive(P.face(i))
    if st == "violated":
        raise NotElliptic(
            f"face {i} is not positive on the unit cube: P <= 0 at {point_to_str(wit)}"
        )
    flags = ("positivity_unverified",) if st == "sampled_only" else ()
    numer = build_P_alpha_u(P, i, alpha, u.u) * Q.derivative(beta).face(i)
    if numer.is_zero():
        return SpecialValue.make_exact(Fraction(0), flags=flags)
    return cube_integral(P.face(i), numer, sum(alpha) - N, qs).with_flags(flags)


# -----------------------------------------------------------------------------
# The value Z(P, Q; -N)
# -----------------------------------------------------------------------------

def _check_P(P: MPoly, N: int) -> tuple[int, tuple[str, ...]]:
    if N < 0:
        raise ValueError("N must be a non-negative integer")
    ok, d = P.is_homogeneous()
    if not ok or d < 1 or P.is_zero():
        raise NotHomogeneous("P must be homogeneous of degree >= 1")
    st, wit, i = certify_elliptic(P)
    if st == "violated":
        raise NotElliptic(f"face {i} non-positive at {point_to_str(wit)}")
    flags = ("positivity_unverified",) if st == "sampled_only" else ()
    return d, flags


def _summed(nvars: int, acc: dict) -> MPoly:
    """The polynomial sum_D acc[D] / D, one Fraction per term."""
    L = lcm(*acc)
    out: dict = {}
    for D, t in acc.items():
        m = L // D
        for e, c in t.items():
            out[e] = out.get(e, 0) + c * m
    return MPoly._of(nvars, {e: Fraction(c, L) for e, c in out.items() if c})


def _mahler_blocks(P: MPoly, Q: MPoly, N: int, d: int, faces: Sequence[int]):
    """The blocks of the triple sum behind Z(P, Q; -N) and its expansion in
    powers of (1 + a), in the order (component, beta, alpha).

    Yields (ci, beta, dQc, alpha, c_ab, products): dQc is d^beta of the
    ci-th homogeneous component of Q, c_ab the weight of (alpha, beta), and
    products maps each face i in faces to (den, {g: ints}), the sum over the
    composition families u of alpha of P^i_{alpha,u} t^{g(u)} as ints / den.
    By the multinomial theorem that sum is prod_k H_k^{alpha_k}, where H_k,
    the part of degree k in t of P(x + t) on face i, is
    sum_{|gamma|=k} (d^gamma P / gamma!) t^gamma.  Terms that cancel to 0
    are kept, so the g are those of the families whose product is nonzero.
    The powers H_k^p and the products over each prefix of alpha are kept
    for the call.
    """
    n = P.nvars
    one = (1, {(0,) * (2 * n - 1): 1})  # exponents: the face's, then t's
    powers, prefixes, grouped = {}, {}, {}  # each value a pair (den, ints)

    def power(i: int, k: int, p: int) -> tuple[int, dict]:
        if (i, k, p) not in powers:
            if p > 1:
                (L, t), (L1, t1) = power(i, k, p - 1), power(i, k, 1)
                powers[i, k, p] = (L * L1, _int_product(t, t1))
            else:
                powers[i, k, p] = _over_common_denominator({
                    e + g: c / multi_factorial(g) for g in delta_multiindices(k, n)
                    for e, c in P.derivative(g).face(i).terms.items()})
        return powers[i, k, p]

    def product(i: int, alpha: MultiIndex) -> tuple[int, dict]:
        if (i, alpha) not in prefixes:
            if not alpha:
                prefixes[i, alpha] = one
            elif not alpha[-1]:
                prefixes[i, alpha] = product(i, alpha[:-1])
            else:
                (L, t), (L1, t1) = product(i, alpha[:-1]), power(i, len(alpha), alpha[-1])
                prefixes[i, alpha] = (L * L1, _int_product(t, t1))
        return prefixes[i, alpha]

    def by_g(i: int, alpha: MultiIndex) -> tuple[int, dict]:
        if (i, alpha) not in grouped:
            den, ints = product(i, alpha)
            groups: dict[MultiIndex, dict] = {}
            for e, c in ints.items():
                groups.setdefault(e[n - 1:], {})[e[:n - 1]] = c
            grouped[i, alpha] = (den, groups)
        return grouped[i, alpha]

    for ci, (q, Qc) in enumerate(Q.homogeneous_components()):
        for beta in multiindices_up_to_weight(q, n):
            dQc = Qc.derivative(beta)
            if dQc.is_zero():
                continue
            for alpha in index_I(N, beta, d, q, n):
                c_ab = Fraction(
                    (-1) ** (sum(alpha) - N)
                    * factorial(sum(alpha) - 1 - N)
                    * factorial(N),
                    d * multi_factorial(alpha) * multi_factorial(beta),
                )
                yield ci, beta, dQc, alpha, c_ab, {i: by_g(i, alpha) for i in faces}


@dataclass(frozen=True)
class ZBucket:
    """The face-i period integral of every term of Z(P, Q; -N) with the same
    Q-component, derivative order beta and index alpha."""

    component: int
    i: int
    beta: MultiIndex
    alpha: MultiIndex
    value: SpecialValue
    orbit: int  # the faces it stands for (i the least); value is their total


def _face_orbits(P: MPoly, Q: MPoly) -> list[tuple[int, ...]]:
    """The faces 1..n in the orbits of the group generated by the coordinate
    swaps (i j) that fix both P and Q, each orbit in increasing order.  A
    permutation s in that group maps the buckets of face i onto those of face
    s(i) (beta -> s beta), and cube integrals do not see the order of the
    coordinates, so the faces of one orbit have equal totals."""
    n = P.nvars
    root = list(range(n))  # union-find over the 0-based coordinates
    find = lambda a: a if root[a] == a else find(root[a])

    def fixed(p: MPoly, i: int, j: int) -> bool:
        swap = lambda e: e[:i] + (e[j],) + e[i + 1:j] + (e[i],) + e[j + 1:]
        return {swap(e): c for e, c in p.terms.items()} == p.terms

    for j in range(n):
        for i in range(j):
            if find(i) != find(j) and fixed(P, i, j) and fixed(Q, i, j):
                root[find(j)] = find(i)
    orbits: dict[int, list[int]] = {}
    for a in range(n):
        orbits.setdefault(find(a), []).append(a + 1)
    return [tuple(o) for o in orbits.values()]


# Z_breakdown's terms repeat their Bernoulli exponents m, within one value
# and across values; each product is an exact Fraction.
_bernoulli_tilde_memo = lru_cache(maxsize=1024)(bernoulli_tilde_product)


@dataclass(frozen=True)
class ZMaster:
    """A term of the exact form that the buckets on diagonal faces sum to
    (DECISIONS.md D14): the rational part coeff for key None, else coeff
    times the master named by key, whose value is given."""

    key: tuple | None
    coeff: Fraction
    value: Numeric | None


def Z_breakdown(
    P: MPoly, Q: MPoly, N: int, qs: QuadratureSettings = DEFAULT_QS
) -> tuple[SpecialValue, list[ZBucket | ZMaster]]:
    """Z(P, Q; -N) together with the parts it is the sum of: a ZBucket per
    bucket integrated on its own, and a ZMaster per term of the one form
    that the buckets on diagonal faces sum to.  Those buckets are reduced
    exactly, scaled by their orbits, and summed over the whole value; only
    then are the masters left integrated (DECISIONS.md D14)."""
    d, flags = _check_P(P, N)
    n = P.nvars
    # Only the least face of each orbit is built; its total stands for all.
    orbit = {o[0]: len(o) for o in _face_orbits(P, Q)}
    # Per bucket, its numerator c_ab sum_g B~(g + beta) [t^g], summed in
    # integers, and d^beta Q_c.
    numers: dict[tuple, tuple[MPoly, MPoly]] = {}
    for ci, beta, dQc, alpha, c_ab, products in _mahler_blocks(P, Q, N, d, orbit):
        for i, (den, groups) in products.items():
            acc: dict = {}
            for g, ints in groups.items():
                bt = _bernoulli_tilde_memo(tuple(map(add, g, beta)))
                if bt:
                    w = c_ab * bt
                    t, s = acc.setdefault(w.denominator * den, {}), w.numerator
                    for e, c in ints.items():
                        t[e] = t.get(e, 0) + s * c
            numers[ci, i, beta, alpha] = _summed(n - 1, acc), dQc
    evaluated: list[ZBucket | ZMaster] = []
    # Per (diagonal reduction, e, k), the buckets' coefficients of x^e / D^k.
    reduced: dict[tuple, Fraction] = {}
    for key in sorted(numers):  # evaluate buckets in a fixed order
        numer, dQc = numers[key]
        if numer.is_zero():
            continue
        ci, i, beta, alpha = key
        # dQc is a nonzero homogeneous polynomial, so its face is nonzero.
        dg = diagonal_reduction(P.face(i))
        if dg is not None:
            for e, q in (numer * dQc.face(i)).terms.items():
                row = (dg, e, sum(alpha) - N)
                reduced[row] = reduced.get(row, 0) + orbit[i] * q
            continue
        v = cube_integral(P.face(i), numer * dQc.face(i), sum(alpha) - N, qs)
        if orbit[i] > 1:
            with mp.workdps(qs.precision + 10):
                v = v.scale(orbit[i])
        evaluated.append(ZBucket(ci, i, beta, alpha, v, orbit[i]))
    exact = sum((b.value.exact for b in evaluated if b.value.kind == "exact"), Fraction(0))
    parts = [b.value.num for b in evaluated if b.value.kind == "numeric"]
    if reduced:
        v, rational, masters = form_value(reduced, qs)
        parts.append(v)
        evaluated += [ZMaster(None, rational, None)] + [ZMaster(*m) for m in masters]
    if not parts:
        return SpecialValue.make_exact(exact, flags=flags), evaluated
    with mp.workdps(qs.precision + 10):
        acc = Numeric.from_rational(exact)
        for p in parts:
            acc = acc + p
    return SpecialValue.make_numeric(acc, flags=flags), evaluated


def Z_value(
    P: MPoly, Q: MPoly, N: int, qs: QuadratureSettings = DEFAULT_QS
) -> SpecialValue:
    """Value of the Dirichlet series sum_m Q(m) P(m)^{-s} at s = -N.

    Q is decomposed into homogeneous components (the value is linear in Q);
    each component contributes a triple sum over derivative orders beta,
    weighted index vectors alpha and composition families u, with face-period
    integrals and a product of modified Bernoulli numbers per term.  The sum
    over u of a block (beta, alpha) on a face is built as one polynomial,
    prod_k H_k^{alpha_k} with H_k the part of degree k in t of P(x + t).
    """
    return Z_breakdown(P, Q, N, qs)[0]


# -----------------------------------------------------------------------------
# Shifted-integral expansion and the Raabe-type substitution
# -----------------------------------------------------------------------------

@dataclass
class YExpansion:
    """Coefficients of the expansion of the shifted integral continuation in
    the basis prod_i (1+a_i)^{m_i}, keyed by m, to precision digits."""

    n: int
    coeffs: dict[MultiIndex, SpecialValue]
    precision: int = DEFAULT_QS.precision

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])


def Y_expansion(
    P: MPoly, Q: MPoly, N: int, qs: QuadratureSettings = DEFAULT_QS
) -> YExpansion:
    """Expansion of the integral over [1,oo)^n of Q_a P_a^{-s} at s = -N in
    powers of (1 + a_i), computed from the same face-period data as Z."""
    d, flags = _check_P(P, N)
    n = P.nvars
    expansion: dict[MultiIndex, SpecialValue] = {}
    with mp.workdps(qs.precision + 10):  # the sums round at the working precision
        for _, beta, dQc, alpha, c_ab, products in _mahler_blocks(P, Q, N, d, range(1, n + 1)):
            # The t-exponents g, those of the families, are the same on every
            # face; the basis exponent is g + beta.
            for g in sorted(products[1][1]):
                total = SpecialValue.make_exact(Fraction(0))
                for i, (den, groups) in products.items():
                    numer = _summed(n - 1, {den: groups[g]}) * dQc.face(i)
                    if not numer.is_zero():
                        total = total + cube_integral(P.face(i), numer, sum(alpha) - N, qs)
                m = tuple(map(add, g, beta))
                total = total.scale(c_ab)
                expansion[m] = expansion[m] + total if m in expansion else total
    expansion = {
        m: v.with_flags(flags)
        for m, v in expansion.items()
        if not (v.kind == "exact" and v.exact == 0)
    }
    return YExpansion(n=n, coeffs=expansion, precision=qs.precision)


def raabe_substitute(exp: YExpansion) -> SpecialValue:
    """Replace each basis monomial exponent m by the product of modified
    Bernoulli numbers; by construction this reproduces Z(P,Q;-N)."""
    total = SpecialValue.make_exact(Fraction(0))
    with mp.workdps(exp.precision + 10):
        for m, coeff in exp.items_sorted():
            w = bernoulli_tilde_product(m)
            if w != 0:
                total = total + coeff.scale(w)
    return total
