"""Values of Mahler-type series Z(P,Q;s) = sum Q(m)/P(m)^s at s = -N.

Implements the multi-index bookkeeping (weighted index sets, composition
families and their g-vectors), the period integrals over unit-cube faces
(each one ``_quadrature.cube_integral``: an exact moment, a closed form
over an affine face, an exact reduction to one-variable masters, or a
certified quadrature; in a Z value, the buckets on one-variable faces are
reduced exactly and summed into one form instead, and a diagonal P's,
linear forms included, are Dirichlet integrals over the orthant),
the triple sum behind a value, whose terms with the same |alpha| = a on a
face are built at once as the polynomial (P(x + t) - P(x))^a Q_c(x + t),
the polynomial-in-(1+a) expansion of the shifted integral continuation,
and the Raabe-type substitution that turns that expansion into the series
value.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from operator import sub
from typing import Sequence

from mpmath import mp

from ._quadrature import (DEFAULT_QS, QuadratureSettings, _budgeted, _form_sum, cube_integral,
                          dirichlet, reduction)
from .errors import DimensionMismatch, NotElliptic, NotHomogeneous
from .exactnum import (
    ConstantProduct,
    Numeric,
    SpecialValue,
    bernoulli_tilde_product,
    point_to_str,
)
from .multipoly import (
    MPoly,
    MultiIndex,
    _over_common_denominator,
    bernstein_positive,
    build_P_alpha_u,
    combine,
    composition_tuples,
    delta_multiindices,
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
    _check_N(N)
    if Q.nvars != P.nvars:
        raise DimensionMismatch(f"Q has {Q.nvars} variables, P has {P.nvars}")
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

def _check_N(N: int) -> None:
    if not isinstance(N, int) or N < 0:
        raise ValueError(f"N must be a non-negative integer, got {N!r}")


def _check_P(P: MPoly, Q: MPoly, N: int) -> tuple[int, tuple[str, ...]]:
    _check_N(N)
    if Q.nvars != P.nvars:
        raise DimensionMismatch(f"Q has {Q.nvars} variables, P has {P.nvars}")
    ok, d = P.is_homogeneous()
    if not ok or d < 1 or P.is_zero():
        raise NotHomogeneous("P must be homogeneous of degree >= 1")
    st, wit, i = certify_elliptic(P)
    if st == "violated":
        raise NotElliptic(f"face {i} non-positive at {point_to_str(wit)}")
    flags = ("positivity_unverified",) if st == "sampled_only" else ()
    return d, flags


def _face_sums(P: MPoly, Q: MPoly, N: int, d: int, i: int):
    """The triple sum behind Z(P, Q; -N) and its expansion in the basis
    prod_j (1 + a_j)^{m_j} on face i, one polynomial per component of Q and
    a = |alpha|, in increasing a.

    Yields (ci, a, c_a, den, groups): c_a = (-1)^(a-N) (a-1-N)! N! / (d a!)
    and groups maps each m with |m| = W = dN + q + n, q the degree of the
    ci-th homogeneous component Q_c of Q, to [t^m] of
    (P(x + t) - P(x))^a Q_c(x + t) on face i as ints / den.  By the
    multinomial and Taylor theorems, c_a [t^m] is the sum of
    c_ab P^i_{alpha,u} d^beta Q_c over beta, |alpha| = a and the families u
    with g(u) + beta = m.  Terms that cancel to 0 are kept, so the m are
    those of the families whose product is nonzero.  The powers are graded
    by t-degree, up to the largest W; at each a only the pairs of degrees
    that sum to W are multiplied.
    """
    n, homogeneous = P.nvars, Q.homogeneous_components()
    if not homogeneous:
        return
    top = d * N + n + max(q for q, _ in homogeneous)  # the largest W
    # An exponent (the face's, then t's) is packed into one int, a field of
    # `bits` bits per variable: none exceeds d * a + q <= (d + 1) * top.
    bits = ((d + 1) * top).bit_length()
    face_mask = (1 << bits * (n - 1)) - 1
    unpack = lru_cache(maxsize=None)(
        lambda x, r: tuple((x >> bits * j) & ((1 << bits) - 1) for j in range(r)))

    def graded(p: MPoly, degrees: range) -> tuple[int, dict]:
        """(den, {k: ints}): sum_{|g|=k} (d^g p / g!) t^g on face i, the part
        of degree k in t of p(x + t), as ints / den: d^g x^e / g! = C(e, g)
        x^(e-g), so den is the lcm L of p's denominators (p, homogeneous, is
        its own part of top degree, and no two of its terms meet on face i)."""
        L, ints = _over_common_denominator(p.terms)
        levels: dict[int, dict] = {}
        for k in degrees:
            for g in delta_multiindices(k, n):
                for e, c in ints.items():
                    if min(f := tuple(map(sub, e, g))) >= 0:
                        x = sum(y << bits * j for j, y in enumerate(f[:i - 1] + f[i:] + g))
                        levels.setdefault(k, {})[x] = c * prod(map(comb, e, g))
        return L, levels

    L, shift = graded(P, range(1, d + 1))  # P(x + t) - P(x)
    components = [(q, d * N + q + n, graded(Qc, range(q + 1))) for q, Qc in homogeneous]
    den, power = 1, {0: {0: 1}}  # (P(x + t) - P(x))^a by t-degree
    for a in range(1, top + 1):
        nxt: dict[int, dict] = {}
        for j, t in power.items():
            for k, s in shift.items():
                if j + k <= top:
                    _packed_product(t, s, nxt.setdefault(j + k, {}))
        den, power = den * L, nxt
        for ci, (q, W, (Lq, levels)) in enumerate(components):
            if a > W or d * a + q < W:
                continue
            product: dict = {}
            for k, s in levels.items():
                if W - k in power:
                    _packed_product(power[W - k], s, product)
            groups: dict[MultiIndex, dict] = {}
            for x, c in product.items():
                e = unpack(x & face_mask, n - 1)  # keyed on the face's fields alone
                groups.setdefault(unpack(x >> bits * (n - 1), n), {})[e] = c
            c_a = Fraction((-1) ** (a - N) * factorial(a - 1 - N) * factorial(N),
                           d * factorial(a))
            yield ci, a, c_a, den * Lq, groups


def _packed_product(t1: dict, t2: dict, out: dict) -> None:
    """Adds the product of two int term dicts keyed by packed exponents into
    out; terms that cancel to 0 are kept."""
    get = out.get
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2


@dataclass(frozen=True)
class ZBucket:
    """The face-i period integral of every term of Z(P, Q; -N) with the same
    Q-component and |alpha| = a."""

    component: int
    i: int
    a: int
    value: SpecialValue
    orbit: int  # the faces it stands for (i the least); value is their total


def _face_orbits(P: MPoly, Q: MPoly) -> list[tuple[int, ...]]:
    """The faces 1..n in the orbits of the group generated by the coordinate
    swaps (i j) that fix both P and Q, each orbit in increasing order.  A
    permutation s in that group maps the numerators of face i onto those of
    face s(i) (t -> s t), and cube integrals do not see the order of the
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
    """A term of the exact form that the reduced buckets sum to
    (DECISIONS.md D16): the rational part coeff for key None, else coeff
    times the constant named by key, whose value is given."""

    key: tuple | ConstantProduct | None
    coeff: Fraction
    value: Numeric | None


@lru_cache(maxsize=64, typed=True)
def _exact_form(P: MPoly, Q: MPoly, N: int) -> tuple:
    """What no settings change in Z(P, Q; -N), once per (P, Q, N): its
    flags; per quadrature bucket, in (component, face, a) order, (ci, i, a,
    face, numerator, orbit size); and the exact form (rational, ((key, q),
    ...)) that the reduced buckets sum to (DECISIONS.md D16, D17), or None
    when none of them is nonzero.  Typed, so an N that only equals an int
    is checked again; bad input raises on every call."""
    d, flags = _check_P(P, Q, N)
    # A diagonal P's buckets are one integral over the orthant, of which
    # face 1 is a chart (D17); else only the least face of each orbit is
    # built, and its total stands for all.
    orthant = dirichlet(P)
    orbit = {1: 1} if orthant else {o[0]: len(o) for o in _face_orbits(P, Q)}
    # Per bucket (component, face, a), its numerator c_a sum_m B~(m) [t^m]
    # as ints over one denominator; a bucket on a reduced face adds it,
    # scaled by its orbit, to the rows {(reduction, e, k): int} instead.
    numers: dict[tuple, tuple] = {}
    rows: list[tuple] = []
    for i in orbit:
        face = P.face(i)
        red = orthant or reduction(face)
        for ci, a, c_a, den, groups in _face_sums(P, Q, N, d, i):
            L, ints = combine([(c_a * bt, (den, g)) for m, g in groups.items()
                               if (bt := _bernoulli_tilde_memo(m))])
            if ints and red is None:
                numers[ci, i, a] = face, MPoly._over(P.nvars - 1, L, ints)
            elif ints:  # a zero bucket adds no rows
                rows.append((orbit[i], (L, {(red, e, a - N): x for e, x in ints.items()})))
    buckets = tuple((ci, i, a, face, numer, orbit[i])
                    for (ci, i, a), (face, numer) in sorted(numers.items()))
    # The form is evaluated even when the rows cancel.
    return flags, buckets, _form_sum(combine(rows)) if rows else None


def Z_breakdown(
    P: MPoly, Q: MPoly, N: int, qs: QuadratureSettings = DEFAULT_QS
) -> tuple[SpecialValue, list[ZBucket | ZMaster]]:
    """Z(P, Q; -N) together with the parts it is the sum of: a ZMaster per
    term of the one form that the buckets on one-variable faces sum to,
    each reduced exactly and scaled by its orbit, or a diagonal P's
    buckets over the orthant, with only the constants left evaluated
    (DECISIONS.md D16, D17, D18); and a ZBucket per other bucket,
    integrated on its own.  The exact part is
    ``_exact_form``'s; only the integrals and constants depend on qs."""
    flags, buckets, form = _exact_form(P, Q, N)
    evaluated: list[ZBucket | ZMaster] = []
    for ci, i, a, face, numer, orbit in buckets:  # evaluate buckets in a fixed order
        v = cube_integral(face, numer, a - N, qs)
        if orbit > 1:
            with mp.workdps(qs.precision + 10):
                v = v.scale(orbit)
        evaluated.append(ZBucket(ci, i, a, v, orbit))
    exact = sum((b.value.exact for b in evaluated if b.value.kind == "exact"), Fraction(0))
    parts = [b.value.num for b in evaluated if b.value.kind == "numeric"]
    if form is not None:
        rational, keys = form
        v, masters = _budgeted(rational, keys, qs)
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
    integrals and a product of modified Bernoulli numbers per term.  The
    terms with the same |alpha| = a on a face are built as one polynomial,
    (P(x + t) - P(x))^a Q_c(x + t), and integrated once.
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
    d, flags = _check_P(P, Q, N)
    n = P.nvars
    expansion: dict[MultiIndex, SpecialValue] = {}
    sums: dict[tuple, dict] = {}  # (component, a) -> {face: (c_a, den, groups)}
    for i in range(1, n + 1):
        for ci, a, *face_sum in _face_sums(P, Q, N, d, i):
            sums.setdefault((ci, a), {})[i] = face_sum
    with mp.workdps(qs.precision + 10):  # the sums round at the working precision
        for (_, a), faces in sorted(sums.items()):
            # The basis exponents m, those of the families, are the same on
            # every face.
            for m in sorted(faces[1][2]):
                total = SpecialValue.make_exact(Fraction(0))
                for i, (c_a, den, groups) in faces.items():
                    numer = MPoly._over(n - 1, *combine([(c_a, (den, groups[m]))]))
                    if not numer.is_zero():
                        total = total + cube_integral(P.face(i), numer, a - N, qs)
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
