"""Values of Mahler-type series Z(P,Q;s) = sum Q(m)/P(m)^s at s = -N.

Implements the multi-index bookkeeping (weighted index sets, composition
families and their g-vectors), the period integrals over unit-cube faces
(each one ``_quadrature.cube_integral``), the triple sum behind a value,
whose terms with the same |alpha| = a on a face are built at once as the
polynomial (P(x + t) - P(x))^a Q_c(x + t), and a Z value's one exact form:
a one-variable face's terms are reduced to masters, a diagonal P's
(linear forms included) are Dirichlet integrals over the orthant, and
every other face orbit's terms are one integral, a named constant.  Only
those integrals, of a non-diagonal P's faces of two or more variables or
its one-variable faces that are not squarefree or not certified, run a
quadrature in a Z value.  Also the polynomial-in-(1+a) expansion of the
shifted integral continuation, and the Raabe-type substitution that turns
that expansion into the series value.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from operator import sub
from typing import Sequence

from mpmath import mp

from ._quadrature import (DEFAULT_QS, QuadratureSettings, _budgeted, _form_sum, _MasterKey,
                          cube_integral, dirichlet, reduction)
from .errors import DimensionMismatch, NotElliptic, NotHomogeneous
from .exactnum import (
    ConstantProduct,
    Numeric,
    Record,
    SpecialValue,
    _fill,
    _int_tuple,
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
    N, d, q, n = _int_tuple((N, d, q, n), "(N, d, q, n)")
    return weighted_partitions(d * N + q + n - sum(_int_tuple(beta, "beta")), d)


class CompositionFamily(Record):
    """A family u = (u_1, ..., u_d): u_k assigns a multiplicity to each
    multi-index of weight k, listed in the lexicographic order of
    ``delta_multiindices(k, n)``."""

    __slots__ = _fields = ("n", "u")

    def __init__(self, n: int, u: Sequence[Sequence[int]]):
        # n and the rows as ints, read once (DECISIONS.md D9)
        (n,) = _int_tuple((n,), "n")
        u = tuple(_int_tuple(row, f"row {k} of u") for k, row in enumerate(u, start=1))
        _fill(self, n, u)

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
    alpha = _int_tuple(alpha, "alpha")
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
    u = (u if isinstance(u, CompositionFamily) else CompositionFamily(P.nvars, u)).u
    alpha = _int_tuple(alpha, "alpha", nonneg=True)
    beta = _int_tuple(beta, "beta")
    for k, row in enumerate(u, start=1):
        for j, mult in enumerate(row, start=1):
            if mult < 0:
                raise ValueError(f"row {k} of u has the negative entry {mult} at position {j}")
    st, wit = bernstein_positive(P.face(i))
    if st == "violated":
        raise NotElliptic(
            f"face {i} is not positive on the unit cube: P <= 0 at {point_to_str(wit)}"
        )
    flags = ("positivity_unverified",) if st == "sampled_only" else ()
    numer = build_P_alpha_u(P, i, alpha, u) * Q.derivative(beta).face(i)
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


def _face_integral(face: MPoly, numer: MPoly, k: int) -> tuple[int, dict]:
    """int numer / face^k over the cube as an int form of one row: s times
    the kind-2 constant named by face and numer / s, s numer's coefficient of
    its greatest exponent once each term's exponents are sorted within each
    block of the swaps that fix face; so equal integrals share a key, and
    opposite ones and a part odd under those swaps cancel (D21)."""
    blocks, canon = [[i - 1 for i in o] for o in _face_orbits(face, face)], {}
    for e, c in numer.terms.items():
        f = dict(p for b in blocks for p in zip(b, sorted(e[j] for j in b)))
        f = tuple(f[j] for j in range(face.nvars))
        canon[f] = canon.get(f, 0) + c
    terms = sorted((f, c) for f, c in canon.items() if c)
    if not terms:
        return 1, {}
    s = terms[-1][1]
    key = _MasterKey((2, face.nvars, tuple(sorted(face.terms.items())),
                      tuple((f, c / s) for f, c in terms), k))
    return s.denominator, {(key, (), k): s.numerator}  # a key is its own row's reduction


# Z_breakdown's terms repeat their Bernoulli exponents m, within one value
# and across values; each product is an exact Fraction.
_bernoulli_tilde_memo = lru_cache(maxsize=1024)(bernoulli_tilde_product)


class ZMaster(Record):
    """A term of the one exact form of a Z value (DECISIONS.md D16, D21):
    the rational part coeff for key None, else coeff times the constant
    named by key, whose value is given."""

    __slots__ = _fields = ("key", "coeff", "value")

    def __init__(self, key: tuple | ConstantProduct | None, coeff: Fraction, value: Numeric | None):
        _fill(self, key, coeff, value)


@lru_cache(maxsize=64, typed=True)
def _exact_form(P: MPoly, Q: MPoly, N: int) -> tuple:
    """What no settings change in Z(P, Q; -N), once per (P, Q, N): its
    flags and its exact form (rational, ((key, q), ...)) (DECISIONS.md
    D16, D17, D21), or (rational, None) when no face of a variable has a
    nonzero bucket (n = 1).  Typed, so an N that only equals an int is
    checked again; bad input raises on every call."""
    d, flags = _check_P(P, Q, N)
    # A diagonal P's buckets are one integral over the orthant, face 1 a
    # chart of it (D17); else each orbit's least face stands for all.
    orthant = dirichlet(P)
    orbit = {1: 1} if orthant else {o[0]: len(o) for o in _face_orbits(P, Q)}
    # Per bucket (component, face, a), its numerator c_a sum_m B~(m) [t^m] as
    # ints over one denominator: a reduced face's rows {(reduction, e, a - N):
    # int}, or summed over face^K, K the largest a - N, into one integral.
    rows, rational = [], Fraction(0)  # the rows scaled by their orbit
    for i, size in orbit.items():
        face, numers = P.face(i), []
        red = orthant or reduction(face)
        for ci, a, c_a, den, groups in _face_sums(P, Q, N, d, i):
            L, ints = combine([(c_a * bt, (den, g)) for m, g in groups.items()
                               if (bt := _bernoulli_tilde_memo(m))])
            if ints and red is None:
                numers.append((a - N, MPoly._over(face.nvars, L, ints)))
            elif ints:  # a zero bucket adds no rows
                rows.append((size, (L, {(red, e, a - N): x for e, x in ints.items()})))
        if numers:
            K = max(k for k, _ in numers)
            numer = sum((p * face ** (K - k) for k, p in numers), MPoly.zero(face.nvars))
            if not face.nvars:
                rational += size * numer.constant_value() / face.constant_value() ** K
            else:  # evaluated even when it is 0, as a reduced face's rows are
                rows.append((size, _face_integral(face, numer, K)))
    return flags, _form_sum(combine(rows)) if rows else (rational, None)


def Z_breakdown(
    P: MPoly, Q: MPoly, N: int, qs: QuadratureSettings = DEFAULT_QS
) -> tuple[SpecialValue, list[ZMaster]]:
    """Z(P, Q; -N) and the terms of its one exact form (``_exact_form``):
    its rational part, then each constant left -- a master, a Gamma product
    or a face integral -- with its summed coeff and its value, all under
    ``_budgeted``'s one budget abs_tol + rel_tol |Z| (DECISIONS.md D16,
    D17, D18, D21); with no face of a variable behind it, the rational."""
    flags, (rational, keys) = _exact_form(P, Q, N)
    terms = [ZMaster(None, rational, None)]
    if keys is None:
        return SpecialValue.make_exact(rational, flags=flags), terms
    v, masters = _budgeted(rational, keys, qs)
    with mp.workdps(qs.precision + 10):
        v = Numeric.from_rational(0) + v
    return SpecialValue.make_numeric(v, flags=flags), terms + [ZMaster(*m) for m in masters]


def Z_value(
    P: MPoly, Q: MPoly, N: int, qs: QuadratureSettings = DEFAULT_QS
) -> SpecialValue:
    """Value of the Dirichlet series sum_m Q(m) P(m)^{-s} at s = -N, the
    value of ``Z_breakdown``."""
    return Z_breakdown(P, Q, N, qs)[0]


# -----------------------------------------------------------------------------
# Shifted-integral expansion and the Raabe-type substitution
# -----------------------------------------------------------------------------

class YExpansion(Record):
    """Coefficients of the expansion of the shifted integral continuation in
    the basis prod_i (1+a_i)^{m_i}, keyed by m, to precision digits."""

    __slots__ = _fields = ("n", "coeffs", "precision")

    def __init__(self, n: int, coeffs: dict[MultiIndex, SpecialValue],
                 precision: int = DEFAULT_QS.precision):
        _fill(self, n, coeffs, precision)

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
