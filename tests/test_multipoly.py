"""Sparse polynomials: calculus, faces, Taylor data, positivity checks."""
import gc
import random
from fractions import Fraction as F
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_ceiling, round_nearest

from zetapoly import (
    CompositionMismatch,
    DimensionMismatch,
    IndexOutOfRange,
    MPoly,
    NotElliptic,
    build_P_alpha_u,
    enumerate_V,
    family_hypotheses,
)
from zetapoly._quadrature import (
    FixedPointIntegrand,
    _axis_ints,
    _Cell,
    _eval_cell_fixed,
    _fixed_rule,
    _mpf_int,
    _ulps,
    _weighted,
    cube_moment,
    rounding_floor,
)
from zetapoly.exactnum import mpf_from_rational, multi_factorial
from zetapoly.mahler import certify_elliptic, period_K
from zetapoly.multipoly import (
    bernstein_positive,
    composition_tuples,
    delta_multiindices,
    weighted_partitions,
)
from zetapoly.oracle import _partition_count


def P(text, n=None):
    return MPoly.parse(text, n)


rationals = st.fractions(
    min_value=F(-4), max_value=F(4), max_denominator=6
)


def small_polys(nvars: int, max_terms: int = 4, max_deg: int = 3):
    exps = st.tuples(*([st.integers(0, max_deg)] * nvars))
    term = st.tuples(exps, rationals)
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: MPoly(nvars, {e: c for e, c in ts if c != 0})
    )


class TestBasics:
    def test_parse_emit_roundtrip(self):
        p = P("3/2 x1^2 x3 + x2 - 1/6", 3)
        assert MPoly.parse(p.to_text(), 3) == p
        assert MPoly.from_json(p.to_json()) == p

    @pytest.mark.parametrize("text", ["x65", "x1 -", "x1 ++ x2"])
    def test_parse_rejects(self, text):
        # no variable index so large that the exponent tuples exhaust memory,
        # and no sign dropped without a term
        with pytest.raises(ValueError):
            MPoly.parse(text)

    @pytest.mark.parametrize("e", [(1.5,), (F(3, 2),), ("1",)])
    def test_non_integer_exponent_rejected(self, e):
        # int() would truncate the first two to 1
        with pytest.raises(ValueError):
            MPoly(1, {e: 1})

    def test_eval(self):
        p = P("x1^2 + 2 x1 x2", 2)
        assert p.eval([F(1), F(1, 2)]) == 2

    def test_degree(self):
        assert P("x1^2 + x1 x2", 2).degree() == 2
        assert MPoly.zero(2).degree() == -1
        assert MPoly.constant(2, 5).degree() == 0

    def test_hash_is_cached_and_unchanged(self):
        # The hash is computed once, from the canonical terms as before,
        # for polynomials from the constructor and from MPoly's operations.
        p = P("3/2 x1^2 x3 + x2 - 1/6", 3)
        for q in (p, p * p, p.face(2), MPoly(3, dict(reversed(list(p.terms.items()))))):
            assert q._hash is None
            assert hash(q) == hash((q.nvars, tuple(q.canonical_items()))) == q._hash
        assert hash(p) == hash(MPoly(3, dict(reversed(list(p.terms.items())))))


class TestDerivative:
    def test_examples(self):
        assert P("x1 + x2", 2).derivative((1, 0)) == MPoly.one(2)
        p = P("x1^2 + 2 x1 x2 + x2^2 + x3^2", 3)
        assert p.derivative((1, 0, 0)) == P("2 x1 + 2 x2", 3)
        assert P("x1^2", 2).derivative((0, 1)).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            P("x1", 1).derivative((1, 0))

    @pytest.mark.parametrize("g", [(-1, 0), (0, -2), (2, -1)])
    def test_negative_order_rejected(self, g):
        # (-1, 0) used to return x1 * Q, an antiderivative in disguise
        with pytest.raises(ValueError, match="negative"):
            P("x1^2 + x1 x2", 2).derivative(g)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(small_polys(2), st.tuples(st.integers(0, 2), st.integers(0, 2)),
           st.tuples(st.integers(0, 2), st.integers(0, 2)))
    def test_commutes(self, p, g1, g2):
        total = tuple(a + b for a, b in zip(g1, g2))
        assert p.derivative(g1).derivative(g2) == p.derivative(total)


class TestFixedPointKernel:
    """The quadrature's fixed-point kernel against eval_mp, the reference
    evaluator, run at twice the precision: every value lies within the
    rounding bound the kernel counts for it."""

    cases = st.integers(1, 3).flatmap(lambda n: st.tuples(
        small_polys(n, max_terms=6, max_deg=3),
        st.lists(st.tuples(st.fractions(min_value=F(0), max_value=F(4), max_denominator=6),
                           st.integers(1, 3)), min_size=n, max_size=n),
        st.integers(1, 4),
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 63)), min_size=n, max_size=n),
        st.lists(st.lists(st.fractions(min_value=F(0), max_value=F(1), max_denominator=1000),
                          min_size=1, max_size=3), min_size=n, max_size=n),
    ))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cases, st.sampled_from([20, 50]))
    def test_within_counted_rounding_of_eval_mp(self, case, dps):
        # numer / den^k with den = 1 + sum c_j x_j^e_j, positive on the cube,
        # at points of a random dyadic cell.
        numer, den_terms, k, cell, ts = case
        assume(not numer.is_zero())
        n = numer.nvars
        den = MPoly.one(n)
        for j, (c, e) in enumerate(den_terms):
            den = den + MPoly(n, {tuple(e * (i == j) for i in range(n)): c})
        coords = []
        for (m, a), tj in zip(cell, ts):
            lo, width = F(a % 2**m, 2**m), F(1, 2**m)
            coords.append([lo + width * t for t in tj])
        with mp.workdps(dps):
            f = FixedPointIntegrand(numer, den, k)
            axes = [[mpf_from_rational(x) for x in ax] for ax in coords]
            vals, errs = f.values(axes)
        with mp.workdps(2 * dps):
            for v, e, pt in zip(vals, errs, product(*axes)):
                ref = numer.eval_mp(pt) / den.eval_mp(pt) ** k
                assert abs(v - ref) <= e + abs(ref) * mpf(2) ** (10 - mp.prec)

    def test_wrong_axis_count(self):
        with pytest.raises(DimensionMismatch):
            FixedPointIntegrand(P("x1 + x2", 2), P("1 + x1", 2), 1).values([[mp.mpf(1)]])

    @pytest.mark.parametrize("k", [0, -1])
    def test_power_below_one_raises(self, k):
        # A polynomial integrand has an exact integral (_quadrature.cube_moment).
        with pytest.raises(ValueError):
            FixedPointIntegrand(P("x1 + x2", 2), P("1 + x1", 2), k)

    def test_denominator_not_bounded_away_from_zero(self):
        f = FixedPointIntegrand(P("1", 1), P("x1", 1), 2)
        with pytest.raises(NotElliptic):
            f.values([[mp.mpf(0)]])


def _reference_cell(f, lo, hi, axes, order_hi=15, order_lo=8):
    """The kernel's cell sums and grid values by the plain formulas: x^0 as
    the list 2^F multiplied in, the absolute mass from |q|, a reciprocal and
    a rounding bound E computed at every node and the volume divided out by
    from_rational.  Returns (value, absmass, est), the values and bounds on
    axes, the sign class of q on the cell and whether a value of the
    denominator repeats on its grid."""
    Fb, dim = f.F, f.dim

    def contract(node, tabs, j):
        acc = None
        for e, sub in node.items():
            inner = [sub] if j == len(tabs) - 1 else contract(sub, tabs, j + 1)
            part = [p * v for p in tabs[j][e] for v in inner]
            acc = part if acc is None else [a + b for a, b in zip(acc, part)]
        return [a >> Fb for a in acc]

    def evaluate(xs):
        tabs = []
        for j, x in enumerate(xs):
            t = [[1 << Fb] * len(x), x]
            for _ in range(2, f._maxdeg[j] + 1):
                t.append([(a * b) >> Fb for a, b in zip(t[-1], x)])
            tabs.append(t)
        V = contract(f._V, tabs, 0)
        D = contract(f._D, tabs, 0)
        k, Dmin = f.k, min(D)
        R = [(1 << ((k + 1) * Fb)) // d**k for d in D]
        c0 = (max(map(abs, V)) >> Fb) + 4
        return ([(v * r) >> Fb for v, r in zip(V, R)],
                [c0 + ((f._EV * r) >> Fb) for r in R],
                (k * f._ED * Dmin**k, (Dmin - f._ED) ** (k + 1)),
                len(set(D)) < len(D))

    def scaled(n, e, vol, rnd):
        p, q = n * vol.numerator, vol.denominator
        if e >= 0:
            p <<= e
        else:
            q <<= -e
        return mp.make_mpf(from_rational(p, q, mp.prec, rnd))

    width = [b - a for a, b in zip(lo, hi)]
    vol = prod(width, start=F(1))
    sums = []
    for order in (order_hi, order_lo):
        nodes, L, W = _fixed_rule(order, Fb)[:3]
        q, E, fac, repeats = evaluate(
            [_axis_ints(a, w, nodes, L, Fb) for a, w in zip(lo, width)])
        if order == order_hi:
            sign = "pos" if min(q) >= 0 else "neg" if max(q) <= 0 else "mixed"
            repeated = repeats
        S, A, err = (_weighted(q, W, dim), _weighted([abs(v) for v in q], W, dim),
                     _weighted(E, W, dim))
        err += ((A + err) * fac[0]) // fac[1] + 1
        err += (dim * (A + err)) // min(W) + 1
        sums.append((S, A, err))
    (S, A, err), (S_lo, _, err_lo) = sums
    e = f.shift - (dim + 1) * Fb
    value = scaled(S, e, vol, round_nearest)
    absmass = scaled(A, e, vol, round_nearest)
    est = (abs(value - scaled(S_lo, e, vol, round_nearest))
           + absmass * rounding_floor(mp.prec)
           + scaled(err + err_lo, e, vol, round_ceiling))
    q, E, fac, _ = evaluate([[_mpf_int(x, Fb) for x in ax] for ax in axes])
    E = [x + ((abs(v) + x) * fac[0]) // fac[1] + 1 for v, x in zip(q, E)]
    e = f.shift - Fb
    vals = [scaled(v, e, F(1), round_nearest) for v in q]
    errs = [scaled(x, e, F(1), round_ceiling) + mp.ldexp(abs(v), -mp.prec)
            for x, v in zip(E, vals)]
    return (value, absmass, est), (vals, errs), sign, repeated


class TestFixedPointCell:
    """The cell sums and grid values bit for bit against _reference_cell:
    adding the x^0 branch after the shift, |S| as the absolute mass of a
    sign-definite q, the bound summed as c0 (sum W)^dim + sum W t, a
    reciprocal once per distinct denominator value, and from_man_exp for a
    volume 2^-t are exact rewritings."""

    # (numer, den, k) per dimension: positive, negative and sign-changing on
    # the root cell, k from 1 to 4, a numerator and denominator constant
    # along x1, and symmetric denominators, whose values repeat on the grid
    # of the root cell.
    CASES = {
        1: [("1 + 3/2 x1^2", "1 + x1", 1), ("x1 - 1/3", "2 - x1", 4),
            ("-2 - x1", "1 + x1^2", 2), ("x1^3 - 1/2", "2 + x1", 1)],
        2: [("x1^2 + x1 x2 + 1/3", "1 + x2", 1), ("x1 - x2^2", "3 + x1 - x2", 2),
            ("x2^2 + 1/7", "2 + x2", 3), ("-x1^2 - 1", "1 + x1 x2", 4),
            ("1 + x1 x2", "1 + x1^2 + x2^2", 3), ("x1 - 1/2 + 1/5 x2", "1 + x1 + x2", 2)],
        3: [("1 + x1 + x2^2 x3", "1 + x1 + x2 + x3", 1), ("x1 x2 - x3 + 1/4", "2 + x1 x3", 3),
            ("-x1^2 - x2^2 - x3^2", "1 + x1^2 + x2^2 + x3^2", 2),
            ("x3 - 1/2", "1 + x1 x2 x3", 1),
            ("x1 x2 - 1/3 x3^2 + 1/5", "1 + x1^3 + x2^3 + x3^3", 4)],
    }
    CELLS = [((F(0),) * 3, (F(1),) * 3), ((F(1, 2), F(1, 4), F(3, 8)), (F(1), F(1, 2), F(1, 2)))]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cells_and_values_match_reference(self, dim):
        signs, repeats = set(), set()
        axes = [[mpf(1) / 3, mpf(1) / 2, mpf(6) / 7]] * dim
        with mp.workdps(20):
            for numer, den, k in self.CASES[dim]:
                f = FixedPointIntegrand(P(numer, dim), P(den, dim), k)
                for lo, hi in self.CELLS:
                    cell = _Cell(lo=lo[:dim], hi=hi[:dim])
                    _eval_cell_fixed(f, cell, 15, 8, rounding_floor(mp.prec))
                    (value, absmass, est), grid, sign, repeated = _reference_cell(
                        f, lo[:dim], hi[:dim], axes)
                    signs.add(sign)
                    repeats.add(repeated)
                    assert (cell.value._mpf_, cell.absmass._mpf_, cell.est._mpf_) == (
                        value._mpf_, absmass._mpf_, est._mpf_)
                assert [[x._mpf_ for x in col] for col in f.values(axes)] == [
                    [x._mpf_ for x in col] for col in grid]
        assert signs == {"pos", "neg", "mixed"}
        # Grids with a repeated denominator value and grids without one.
        assert repeats == ({False} if dim == 1 else {True, False})

    @pytest.mark.parametrize("dim", [2, 3])
    def test_guard_bits_depend_on_k_and_repeat(self, dim):
        # One denominator at two precisions and two powers, interleaved: a
        # second pass gives the same guard bits G = F - prec and cell bits.
        # Its small minimum makes G depend on k.
        numer = P("x1 - 1/3 x2 + 1/7", dim)
        den = P("1/20 + x1^2 + 2 x2^3" + " + x3" * (dim - 2), dim)
        cell = _Cell(lo=(F(1, 4),) * dim, hi=(F(1, 2),) * dim)

        def run():
            out = []
            for dps, k in ((20, 1), (30, 3), (20, 3), (30, 1)):
                with mp.workdps(dps):
                    f = FixedPointIntegrand(numer, den, k)
                    _eval_cell_fixed(f, cell, 15, 8, rounding_floor(mp.prec))
                    out.append((f.F - mp.prec, f.F, cell.value._mpf_, cell.absmass._mpf_,
                                cell.est._mpf_))
            return out

        first = run()
        assert len({G for G, *_ in first}) > 1
        assert run() == first


class TestUlps:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.dictionaries(
        st.tuples(*([st.integers(0, 6)] * n)),
        st.fractions(min_value=F(-1), max_value=F(1), max_denominator=10**6).filter(bool),
        min_size=1, max_size=8))))
    def test_integer_sum_equals_fraction_formula(self, case):
        # _ulps sums over one common denominator in integers.
        dim, terms = case
        total = sum(abs(c) * 2 * sum(e) + F(1, 2) + dim for e, c in terms.items())
        assert _ulps(terms, dim) == int(total * (1 + F(1, 1 << 16))) + 1


class TestCubeMoment:
    """_quadrature.cube_moment, the exact integral of a polynomial over the unit
    cube, against mpmath's Gauss-Legendre quadrature, which is exact for
    these degrees up to rounding."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, 3).flatmap(lambda n: small_polys(n, max_terms=5, max_deg=3)))
    def test_equals_mpmath_quad(self, poly):
        with mp.workdps(30):
            f = lambda *x: poly.eval_mp(x)
            ref = mp.quad(f, *([[0, 1]] * poly.nvars), method="gauss-legendre")
            want = cube_moment(poly)
            assert abs(ref - mpf_from_rational(want)) <= mpf(10) ** -25 * (1 + abs(ref))


class TestEnumerators:
    def test_weighted_partitions_brute_force(self):
        for d in range(1, 5):
            for t in range(11):
                want = [a for a in product(range(t + 1), repeat=d)
                        if sum(k * ak for k, ak in enumerate(a, start=1)) == t]
                assert weighted_partitions(t, d) == want

    def test_weighted_partitions_empty(self):
        assert weighted_partitions(-1, 2) == []
        assert weighted_partitions(3, 0) == []
        assert weighted_partitions(0, 3) == [(0, 0, 0)]

    def test_partition_count_is_the_set(self):
        # the oracle planner counts f^(n)'s terms without enumerating them
        for d in range(1, 6):
            for n in range(61):
                assert _partition_count(n, d) == len(weighted_partitions(n, d)), (n, d)

    def test_weighted_partitions_large(self):
        # a set as large as the oracle planner's d = 4 tails reach
        got = weighted_partitions(128, 4)
        assert len(got) == len(set(got)) == 16335
        assert got == sorted(got)
        assert all(sum(k * a for k, a in enumerate(x, start=1)) == 128 for x in got)

    def test_no_reference_cycles(self):
        # the enumerators and the Bernstein subdivision leave no cyclic
        # garbage behind, so their lists are freed when the call returns
        sub = P("x1^2 - x1 + 1/2", 1)  # one zero coefficient: subdivides
        assert bernstein_positive(sub) == ("certified", None)
        gc.collect()
        gc.disable()
        try:
            weighted_partitions(9, 3)
            delta_multiindices.__wrapped__(4, 3)
            bernstein_positive(P("x1^2 + x2^2 + 1", 2))
            bernstein_positive(sub)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_multiindices_of_weight_brute_force(self):
        for n in range(4):
            for k in range(6):
                want = [g for g in product(range(k + 1), repeat=n) if sum(g) == k]
                assert delta_multiindices(k, n) == tuple(want)

    def test_composition_tuples_is_the_product(self):
        totals, slots = (2, 0, 1), (2, 3, 1)
        want = list(product(*(delta_multiindices(t, w) for t, w in zip(totals, slots))))
        assert composition_tuples(totals, slots) == want
        assert composition_tuples((), ()) == [()]

    def test_composition_tuples_support(self):
        totals, slots, support = (2, 1), (3, 4), ([0, 2], [1, 3])
        full = composition_tuples(totals, slots)
        want = [c for c in full
                if all(ck[j] == 0 for ck, sup, w in zip(c, support, slots)
                       for j in range(w) if j not in sup)]
        assert composition_tuples(totals, slots, support) == want
        # a positive total with an empty support admits nothing
        assert composition_tuples((1,), (3,), ([],)) == []
        assert composition_tuples((0,), (3,), ([],)) == [((0, 0, 0),)]


def _ref_eval(p, pt):
    """p at pt, term by term in Fractions."""
    total = F(0)
    for e, c in p.terms.items():
        t = c
        for x, k in zip(pt, e):
            t *= x**k
        total += t
    return total


def _ref_derivative_eval(p, g, pt):
    """d^g p at pt, differentiating each term by hand."""
    total = F(0)
    for e, c in p.terms.items():
        t = c
        for x, k, j in zip(pt, e, g):
            for r in range(j):
                t *= k - r
            t *= x ** (k - j) if k >= j else 0
        total += t
    return total


def _keeps_invariant(p):
    return all(
        len(e) == p.nvars and all(type(x) is int and x >= 0 for x in e)
        and type(c) is F and c != 0
        for e, c in p.terms.items()
    )


class TestExactArithmetic:
    """MPoly's own operations against a direct Fraction reference: eval
    commutes with each of them at random rational points, and every result
    keeps the invariant the public constructor checks."""

    cases = st.integers(1, 3).flatmap(lambda n: st.tuples(
        small_polys(n, max_terms=5), small_polys(n, max_terms=5),
        st.lists(rationals, min_size=n, max_size=n),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.integers(1, n),
    ))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(cases, rationals, st.integers(0, 3))
    def test_eval_commutes(self, case, c, k):
        p, q, pt, g, i = case
        fp, fq = _ref_eval(p, pt), _ref_eval(q, pt)
        assert p.eval(pt) == fp
        results = {
            "*": (p * q, fp * fq), "+": (p + q, fp + fq), "-": (p - q, fp - fq),
            "neg": (-p, -fp), "scale": (p.scale(c), c * fp), "pow": (p**k, fp**k),
            "derivative": (p.derivative(g), _ref_derivative_eval(p, g, pt)),
        }
        for name, (r, want) in results.items():
            assert _keeps_invariant(r), name
            assert r.eval(pt) == want, name
        f = p.face(i)
        assert _keeps_invariant(f)
        assert f.eval(pt[: i - 1] + pt[i:]) == _ref_eval(p, pt[: i - 1] + [F(1)] + pt[i:])

    def test_eval_common_denominators(self):
        p = P("1/3 x1^2 x2 - 5/7 x2^3 + 2", 2)
        pt = [F(2, 9), F(-3, 4)]
        assert p.eval(pt) == _ref_eval(p, pt)
        assert MPoly.zero(2).eval(pt) == 0 and MPoly.constant(0, F(1, 3)).eval([]) == F(1, 3)


class TestFace:
    def test_examples(self):
        assert P("x1^2 + x2^2", 2).face(2) == P("x1^2 + 1", 1)
        f = P("x1", 1).face(1)
        assert f.nvars == 0 and f.constant_value() == 1
        p = P("x1^2 + 2 x1 x2 + x2^2 + x3^2", 3)
        assert p.face(3) == P("x1^2 + 2 x1 x2 + x2^2 + 1", 2)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            P("x1", 1).face(2)


class TestHomogeneity:
    def test_examples(self):
        assert P("x1^2 + x1 x2", 2).is_homogeneous() == (True, 2)
        ok, _ = P("x1^2 + x1", 1).is_homogeneous()
        assert not ok
        assert MPoly.constant(1, 5).is_homogeneous() == (True, 0)

    def test_components_sum_back(self):
        q = P("x1^2 + x1 - 1/6", 1)
        comps = q.homogeneous_components()
        assert [d for d, _ in comps] == [0, 1, 2]
        total = MPoly.zero(1)
        for _, c in comps:
            total = total + c
        assert total == q

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(small_polys(2))
    def test_components_random(self, q):
        total = MPoly.zero(2)
        for _, c in q.homogeneous_components():
            total = total + c
        assert total == q

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.fractions(min_value=F(1, 3), max_value=F(3), max_denominator=5),
           st.tuples(rationals, rationals))
    def test_scaling(self, t, x):
        p = P("x1^2 + 2 x1 x2 + 3 x2^2", 2)
        scaled = [t * xi for xi in x]
        assert p.eval(scaled) == t**2 * p.eval(x)


class TestTaylorH:
    def test_reconstruction_identity(self):
        # Taylor's theorem along face i for a homogeneous P of degree d:
        # P(b + t phi_i(y)) = t^d P(face_i)(y) + sum_k t^(d-k) H_k(y) with
        # H_k = sum_{|g|=k} b^g/g! (d^g P)(face_i), from derivative and face
        rng = random.Random(7)
        p = P("x1^2 + 2 x1 x2 + x2^2 + x3^2", 3)
        d = 2
        for i in (1, 2, 3):
            b = [F(rng.randint(0, 3), 2) for _ in range(3)]
            hs = []
            for k in range(1, d + 1):
                acc = MPoly.zero(2)
                for g in delta_multiindices(k, 3):
                    w = F(1, multi_factorial(g))
                    for x, gi in zip(b, g):
                        w *= x**gi
                    acc = acc + p.derivative(g).face(i).scale(w)
                hs.append(acc)
            for _ in range(5):
                hat = [F(rng.randint(1, 7), 8) for _ in range(2)]
                t = F(rng.randint(1, 15), 8)
                full = hat[: i - 1] + [F(1)] + hat[i - 1 :]
                point = [t * c for c in full]
                shifted = [pc + bc for pc, bc in zip(point, b)]
                lhs = p.eval(shifted)
                rhs = t**d * p.face(i).eval(hat)
                for k, h in enumerate(hs, start=1):
                    rhs += t ** (d - k) * h.eval(hat)
                assert lhs == rhs


def _P_alpha_u_direct(p, i, alpha, u):
    """(alpha!/prod u!) prod ((d^g p at face i)/g!)^u, one factor at a time."""
    out = MPoly.constant(p.nvars - 1, multi_factorial(alpha))
    for k, uk in enumerate(u, start=1):
        for g, mult in zip(delta_multiindices(k, p.nvars), uk):
            base = p.derivative(g).face(i).scale(F(1, multi_factorial(g)))
            for _ in range(mult):
                out = out * base
            out = out.scale(F(1, factorial(mult)))
    return out


class TestPAlphaU:
    def test_one_var(self):
        # d = 1: the unique family gives the constant 1 for any power
        for Npow in range(4):
            alpha = (Npow + 1,)
            u = ((Npow + 1,),)
            out = build_P_alpha_u(P("x1", 1), 1, alpha, u)
            assert out.constant_value() == 1

    def test_golden_example(self):
        p = P("x1^2 + 2 x1 x2 + x2^2 + x3^2", 3)
        d1 = delta_multiindices(1, 3)
        d2 = delta_multiindices(2, 3)
        u1 = tuple(1 if g == (1, 0, 0) else 0 for g in d1)
        u2 = tuple(1 if g == (2, 0, 0) else 0 for g in d2)
        out = build_P_alpha_u(p, 3, (1, 1), (u1, u2))
        assert out == P("2 x1 + 2 x2", 2)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(small_polys(2, max_terms=4, max_deg=3),
           st.lists(st.integers(0, 2), min_size=1, max_size=3))
    def test_shared_memo_matches_fresh_calls(self, p, alpha):
        # one memo over every family of alpha and both faces, as Z_breakdown
        # keeps it, against calls without a memo and a direct product
        memo: dict = {}
        for u in enumerate_V(alpha, 2):
            for i in (1, 2):
                fresh = build_P_alpha_u(p, i, alpha, u.u)
                assert build_P_alpha_u(p, i, alpha, u.u, memo) == fresh
                assert fresh == _P_alpha_u_direct(p, i, alpha, u.u)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, 3).flatmap(lambda n: small_polys(n, max_terms=5, max_deg=3)),
           st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(lambda a: sum(a) <= 3))
    def test_matches_independent_build(self, p, alpha):
        # every face and family of alpha, through one memo as Z_breakdown
        # keeps it, against MPoly's own operations: derivative, face, scale,
        # ** and *, times the multinomial taken as an exact quotient
        memo: dict = {}
        for u in enumerate_V(alpha, p.nvars):
            multinomial = F(multi_factorial(alpha),
                            prod(factorial(m) for uk in u.u for m in uk))
            assert multinomial.denominator == 1
            for i in range(1, p.nvars + 1):
                want = MPoly.constant(p.nvars - 1, multinomial)
                for k, uk in enumerate(u.u, start=1):
                    for g, mult in zip(delta_multiindices(k, p.nvars), uk):
                        base = p.derivative(g).face(i).scale(F(1, multi_factorial(g)))
                        want = want * base**mult
                assert build_P_alpha_u(p, i, alpha, u.u, memo) == want

    def test_mismatch(self):
        p = P("x1^2 + x2^2", 2)
        d1 = delta_multiindices(1, 2)
        u1 = tuple(1 if g == (1, 0) else 0 for g in d1)
        with pytest.raises(CompositionMismatch):
            build_P_alpha_u(p, 1, (2,), (u1,))

    def test_row_count_mismatch(self):
        # a family with fewer rows than alpha has entries, or more, is
        # rejected, not indexed past its end or truncated to len(alpha)
        p = P("x1^2 + x2^2", 2)
        with pytest.raises(CompositionMismatch):
            build_P_alpha_u(p, 1, (1, 1), ((1, 0),))
        with pytest.raises(CompositionMismatch):
            build_P_alpha_u(p, 1, (1,), ((1, 0), (0, 0, 0)))
        with pytest.raises(CompositionMismatch):
            period_K(p, MPoly.one(2), 0, (1, 1), ((1, 0),), (0, 0), 1)


class TestPositivity:
    def test_certified(self):
        status, _, _ = certify_elliptic(P("x1^2 + x2^2", 2))
        assert status == "certified"

    def test_violated(self):
        status, witness, face = certify_elliptic(P("x1^2 - 3 x1 x2 + x2^2", 2))
        assert status == "violated"
        assert witness is not None and face is not None

    def test_box_sampled(self):
        # the box step of family_hypotheses: x1 + x2 on [1,8]^2, as P(1 + 7y)
        # on [0,1]^2, is certified positive by Bernstein subdivision
        box = P("x1 + x2", 2).substitute_axis(0, 7, 1).substitute_axis(1, 7, 1)
        assert box == P("7 x1 + 7 x2 + 2", 2)
        assert bernstein_positive(box) == ("certified", None)

    def test_box_violated(self):
        assert family_hypotheses(P("x1 - 3", 1)) == ("violated", (F(1),))

    @pytest.mark.parametrize("text, n", [("x1", 1), ("x1 x2", 2), ("x1^2 - x1 + 1/4", 1)])
    def test_bernstein_zero_on_cube_violated(self, text, n):
        # each vanishes somewhere on [0,1]^n; (x1 - 1/2)^2 only inside it
        p = P(text, n)
        st_, wit = bernstein_positive(p)
        assert st_ == "violated" and p.eval(wit) == 0

    def test_face_zero_at_corner_not_elliptic(self):
        # face 2 of x1^2 + x1 x2 is x1 (x1 + 1), zero at x1 = 0
        assert certify_elliptic(P("x1^2 + x1 x2", 2)) == ("violated", (F(0),), 2)

    def test_bernstein_zero_dim(self):
        st_, _ = bernstein_positive(MPoly.constant(0, F(3)))
        assert st_ == "certified"


class TestH0s:
    """multipoly.family_hypotheses: positivity and the H0S bound on
    [1,oo)^n, certified, refuted with a witness, or left unverified."""

    def test_linear_passes(self):
        assert family_hypotheses(P("x1 + x2", 2)) == ("certified", None)

    def test_degenerate_direction(self):
        assert family_hypotheses(MPoly(2, {(1, 0): F(1)})) == ("certified", None)

    def test_negative_outside_box_refuted_on_a_ray(self):
        # positive on [1,8]^2, negative far out on a ray: an integer witness
        for text, witness in (("x1 - x2 + 10", (1, 13)),
                              ("x1^2 - 2 x1 x2 + x2^2 + 1 - 1/1000 x2", (1002, 1002))):
            p = P(text, 2)
            st_, wit = family_hypotheses(p)
            assert st_ == "violated" and wit == witness, text
            assert all(x.denominator == 1 for x in wit) and p.eval(wit) < 0

    def test_vanishing_inside_fails(self):
        # negative only inside (1, 8): x = 1 + 7y from a Bernstein corner y
        p = P("x1^2 - 4 x1 + 7/2", 1)
        assert family_hypotheses(p) == ("violated", (F(15, 8),))
        assert p.eval((F(15, 8),)) < 0

    def test_positive_with_negative_coefficient_unverified(self):
        assert family_hypotheses(P("x1^2 - x1 + 1", 1)) == ("unverified", None)
