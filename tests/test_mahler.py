"""Mahler-series values: enumeration, periods, the value formula, Raabe."""
import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
import re
import time
from fractions import Fraction as F
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

from zetapoly import (
    CompositionFamily,
    ConstantProduct,
    DimensionMismatch,
    MPoly,
    NotElliptic,
    NotHomogeneous,
    PrecisionUnreachable,
    QuadratureDidNotConverge,
    QuadratureSettings,
    SpecialValue,
    Y_expansion,
    Z_value,
    enumerate_V,
    index_I,
    period_K,
    raabe_substitute,
    riemann_zeta_exact_nonpositive,
    theta_diagonal,
)
from zetapoly import _quadrature, build_P_alpha_u, exactnum, mahler
from zetapoly.exactnum import bernoulli_tilde_product, multi_factorial
from zetapoly.mahler import (
    ZMaster,
    Z_breakdown,
    _face_orbits,
    _face_sums,
    certify_elliptic,
    delta_multiindices,
)
from zetapoly.multipoly import _over_common_denominator, combine

QS = QuadratureSettings(rel_tol=1e-12, precision=30)
QS_FAST = QuadratureSettings(rel_tol=1e-8, precision=20)
QS6 = QuadratureSettings(rel_tol=1e-6, precision=20)  # criterion 9's tolerance


def P(text, n=None):
    return MPoly.parse(text, n)


class TestIndexSets:
    def test_examples(self):
        assert index_I(0, (0, 0), 1, 2, 2) == [(4,)]
        assert sorted(index_I(0, (0, 0, 0, 0), 3, 0, 4)) == [
            (0, 2, 0), (1, 0, 1), (2, 1, 0), (4, 0, 0)
        ]
        assert index_I(0, (5, 0), 1, 2, 2) == []

    def test_delta_sizes(self):
        for n in range(1, 5):
            for k in range(1, 4):
                assert len(delta_multiindices(k, n)) == comb(n + k - 1, n - 1)

    def test_enumerate_V_counts(self):
        assert len(enumerate_V((1,), 1)) == 1
        assert len(enumerate_V((1, 1), 3)) == 18
        assert len(enumerate_V((), 2)) == 1
        # general stars-and-bars count on small weighted vectors
        for n in range(1, 5):
            for alpha in [(2,), (0, 1), (1, 1), (3, 0), (1, 0, 1), (0, 2)]:
                if sum((k + 1) * a for k, a in enumerate(alpha)) > 6:
                    continue
                expect = 1
                for k, ak in enumerate(alpha, start=1):
                    m = comb(n + k - 1, n - 1)
                    expect *= comb(ak + m - 1, m - 1)
                assert len(enumerate_V(alpha, n)) == expect

    def test_g_vector(self):
        u0 = enumerate_V((), 3)[0]
        assert u0.g_vector() == (0, 0, 0)
        # one-variable: g = (|alpha| weighted)
        fam = enumerate_V((3,), 1)[0]
        assert fam.g_vector() == (3,)
        # the golden family
        d1 = delta_multiindices(1, 3)
        d2 = delta_multiindices(2, 3)
        u = CompositionFamily(
            n=3,
            u=(
                tuple(1 if g == (1, 0, 0) else 0 for g in d1),
                tuple(1 if g == (2, 0, 0) else 0 for g in d2),
            ),
        )
        assert u.g_vector() == (3, 0, 0)

    def test_weight_identity(self):
        for alpha in [(2, 1), (0, 2), (1, 0, 1)]:
            for u in enumerate_V(alpha, 2):
                g = u.g_vector()
                assert sum(g) == sum((k + 1) * a for k, a in enumerate(alpha))

    @pytest.mark.parametrize("p, q", [
        ("x1 + x2", "1"),
        ("x1^2 + x1 x2 + x2^2", "x1 + x2^2"),
        ("x1^2 + 2 x1 x2 + x2^2 + x3^2", "x1^2 + x1 x2 + x3"),
        ("x1^3 + x2^3", "3 x1 x2 + 1"),
    ])
    def test_term_degrees(self, p, q):
        # every t-exponent m of a face sum has |m| = dN + q + n, the weight
        # of index_I plus |beta|, q the degree of its component of Q; and
        # a = |alpha| > N, so c_a's (a - 1 - N)! is defined
        Ppoly = P(p)
        Qpoly = P(q, Ppoly.nvars)
        n, (_, d) = Ppoly.nvars, Ppoly.is_homogeneous()
        degrees = [deg for deg, _ in Qpoly.homogeneous_components()]
        for N in range(3):
            for i in range(1, n + 1):
                sums = list(_face_sums(Ppoly, Qpoly, N, d, i))
                assert sums
                for ci, a, _, _, groups in sums:
                    assert a > N
                    assert groups and all(sum(m) == d * N + degrees[ci] + n for m in groups)


class TestPeriod:
    def test_negative_alpha_rejected(self):
        # alpha = (-1, 0) used to fail only inside factorial
        with pytest.raises(ValueError, match=r"alpha \(-1, 0\) has a negative entry"):
            period_K(P("x1^2 + x2^2"), MPoly.one(2), 0, (-1, 0), [(0, 0), (0, 0, 0)],
                     (0, 0), 1)

    def test_negative_multiplicity_rejected(self):
        # u_1 = (2, -1) used to fail only inside factorial
        with pytest.raises(ValueError, match="row 1 of u has the negative entry -1 at position 2"):
            period_K(P("x1^2 + x2^2"), MPoly.one(2), 0, (1, 0), [(2, -1), (0, 0, 0)],
                     (0, 0), 1)

    def test_negative_beta_rejected(self):
        # beta = (-1, 0) used to integrate x1 Q, printing pi/2
        with pytest.raises(ValueError, match="negative"):
            period_K(P("x1^2 + x2^2"), MPoly.one(2), 0, (1, 0), [(1, 0), (0, 0, 0)],
                     (-1, 0), 1)

    def test_one_dimensional_exact(self):
        # single-variable case: the period is the falling factorial (N)_beta
        Ppoly = P("x1", 1)
        for N in range(5):
            for beta in range(N + 1):
                Q = MPoly(1, {(N,): F(1)})
                alpha = (N + 1 - beta,)
                u = CompositionFamily(n=1, u=((N + 1 - beta,),))
                v = period_K(Ppoly, Q, 0, alpha, u, (beta,), 1, QS)
                assert v.kind == "exact"
                ff = F(1)
                for t in range(beta):
                    ff *= N - t
                assert v.exact == ff

    def test_golden_arctan(self):
        P3 = P("x1^2 + 2 x1 x2 + x2^2 + x3^2", 3)
        Q = P("x1^2 + x1 x2", 3)
        d1 = delta_multiindices(1, 3)
        d2 = delta_multiindices(2, 3)
        u = CompositionFamily(
            n=3,
            u=(
                tuple(1 if g == (1, 0, 0) else 0 for g in d1),
                tuple(1 if g == (2, 0, 0) else 0 for g in d2),
            ),
        )
        v = period_K(P3, Q, 0, (1, 1), u, (2, 0, 0), 3, QS)
        with mp.workdps(40):
            target = 2 * mp.atan(mpf(1) / 2)
            assert abs(v.num.value - target) <= max(v.num.err, mpf(10) ** -12)

    def test_zero_numerator(self):
        v = period_K(P("x1 + x2", 2), MPoly.zero(2), 0, (2,),
                     CompositionFamily(n=2, u=((2, 0),)), (0, 0), 1, QS)
        assert v.kind == "exact" and v.exact == 0

    def test_error_bound_honored_under_refinement(self):
        P3 = P("x1^2 + 2 x1 x2 + x2^2 + x3^2", 3)
        Q = P("x1^2 + x1 x2", 3)
        d1 = delta_multiindices(1, 3)
        d2 = delta_multiindices(2, 3)
        u = CompositionFamily(
            n=3,
            u=(
                tuple(1 if g == (1, 0, 0) else 0 for g in d1),
                tuple(1 if g == (2, 0, 0) else 0 for g in d2),
            ),
        )
        loose = period_K(P3, Q, 0, (1, 1), u, (2, 0, 0), 3,
                         QuadratureSettings(rel_tol=1e-6, precision=25))
        tight = period_K(P3, Q, 0, (1, 1), u, (2, 0, 0), 3,
                         QuadratureSettings(rel_tol=5e-7, precision=25))
        assert abs(loose.num.value - tight.num.value) <= loose.num.err


class TestZValue:
    def test_zeta_zero(self):
        assert Z_value(P("x1", 1), MPoly.one(1), 0) == \
            _exact(F(-1, 2))

    def test_one_var_oracle_grid(self):
        Ppoly = P("x1", 1)
        for total in range(11):
            for N in range(total + 1):
                q = total - N
                Q = MPoly(1, {(q,): F(1)})
                v = Z_value(Ppoly, Q, N)
                assert v.kind == "exact"
                assert v.exact == riemann_zeta_exact_nonpositive(N + q)

    def test_euler_reverse_value(self):
        v = Z_value(P("x1 + x2", 2), MPoly.one(2), 0, QS)
        with mp.workdps(40):
            assert abs(v.num.value - mpf(5) / 12) <= max(v.num.err, mpf(10) ** -11)

    def test_epstein_quadrant_quarter(self):
        # sum over the open quadrant of (m1^2+m2^2)^{-s} at 0 is 1/4
        v = Z_value(P("x1^2 + x2^2", 2), MPoly.one(2), 0, QS)
        with mp.workdps(40):
            assert abs(v.num.value - mpf(1) / 4) <= max(v.num.err, mpf(10) ** -11)

    def test_epstein_octant_values(self):
        # lattice-sum value -1 of any positive quadratic form at 0,
        # decomposed over sign patterns, pins the open-octant sums:
        # 3 variables -> -1/8, 4 variables -> 1/16
        qs = QuadratureSettings(rel_tol=1e-8, precision=22)
        v3 = Z_value(P("x1^2 + x2^2 + x3^2", 3), MPoly.one(3), 0, qs)
        v4 = Z_value(P("x1^2 + x2^2 + x3^2 + x4^2", 4), MPoly.one(4), 0, qs)
        with mp.workdps(30):
            assert abs(v3.num.value + mpf(1) / 8) <= max(v3.num.err, mpf(10) ** -8)
            assert abs(v4.num.value - mpf(1) / 16) <= max(v4.num.err, mpf(10) ** -8)

    def test_zero_Q(self):
        v = Z_value(P("x1 + x2", 2), MPoly.zero(2), 0, QS)
        assert v.kind == "exact" and v.exact == 0

    def test_linearity_in_Q(self):
        Ppoly = P("x1 + x2", 2)
        Q1 = P("x1", 2)
        Q2 = P("x2^2", 2)
        v1 = Z_value(Ppoly, Q1, 0, QS_FAST).to_numeric(20)
        v2 = Z_value(Ppoly, Q2, 0, QS_FAST).to_numeric(20)
        v12 = Z_value(Ppoly, Q1 + Q2, 0, QS_FAST).to_numeric(20)
        # The errs lie far below 53 bits: compare above the values' precision.
        with mp.workdps(40):
            assert abs(v12.value - (v1.value + v2.value)) <= v1.err + v2.err + v12.err

    def test_inhomogeneous_Q_components(self):
        Ppoly = P("x1 + x2", 2)
        Q = P("x1 + 1", 2)
        v = Z_value(Ppoly, Q, 0, QS_FAST).to_numeric(20)
        va = Z_value(Ppoly, P("x1", 2), 0, QS_FAST).to_numeric(20)
        vb = Z_value(Ppoly, MPoly.one(2), 0, QS_FAST).to_numeric(20)
        with mp.workdps(40):
            assert abs(v.value - (va.value + vb.value)) <= v.err + va.err + vb.err

    def test_not_homogeneous(self):
        with pytest.raises(NotHomogeneous):
            Z_value(P("x1 + 1", 1), MPoly.one(1), 0)

    def test_not_elliptic(self):
        with pytest.raises(NotElliptic):
            Z_value(P("x1^2 - 3 x1 x2 + x2^2", 2), MPoly.one(2), 0)

    def test_not_elliptic_inside_a_subdivided_cell(self):
        # face 2 is (x1 - 3/10)^2 - 1/10^4: negative only on (29/100, 31/100),
        # found at a corner of a depth-6 Bernstein cell, mapped back to (0,1)
        Ppoly = MPoly(2, {(2, 0): F(1), (1, 1): F(-3, 5), (0, 2): F(9, 100) - F(1, 10**4)})
        st_, wit, face = certify_elliptic(Ppoly)
        assert (st_, wit, face) == ("violated", (F(19, 64),), 2)
        assert Ppoly.face(2).eval(wit) < 0
        with pytest.raises(NotElliptic) as exc:
            Z_value(Ppoly, MPoly.one(2), 0)
        assert "face 2 non-positive at (19/64)" in str(exc.value)

    def test_not_elliptic_names_the_point(self):
        # face 1 of x1 - x2 is 1 - x2, zero at x2 = 1; face 2 is x1 - 1,
        # negative at x1 = 0
        for call, where in (
            (lambda: Z_value(P("x1 - x2", 2), MPoly.one(2), 0), "face 1 non-positive at (1)"),
            (lambda: period_K(P("x1 - x2", 2), MPoly.one(2), 0, (2,),
                              CompositionFamily(n=2, u=((2, 0),)), (0, 0), 2), "at (0)"),
        ):
            with pytest.raises(NotElliptic) as exc:
                call()
            assert where in str(exc.value)
            assert "Fraction(" not in str(exc.value)


def _exact(x):
    from zetapoly import SpecialValue

    return SpecialValue.make_exact(x)


class TestRaabePipeline:
    def test_one_var_expansion(self):
        Ppoly = P("x1", 1)
        for N in range(6):
            exp = Y_expansion(Ppoly, MPoly.one(1), N)
            assert set(exp.coeffs) == {(N + 1,)}
            coeff = exp.coeffs[(N + 1,)]
            assert coeff.kind == "exact" and coeff.exact == F(-1, N + 1)

    def test_raabe_reproduces_zeta(self):
        Ppoly = P("x1", 1)
        for total in range(8):
            for N in range(total + 1):
                q = total - N
                Q = MPoly(1, {(q,): F(1)})
                v = raabe_substitute(Y_expansion(Ppoly, Q, N))
                assert v.kind == "exact"
                assert v.exact == riemann_zeta_exact_nonpositive(N + q)

    def test_empty_expansion(self):
        from zetapoly.mahler import YExpansion

        v = raabe_substitute(YExpansion(n=1, coeffs={}))
        assert v.kind == "exact" and v.exact == 0

    def test_degree_bound(self):
        exp = Y_expansion(P("x1^2 + x2^2", 2), MPoly.one(2), 0, QS_FAST)
        assert all(sum(m) <= 4 for m in exp.coeffs)

    def test_raabe_matches_Z_small_cases(self):
        cases = [
            (P("x1", 1), MPoly.one(1), 0),
            (P("x1", 1), P("x1^2", 1), 1),
            (P("x1 + x2", 2), MPoly.one(2), 0),
            (P("x1^2 + x2^2", 2), MPoly.one(2), 0),
            (P("x1 + x2", 2), P("x1", 2), 1),
        ]
        for Ppoly, Q, N in cases:
            z = Z_value(Ppoly, Q, N, QS_FAST)
            r = raabe_substitute(Y_expansion(Ppoly, Q, N, QS_FAST))
            if z.kind == "exact":
                assert r.kind == "exact" and r.exact == z.exact
            else:
                zn, rn = z.to_numeric(20), r.to_numeric(20)
                assert abs(zn.value - rn.value) <= zn.err + rn.err

    @pytest.mark.parametrize("dps", [30, 50])
    def test_raabe_rounds_at_the_working_precision(self, dps):
        # Z(x1 + 2 x2 + 3 x3, 1; -1) = -229/1440: every face is affine, so
        # each coefficient is exact to rounding, and the substitution must
        # round at precision + 10 digits, not at mpmath's ambient 15.
        qs = QuadratureSettings(rel_tol=1e-12, precision=dps)
        v = raabe_substitute(Y_expansion(P("x1 + 2 x2 + 3 x3", 3), MPoly.one(3), 1, qs))
        with mp.workdps(dps + 40):
            truth = mpf(-229) / 1440
            assert abs(v.num.value - truth) <= v.num.err
            assert v.num.err <= mpf(2) ** (8 - dps_to_prec(dps + 10)) * max(1, abs(truth))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        c=st.fractions(min_value=F(1, 8), max_value=F(8), max_denominator=8),
        qcoeffs=st.lists(st.fractions(min_value=F(-3), max_value=F(3), max_denominator=5),
                         min_size=1, max_size=5),
        N=st.integers(0, 3),
    )
    def test_raabe_equals_Z_one_variable(self, c, qcoeffs, N):
        # P = c x1: both routes are exact, so they must agree exactly.
        Ppoly = MPoly(1, {(1,): c})
        Q = MPoly(1, {(k,): a for k, a in enumerate(qcoeffs)})
        z = Z_value(Ppoly, Q, N)
        assert z.kind == "exact"
        assert raabe_substitute(Y_expansion(Ppoly, Q, N)) == z


def _within_errs(a, b):
    """|a - b| <= err(a) + err(b) for two SpecialValues."""
    an, bn = a.to_numeric(30), b.to_numeric(30)
    return abs(an.value - bn.value) <= an.err + bn.err


class TestProperties:
    """Derandomized properties of Z(P, Q; -N) on two-variable elliptic forms,
    each checked within the sum of the errs of the two sides."""

    forms = st.sampled_from(
        ["x1 + x2", "2 x1 + x2", "x1^2 + x2^2", "x1^2 + x1 x2 + x2^2"]
    ).map(lambda t: P(t, 2))
    coeffs = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=4)
    qpolys = st.lists(
        st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 1)), coeffs),
        min_size=1, max_size=3,
    ).map(lambda ts: MPoly(2, dict(ts)))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(forms, qpolys, qpolys, coeffs, coeffs, st.integers(0, 1))
    def test_linear_in_Q(self, Ppoly, Q1, Q2, a, b, N):
        lhs = Z_value(Ppoly, Q1.scale(a) + Q2.scale(b), N, QS_FAST)
        rhs = Z_value(Ppoly, Q1, N, QS_FAST).scale(a) + Z_value(Ppoly, Q2, N, QS_FAST).scale(b)
        assert _within_errs(lhs, rhs)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(forms, qpolys, st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=4),
           st.integers(0, 2))
    def test_scaling_P(self, Ppoly, Q, c, N):
        # Z(cP, Q; -N) = c^N Z(P, Q; -N)
        lhs = Z_value(Ppoly.scale(c), Q, N, QS_FAST)
        assert _within_errs(lhs, Z_value(Ppoly, Q, N, QS_FAST).scale(c**N))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(forms, qpolys, st.integers(0, 1))
    def test_raabe_equals_Z_two_variables(self, Ppoly, Q, N):
        z = Z_value(Ppoly, Q, N, QS_FAST)
        assert _within_errs(raabe_substitute(Y_expansion(Ppoly, Q, N, QS_FAST)), z)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(forms, qpolys, st.integers(0, 1))
    def test_permuting_variables(self, Ppoly, Q, N):
        # Z(P o s, Q o s; -N) = Z(P, Q; -N) for the swap s of x1 and x2
        def swap(p):
            return MPoly(2, {e[::-1]: c for e, c in p.terms.items()})

        z = Z_value(Ppoly, Q, N, QS_FAST)
        assert _within_errs(Z_value(swap(Ppoly), swap(Q), N, QS_FAST), z)


class TestYExpansionBitIdentity:
    """(value._mpf_, err._mpf_) of every coefficient, recorded when the
    (m, face) groups became one per (component, a), c_a [t^m] of
    (P(x + t) - P(x))^a Q_c(x + t); the sums round at precision + 10 digits.
    Each is within err of the same expansion through the fixed-point
    quadrature alone."""

    def test_two_variable_coefficients(self, monkeypatch):
        args = (P("x1^2 + x1 x2 + x2^2", 2), P("x1", 2), 1)
        exp = Y_expansion(*args, QS_FAST)
        got = {m: (v.num.value._mpf_, v.num.err._mpf_) for m, v in exp.items_sorted()}
        assert got == {
            (0, 5): ((0, 338040160060861173732454188099, -105, 99),
                     (0, 1118781882899400224539406414538297981, -219, 120)),
            (1, 4): ((0, 0, 0, 0),
                     (0, 466702306854064926499424811418753733, -157, 119)),
            (2, 3): ((0, 1690200800304305868662270940503, -103, 101),
                     (0, 933404613708129853311107657132997797, -157, 120)),
            (3, 2): ((0, 3380401600608611737324541881001, -104, 102),
                     (0, 700053460281097389526955962836929461, -156, 120)),
            (4, 1): ((0, 20282409603651670423947251286015, -106, 104),
                     (0, 933404613708129852750647761586712173, -157, 120)),
            (5, 0): ((0, 6760803201217223474649083762005, -106, 103),
                     (0, 933404613708129852294261497785780959, -158, 120)),
        }
        monkeypatch.setattr(_quadrature, "_reduction", lambda den: None)
        ref = Y_expansion(*args, QuadratureSettings(rel_tol=1e-12, precision=30))
        assert ref.coeffs.keys() == exp.coeffs.keys()
        with mp.workdps(50):
            for m, v in exp.items_sorted():
                r = ref.coeffs[m].num
                assert abs(v.num.value - r.value) <= v.num.err + r.err


class TestThetaSeriesCrossChecks:
    """Golden values derived independently from theta-function asymptotics:
    the value at 0 is the constant term of the small-t expansion of the
    product of one-variable theta sums."""

    def test_three_fold_linear(self):
        # g(t) = 1/t - 1/2 + t/12 - ...; const term of g^3 is -3/8
        v = Z_value(P("x1 + x2 + x3", 3), MPoly.one(3), 0, QS)
        with mp.workdps(40):
            assert abs(v.num.value - mpf(-3) / 8) <= max(v.num.err, mpf(10) ** -10)

    def test_weighted_double(self):
        # theta weight sum m1 e^{-t(m1+m2)}: const term of (-g') g is 1/24
        v = Z_value(P("x1 + x2", 2), P("x1", 2), 0, QS)
        with mp.workdps(40):
            assert abs(v.num.value - mpf(1) / 24) <= max(v.num.err, mpf(10) ** -10)


def _diagonal(n, d, c):
    return MPoly(n, {tuple(d * (i == j) for i in range(n)): F(c) for j in range(n)})


class TestThetaDiagonal:
    """theta_diagonal is the theta-series closed form for diagonal P: an
    independent truth for Z_value, whose err must cover the distance."""

    QS = QuadratureSettings(rel_tol=1e-8, precision=20)

    # (n, d, a, N, c): Q = x^a in {1, x1, x1^2 x2, x1 x2}.
    CORPUS = [
        (4, 3, 0, 0, 1),
        (2, 2, (1, 0), 0, 1),
        (3, 3, 0, 0, 1),
        (2, 4, 0, 1, 1),
        (2, 2, (2, 1), 1, F(1, 2)),
        (3, 2, (1, 0, 0), 0, 2),
        (3, 2, (2, 1, 0), 0, 1),
        (3, 2, (1, 1, 0), 1, 1),
        (2, 3, (1, 1), 2, 2),
    ]

    def test_criterion_9_is_one_call(self):
        v = theta_diagonal(4, 3, 0, 0, 1)
        assert v == SpecialValue.make_mixed(
            F(1, 16), [(F(-1, 810), ConstantProduct((F(1, 3),) * 3))])

    def test_known_rationals(self):
        assert theta_diagonal(2, 2, (1, 0), 0, 1) == _exact(F(1, 24))
        assert theta_diagonal(3, 3, 0, 0, 1) == _exact(F(-1, 8))
        assert theta_diagonal(2, 4, 0, 1, 1) == _exact(F(0))
        assert theta_diagonal(3, 1, 0, 0, 1) == _exact(F(-3, 8))

    @pytest.mark.parametrize("N", [0, 1, 2])
    @pytest.mark.parametrize("a", [0, 1, 3])
    def test_one_variable_is_exact_Z(self, a, N):
        # Z(c x^d, x^a; -N) = c^N zeta(-a - dN), exactly on both routes.
        Q = MPoly(1, {(a,): F(1)})
        assert theta_diagonal(1, 2, a, N, F(3)) == Z_value(_diagonal(1, 2, 3), Q, N)

    @pytest.mark.parametrize("n, d, a, N, c", CORPUS)
    def test_Z_value_within_err(self, n, d, a, N, c):
        av = (a,) * n if isinstance(a, int) else a
        qs = self.QS if (n, d) != (4, 3) else QuadratureSettings(rel_tol=1e-6, precision=20)
        z = Z_value(_diagonal(n, d, c), MPoly(n, {av: F(1)}), N, qs)
        truth = theta_diagonal(n, d, a, N, c).to_numeric(30)
        with mp.workdps(40):
            assert abs(z.num.value - truth.value) <= z.num.err + truth.err

    def test_float_N_rejected(self):
        # DECISIONS.md D9: N = 1.0 used to raise a TypeError from the series.
        with pytest.raises(ValueError, match=r"N >= 0, got n=2, d=2, N=1\.0"):
            theta_diagonal(2, 2, 0, 1.0)


class TestScaledThetaDiagonal:
    """theta_diagonal with one scale c_i = k_i^d per variable: truths for P
    that no coordinate permutation fixes, so every face has its own Pf."""

    QS = QuadratureSettings(rel_tol=1e-8, precision=20)
    cases = st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.integers(1, 4),
        st.lists(st.integers(0, 2), min_size=n, max_size=n),
        st.lists(st.sampled_from([F(1), F(2), F(3), F(1, 2)]), min_size=n, max_size=n),
        st.integers(0, 2),
    ))

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(cases)
    def test_Z_value_within_err(self, case):
        d, a, k, N = case
        n = len(a)
        c = [x**d for x in k]
        Pd = MPoly(n, {tuple(d * (i == j) for i in range(n)): c[j] for j in range(n)})
        z = Z_value(Pd, MPoly(n, {tuple(a): F(1)}), N, self.QS).to_numeric(30)
        truth = theta_diagonal(n, d, a, N, c).to_numeric(30)
        with mp.workdps(40):
            assert abs(z.value - truth.value) <= z.err + truth.err

    @pytest.mark.parametrize("d, a, k, N", [
        (2, (1, 0), (1, 2), 1),  # -1/240
        (3, (0, 1), (1, 2), 1),
        (2, (1, 2), (1, 2), 2),  # 0
    ])
    def test_raabe_within_err(self, d, a, k, N):
        # the Raabe route against Z_value and against the theta truth
        n = len(a)
        c = [F(x)**d for x in k]
        Pd = MPoly(n, {tuple(d * (i == j) for i in range(n)): c[j] for j in range(n)})
        Q = MPoly(n, {a: F(1)})
        z = Z_value(Pd, Q, N, self.QS).to_numeric(30)
        y = raabe_substitute(Y_expansion(Pd, Q, N, self.QS)).to_numeric(30)
        truth = theta_diagonal(n, d, a, N, c).to_numeric(30)
        with mp.workdps(40):
            assert abs(y.value - z.value) <= z.err + y.err
            assert abs(y.value - truth.value) <= y.err + truth.err

    def test_one_scale_is_every_scale(self):
        assert theta_diagonal(2, 2, (2, 1), 1, F(1, 2)) == \
            theta_diagonal(2, 2, (2, 1), 1, [F(1, 2)] * 2)

    def test_known_value(self):
        # Z(x1^2 + 4 x2^2, x1; -1) = -1/240
        assert theta_diagonal(2, 2, (1, 0), 1, [1, 4]) == _exact(F(-1, 240))

    def test_irrational_root_raises(self):
        # J = {1, 2} reaches t^0 with the factor (c_1 c_2)^(-1/2) = 2^(-1/2).
        with pytest.raises(ValueError, match="no rational 2-th root"):
            theta_diagonal(2, 2, 0, 0, [2, 1])


class TestUnverifiedPositivity:
    def _hard_poly(self):
        # face 2 is (y - 1/3)^2 + 1e-8: positive, but the minimum sits off
        # the dyadic grid so the default subdivision depth cannot certify it
        eps = F(1, 10**8)
        return MPoly(2, {(2, 0): F(1), (1, 1): F(-2, 3), (0, 2): F(1, 9) + eps})

    def test_flag_carried_on_result(self):
        v = Z_value(self._hard_poly(), MPoly.one(2), 0, QS_FAST)
        assert "positivity_unverified" in v.flags
        assert v.kind == "numeric"

    def test_deeper_subdivision_certifies(self):
        from zetapoly import multipoly

        face = self._hard_poly().face(2)
        assert multipoly._bernstein(face, 6)[0] == "sampled_only"
        assert multipoly._bernstein(face, 16)[0] == "certified"

    def test_period_flags_uncertified_face(self):
        u = CompositionFamily(n=2, u=((2, 0),))
        v = period_K(self._hard_poly(), MPoly.one(2), 0, (2,), u, (0, 0), 2, QS_FAST)
        assert v.flags == ("positivity_unverified",)
        assert v.kind == "numeric"

    def test_family_flags_uncertified_ellipticity(self):
        from zetapoly import build_family

        fam = build_family([MPoly.parse("x1"), self._hard_poly()])
        assert fam.flags == ("ellipticity_unverified", "hypotheses_unverified:P2")


class TestQVariableCount:
    """A Q whose variable count is not P's is rejected by every entry point,
    naming both counts, before any face is certified or built."""

    ENTRIES = {
        "Z_value": lambda P, Q: Z_value(P, Q, 1, QS_FAST),
        "Z_breakdown": lambda P, Q: Z_breakdown(P, Q, 1, QS_FAST),
        "Y_expansion": lambda P, Q: Y_expansion(P, Q, 1, QS_FAST),
        "period_K": lambda P, Q: period_K(P, Q, 1, (1,), ((1, 0),), (0, 0), 1, QS_FAST),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("m", [1, 3])
    def test_rejected_before_face_work(self, monkeypatch, entry, m):
        for name in ("bernstein_positive", "certify_elliptic", "_face_orbits", "_face_sums"):
            monkeypatch.setattr(mahler, name, lambda *a, name=name: pytest.fail(name))
        with pytest.raises(DimensionMismatch, match=f"^Q has {m} variables, P has 2$"):
            self.ENTRIES[entry](P("x1^2 + x1 x2 + x2^2", 2), MPoly.one(m))


class TestNonIntegerN:
    """An N that is not a non-negative int -- a float or a Fraction, even
    one equal to an int -- is rejected by every entry point, naming N,
    before any face is certified or built."""

    ENTRIES = {
        "Z_value": lambda N: Z_value(P("x1^2 + x2^2", 2), MPoly.one(2), N, QS_FAST),
        "Z_breakdown": lambda N: Z_breakdown(P("x1^2 + x2^2", 2), MPoly.one(2), N, QS_FAST),
        "Y_expansion": lambda N: Y_expansion(P("x1^2 + x2^2", 2), MPoly.one(2), N, QS_FAST),
        "period_K": lambda N: period_K(P("x1^2 + x2^2", 2), MPoly.one(2), N, (1,), ((1, 0),),
                                       (0, 0), 1, QS_FAST),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("N", [1.0, F(1), F(1, 2), -1])
    def test_rejected_before_face_work(self, monkeypatch, entry, N):
        for name in ("bernstein_positive", "certify_elliptic", "_face_orbits", "_face_sums"):
            monkeypatch.setattr(mahler, name, lambda *a, name=name: pytest.fail(name))
        message = re.escape(f"N must be a non-negative integer, got {N!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.ENTRIES[entry](N)


class TestQuadratureSettings:
    def test_unreachable_tolerance_fails_fast(self):
        # precision 1 integrates at 11 digits (40 bits): the rounding floor
        # 2^-34 = 5.82e-11 charged per cell caps the reachable rel_tol.
        with pytest.raises(PrecisionUnreachable):
            QuadratureSettings(rel_tol=1e-12, precision=1)
        with pytest.raises(PrecisionUnreachable):
            QuadratureSettings(rel_tol=2.0**-34, precision=1)
        QuadratureSettings(rel_tol=1e-9, precision=1)

    @pytest.mark.parametrize("precision", [0, -5])
    def test_precision_below_one_digit_raises(self, precision):
        # DECISIONS.md D5: precision -5 at rel_tol 1e-3 used to integrate at
        # 5 digits, and Z(x1^2 + x1 x2 + x2^2, 1; -1) came out as 0.0 +- 0.0
        with pytest.raises(ValueError, match="at least 1 digit"):
            QuadratureSettings(rel_tol=1e-3, precision=precision)

    def test_precision_above_the_cap_raises(self):
        # MAX_PRECISION_DPS, the cap of the Gamma and zeta kernels
        with pytest.raises(PrecisionUnreachable, match="above the cap of 4000 digits"):
            QuadratureSettings(precision=4001)
        QuadratureSettings(precision=4000)

    @pytest.mark.parametrize("tol", [{"rel_tol": float("nan")}, {"rel_tol": float("inf")},
                                     {"abs_tol": float("nan")}, {"abs_tol": float("inf")}])
    def test_non_finite_tolerance_raises(self, tol):
        with pytest.raises(ValueError, match="finite"):
            QuadratureSettings(**tol)

    def test_cli_nan_tolerance_fails_fast(self):
        from zetapoly.cli import main

        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(["mahler", "--P", "x1^2 + x2^2 + x3^2", "--N", "0",
                         "--rel-tol", "nan", "--precision", "20"])
        assert time.perf_counter() - t0 < 2
        assert code == 1
        assert json.loads(out.getvalue())["error"]["type"] == "ValueError"


def _reference_rule(order):
    """The order-point Gauss-Legendre rule on [0,1] by Newton in mpf from
    the Chebyshev estimate, every root on its own: gauss_legendre_01 before
    it ran Newton in fixed point on half the roots."""
    with mp.extradps(10):
        nodes, weights = [], []
        for i in range(1, order + 1):
            x = mp.cos(mp.pi * (i - mpf(1) / 4) / (order + mpf(1) / 2))
            for _ in range(100):
                p0, p1 = mpf(1), x
                for k in range(2, order + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = order * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < mpf(10) ** (-(mp.dps - 5)):
                    break
            p0, p1 = mpf(1), x
            for k in range(2, order + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = order * (x * p1 - p0) / (x * x - 1)
            w = 2 / ((1 - x * x) * dp * dp)
            nodes.append((x + 1) / 2)
            weights.append(w / 2)
    idx = sorted(range(order), key=lambda i: nodes[i])
    return [+nodes[i] for i in idx], [+weights[i] for i in idx]


class TestGaussLegendre:
    """_quadrature.gauss_legendre_01, the rule every quadrature runs on."""

    ORDERS = range(1, 21)
    DPS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89)

    @pytest.fixture
    def fresh(self, monkeypatch):
        monkeypatch.setattr(_quadrature, "_GL_CACHE", {})

    def test_rule_bits(self, monkeypatch):
        # The orders and digits the benchmark workloads warm (cube_integral
        # runs at precision + 10 digits), plus 100 and 1000 digits, each
        # rule built afresh.  Recorded from the mpf Newton iteration.
        monkeypatch.setattr(_quadrature, "_GL_CACHE", {})
        h = hashlib.sha256()
        for order in (4, 7, 8, 15):
            for dps in (16, 20, 25, 30, 40, 50, 100, 1000):
                with mp.workdps(dps + 10):
                    nodes, weights = _quadrature.gauss_legendre_01(order)
                h.update(repr([tuple(int(t) for t in x._mpf_) for x in nodes + weights]).encode())
        assert h.hexdigest() == "9eb857543c7596aff1916111645d98b207352fbe9d2ce09189e6ca71b154d508"

    @pytest.mark.parametrize("dps", DPS)
    def test_against_reference(self, fresh, dps):
        with mp.workdps(dps):
            for order in self.ORDERS:
                got, want = _quadrature.gauss_legendre_01(order), _reference_rule(order)
                assert [x._mpf_ for x in got[0] + got[1]] == [x._mpf_ for x in want[0] + want[1]]

    @pytest.mark.parametrize("dps", DPS)
    def test_exact_on_polynomials(self, fresh, dps):
        # Symmetric weights, bit for bit; x^k integrated to 1/(k + 1) for
        # every k <= 2n - 1, and the weights summing to 1, within n 2^(6 - prec).
        with mp.workdps(dps):
            for n in self.ORDERS:
                nodes, weights = _quadrature.gauss_legendre_01(n)
                assert len(nodes) == len(weights) == n
                assert nodes == sorted(nodes) and 0 <= nodes[0] and nodes[-1] <= 1
                assert [w._mpf_ for w in weights] == [w._mpf_ for w in weights[::-1]]
                bound = n * mpf(2) ** (6 - mp.prec)
                for k in range(2 * n):
                    s = mp.fsum(w * x**k for x, w in zip(nodes, weights))
                    assert abs(s - mpf(1) / (k + 1)) <= bound, (n, k)

    @pytest.mark.parametrize("order", [0, -2])
    def test_bad_order_fails_fast(self, fresh, order):
        f = lambda axes: [mpf(1)] * len(axes[0])
        calls = [
            lambda: _quadrature.gauss_legendre_01(order),
            lambda: _quadrature.integrate_unit_cube(f, 1, order=order),
            lambda: _quadrature.integrate_unit_cube(f, 3, order=order),
            lambda: _quadrature.integrate_interval_fixed(lambda x: x, F(0), F(1), order=order),
        ]
        t0 = time.perf_counter()
        for call in calls:
            with pytest.raises(ValueError, match=f"order >= 1, got {order}$"):
                call()
        assert time.perf_counter() - t0 < 0.1
        assert _quadrature._GL_CACHE == {}

    def test_newton_that_misses_its_stop_rule_raises(self, fresh, monkeypatch):
        # A P_n whose Newton step is always 1/n: no iterate ever meets the
        # stop rule, and none is returned as a root.
        monkeypatch.setattr(_quadrature, "_legendre",
                            lambda n, X, F: (X - (X * X >> F) + (1 << F), 1 << F))
        with pytest.raises(QuadratureDidNotConverge, match="in 100 steps"):
            _quadrature.gauss_legendre_01(4)
        assert _quadrature._GL_CACHE == {}


def _terms(p):
    """A polynomial's terms as a kind-2 key spells them."""
    return tuple(sorted(p.terms.items()))


def _evaluated(monkeypatch):
    """(key, qs) of every constant evaluated, in order: constant's memo,
    empty, with each miss recorded; a miss of kind 2 is one quadrature."""
    runs, evaluate = [], _quadrature.constant.__wrapped__

    @functools.lru_cache(maxsize=256)
    def constant(key, qs):
        runs.append((key, qs))
        return evaluate(key, qs)

    monkeypatch.setattr(_quadrature, "constant", constant)
    return runs


class TestCubeIntegral:
    """_quadrature.cube_integral, the one entry for cube integrals of
    numer / den^k: exact for k <= 0 and for no variables, else a bounded
    Numeric."""

    den, numer = P("1 + x1 + x2^2", 2), P("x1 x2 - 3", 2)

    @pytest.mark.parametrize("k", [0, -1, -3])
    def test_polynomial_is_the_exact_moment(self, k):
        v = _quadrature.cube_integral(self.den, self.numer, k, QS_FAST)
        assert v == SpecialValue.make_exact(_quadrature.cube_moment(self.den**-k * self.numer))

    def test_no_variables_is_exact(self):
        v = _quadrature.cube_integral(MPoly(0, {(): F(3)}), MPoly(0, {(): F(5)}), 2, QS_FAST)
        assert v == SpecialValue.make_exact(F(5, 9))

    @pytest.mark.parametrize("den, m", [("1 + x1 x2 + x2^2", 3), ("1 + x1 x2 + x2^2", 1),
                                        ("1 + x1^2", 2), ("1 + x1 + x2", 1)])
    @pytest.mark.parametrize("k", [1, 0])
    def test_variable_counts_must_agree(self, den, m, k):
        # on every route: the quotient's key, D10's masters (which read
        # only the first exponent), D12's logs and the exact moment
        with pytest.raises(DimensionMismatch, match="variable counts differ"):
            _quadrature.cube_integral(P(den), MPoly.one(m), k, QS_FAST)

    def test_quotient_is_bounded_and_cached(self, monkeypatch):
        # int_0^1 dx / (1 + x^2) = pi / 4, one master quadrature, kept in
        # constant's memo: a second call runs none and gives the same bits.
        _quadrature.constant.cache_clear()
        D = P("1 + x1^2", 1)
        v = _quadrature.cube_integral(D, MPoly.one(1), 1, QS_FAST)
        assert v.kind == "numeric" and 0 < v.num.err < mpf(10) ** -8
        with mp.workdps(40):
            assert abs(v.num.value - mp.pi / 4) <= v.num.err
        monkeypatch.setattr(_quadrature, "integrate_unit_cube",
                            lambda *a, **kw: pytest.fail("quadrature"))
        w = _quadrature.cube_integral(D, MPoly.one(1), 1, QS_FAST)
        assert (w.num.value._mpf_, w.num.err._mpf_) == (v.num.value._mpf_, v.num.err._mpf_)

    def test_masters_are_keyed_by_settings(self, monkeypatch):
        # One D under two settings: each runs the masters it uses once, and
        # never takes one computed under the other.
        D, A = P("1 + x1 + x1^3", 1), P("2 - x1^5", 1)
        runs = _evaluated(monkeypatch)
        for qs in (QS_FAST, QS, QS_FAST, QS):
            for k in (1, 2, 3):
                _quadrature.cube_integral(D, A, k, qs)
        # deg D = 3 masters per settings, each run once, each the kind-2
        # key of its own integral
        masters = {(2, 1, _terms(D), (((i,), 1),), 1) for i in range(3)}
        assert len(runs) == 6 and {key for key, _ in runs} == masters
        assert {qs for _, qs in runs} == {QS_FAST, QS}

    def test_memo_is_order_independent(self):
        # Two Z values over the same faces, with the caches cleared before
        # each order, give the same bits in either order.
        zs = [(P("x1^3 + x2^3", 2), P("x1 x2", 2), 1), (P("x1^3 + x2^3", 2), MPoly.one(2), 2)]

        def run(order):
            _quadrature.constant.cache_clear()
            out = {}
            for j in order:
                v = Z_value(*zs[j], QS_FAST).num
                out[j] = (v.value._mpf_, v.err._mpf_)
            return out

        assert run((0, 1)) == run((1, 0))


class TestOneVariableReduction:
    """cube_integral on one variable: int_0^1 A / D^k, D squarefree and
    certified positive, is an exact combination of the masters
    int_0^1 x^i / D, i < deg D, each one quadrature (DECISIONS.md D10).
    cube_integral takes the closed form of D12 first for the D of degree 1
    (TestAffineFaces); their rows are still checked here."""

    DENS = ["1 + x1", "2 - x1", "1 + x1^2", "1 + x1 + x1^2", "2 + x1 - x1^2",
            "1 + x1^3", "1/3 + x1^3", "1 + x1^4", "1 - x1 + 2 x1^2 - x1^3 + x1^4"]

    @staticmethod
    def _corpus():
        # (D, k, A): per D, k = 1, a drawn k, and k = 8 with A of degree 22.
        rng = random.Random(20)
        for d in TestOneVariableReduction.DENS:
            for k, deg in ((1, rng.randint(0, 22)), (rng.randint(2, 7), rng.randint(0, 22)),
                           (8, 22)):
                terms = {(j,): F(rng.randint(-5, 5), rng.randint(1, 4)) for j in range(deg + 1)}
                terms[(deg,)] = F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
                yield P(d, 1), k, MPoly(1, terms)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _truth(D, k, A):
        # (mpmath quad at 60 digits, its error estimate), shared by the tests.
        with mp.workdps(60):
            a, d = ([mpf(c.numerator) / c.denominator
                     for c in (p.terms.get((e,), F(0)) for e in range(p.degree(), -1, -1))]
                    for p in (A, D))
            return mp.quad(lambda x: mp.polyval(a, x) / mp.polyval(d, x) ** k, [0, 1], error=True)

    def test_rows_are_exact(self):
        # r + sum c_i M_i against mpmath, masters and all at 60 digits.
        for D, k, A in self._corpus():
            red = _quadrature._reduction(D)
            assert red is not None
            L, n = combine([(a, red.form(e, k)) for e, a in A.terms.items()])
            truth, terr = self._truth(D, k, A)
            with mp.workdps(60):
                masters = [self._truth(D, 1, MPoly(1, {(i,): F(1)}))[0] for i in range(red.m)]
                terms = [mpf(n.get(None, 0))] + [n.get(key, 0) * M
                                                 for key, M in zip(red.keys[1:], masters)]
                got = mp.fsum(terms) / L
                assert abs(got - truth) <= terr + mpf(10) ** -50 * mp.fsum(map(abs, terms)) / L

    def test_values_within_err(self):
        for D, k, A in self._corpus():
            v = _quadrature.cube_integral(D, A, k, QS)
            truth, terr = self._truth(D, k, A)
            assert v.kind == "numeric"
            with mp.workdps(60):
                assert abs(v.num.value - truth) <= v.num.err + terr

    def test_missed_tolerance_integrates_the_masters_tighter(self, monkeypatch):
        # int_0^1 x^22 / (1 + x^2)^8 = r + c pi/4 = 2.52e-4 with c = 2909907/14336:
        # six digits cancel, so the master's error at rel_tol, scaled by c,
        # misses the period's target; the master is integrated once more,
        # to half that target over |c|, and the reduction meets it.
        D, A, qs = P("1 + x1^2", 1), P("x1^22", 1), QuadratureSettings(rel_tol=1e-25, precision=30)
        runs = _evaluated(monkeypatch)
        v = _quadrature.cube_integral(D, A, 8, qs)
        master = (2, 1, _terms(D), _terms(MPoly.one(1)), 1)
        assert [key for key, _ in runs] == [master] * 2  # no quotient
        assert runs[0][1] == qs and runs[1][1].rel_tol < qs.rel_tol
        truth, terr = self._truth(D, 8, A)
        with mp.workdps(60):
            assert abs(v.num.value - truth) <= v.num.err + terr
            assert v.num.err <= qs.rel_tol * abs(truth)

    def test_missed_tolerance_takes_the_quadrature(self, monkeypatch):
        # The same period at rel_tol 1e-35: the master would have to meet
        # 1e-41, below the rounding floor of 40-digit quadrature, so
        # cube_integral falls back to the quotient quadrature.
        D, A = P("1 + x1^2", 1), P("x1^22", 1)
        qs = QuadratureSettings(rel_tol=1e-35, abs_tol=1e-60, precision=30)
        runs = _evaluated(monkeypatch)
        v = _quadrature.cube_integral(D, A, 8, qs)
        assert runs[-1] == ((2, 1, _terms(D), _terms(A), 8), qs)
        truth, terr = self._truth(D, 8, A)
        with mp.workdps(60):
            assert abs(v.num.value - truth) <= v.num.err + terr
            assert v.num.err <= 2 * qs.rel_tol * abs(truth)

    def test_no_period_falls_back(self, monkeypatch):
        # With the masters integrated tighter where a row cancels, every
        # period of the corpus that reaches the reduction keeps it: no
        # quadrature of its own quotient runs, unless that quotient is a
        # master.
        reaching = [(D, k, A) for D, k, A in self._corpus()
                    if isinstance(_quadrature.reduction(D), _quadrature._Reduction)]
        runs = _evaluated(monkeypatch)
        for D, k, A in reaching:
            _quadrature.cube_integral(D, A, k, QS)
            quotient = (2, 1, _terms(D), _terms(A), k)
            assert quotient in _quadrature.reduction(D).keys or (quotient, QS) not in runs
        assert len(reaching) == 21

    def test_not_squarefree_takes_the_quadrature(self, monkeypatch):
        # The faces of (x1 + x2)^2 are (1 + x)^2; Z((x1 + x2)^2, 1; 0) = Z(x1 + x2, 1; 0) = 5/12.
        # No master: the swap folds the two faces into one integral by
        # quadrature, a constant of kind 2 (DECISIONS.md D21).
        Psq = P("x1^2 + 2 x1 x2 + x2^2", 2)
        assert _quadrature._reduction(Psq.face(1)) is None
        keys, constant = [], _quadrature.constant
        monkeypatch.setattr(_quadrature, "constant",
                            lambda key, qs: keys.append(key) or constant(key, qs))
        v, parts = Z_breakdown(Psq, MPoly.one(2), 0, QS)
        face = tuple(sorted(Psq.face(1).terms.items()))
        assert [(t.key[0], t.key[2]) for t in parts[1:]] == [(2, face)]
        assert keys and all(key == parts[1].key for key in keys)
        with mp.workdps(40):
            assert abs(v.num.value - mpf(5) / 12) <= v.num.err

    def test_one_quadrature_per_master(self, monkeypatch):
        # Every bucket of Z(x1^3 + x1^2 x2 + x1 x2^2 + x2^3, x1 x2; -1) divides
        # by 1 + x + x^2 + x^3 (P is not diagonal, so its value is not one
        # integral over the orthant).  With no reduction, the buckets of the
        # orbit of faces 1 and 2 are one integral, a constant of kind 2
        # (DECISIONS.md D21), and each constant is one quadrature per (key,
        # settings): start with none in the memo, and a second call runs none.
        _quadrature.constant.cache_clear()
        used, calls = set(), [0]
        constant, integrate = _quadrature.constant, _quadrature.integrate_unit_cube

        def recorded(key, qs):
            used.add((key, qs))
            return constant(key, qs)

        def counted(*args, **kwargs):
            calls[0] += 1
            return integrate(*args, **kwargs)

        monkeypatch.setattr(_quadrature, "constant", recorded)
        monkeypatch.setattr(_quadrature, "integrate_unit_cube", counted)
        monkeypatch.setattr(mahler, "reduction", lambda den: None)
        # No memoised exact form in, and none built under the patch kept.
        monkeypatch.setattr(mahler, "_exact_form", mahler._exact_form.__wrapped__)
        args = P("x1^3 + x1^2 x2 + x1 x2^2 + x2^3", 2), P("x1 x2", 2), 1, QS_FAST
        _, parts = Z_breakdown(*args)
        assert [t.key[0] for t in parts[1:]] == [2]
        assert calls[0] == len(used) == 1
        assert Z_breakdown(*args)[1] == parts and calls[0] == len(used)


def linear_form_zeta(a, e, N):
    """Z(a . x, x^e; -N) = (-1)^N N! [t^N] prod_i (-d/du)^e_i 1/(e^u - 1) at
    u = a_i t, exactly: the Barnes zeta value, from the Laurent series
    1/(e^u - 1) = sum_k B_k u^(k-1) / k!, with its own Bernoulli numbers."""
    lows = [-1 - ei for ei in e]  # the lowest power of t in each factor
    B = [F(1)]
    for m in range(1, N - sum(lows) + 1):
        B.append(-sum(comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    series = {0: F(1)}
    for ai, ei, lo in zip(a, e, lows):
        factor = {}
        for k in range(len(B)):
            p = k - 1 - ei  # (-d/du)^e u^(k-1) = (-1)^e (k-1)...(k-e) u^p
            c = B[k] / factorial(k) * F(ai) ** p
            for j in range(ei):
                c *= j + 1 - k
            if c and p <= N - sum(lows) + lo:
                factor[p] = c
        product = {}
        for p1, c1 in series.items():
            for p2, c2 in factor.items():
                product[p1 + p2] = product.get(p1 + p2, 0) + c1 * c2
        series = product
    return (-1) ** N * factorial(N) * series.get(N, F(0))


class TestAffineFaces:
    """cube_integral integrates an affine den, D = c + sum a_j x_j, in
    closed form, a rational plus logs, with no quadrature (DECISIONS.md
    D12); since D17 only cube_integral's own callers reach that route.  Z
    of a linear form, which is diagonal and so taken over the orthant
    (D17), is a Barnes zeta value: rational, and equal to
    linear_form_zeta, which shares no code with the Mahler path."""

    WEIGHTS = [F(1), F(2), F(3), F(1, 2), F(2, 3)]

    @staticmethod
    def _corpus():
        # (a, e, N, qs): n <= 4, Q = 1 or x^e with |e| <= 2, N <= 3.
        rng = random.Random(23)
        for n in (1, 2, 3, 4):
            for _ in range(8):
                a = tuple(rng.choice(TestAffineFaces.WEIGHTS) for _ in range(n))
                e = [0] * n
                for _ in range(rng.choice((0, 1, 2))):
                    e[rng.randrange(n)] += 1
                dps, tol = rng.choice(((20, 1e-8), (30, 1e-12)))
                yield a, tuple(e), rng.randint(0, 3), QuadratureSettings(rel_tol=tol, precision=dps)

    @pytest.fixture
    def no_quadrature(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("an affine face ran a quadrature")

        monkeypatch.setattr(_quadrature, "integrate_unit_cube", refused)

    def test_known_values(self):
        assert linear_form_zeta((1, 1), (0, 0), 0) == F(5, 12)
        assert linear_form_zeta((1, 1), (1, 0), 0) == F(1, 24)
        assert linear_form_zeta((1, 1, 1), (0, 0, 0), 0) == F(-3, 8)
        assert linear_form_zeta((1,), (0,), 1) == F(-1, 12)

    @pytest.mark.parametrize("a, N, truth", [
        ((1, 1, 2, 3), 0, F(637, 1440)), ((1, 2, 3, 5), 1, F(2651, 14400))])
    def test_non_symmetric_forms(self, no_quadrature, a, N, truth):
        assert linear_form_zeta(a, (0,) * 4, N) == truth
        Pa = MPoly(4, {tuple(int(i == j) for i in range(4)): F(c) for j, c in enumerate(a)})
        v = Z_value(Pa, MPoly.one(4), N, QS)
        with mp.workdps(50):
            assert abs(v.num.value - mpf(truth.numerator) / truth.denominator) <= v.num.err

    def test_corpus_within_rounding(self, no_quadrature):
        for a, e, N, qs in self._corpus():
            n = len(a)
            Pa = MPoly(n, {tuple(int(i == j) for i in range(n)): c for j, c in enumerate(a)})
            v = Z_value(Pa, MPoly(n, {e: F(1)}), N, qs)
            truth = linear_form_zeta(a, e, N)
            if v.kind == "exact":  # one variable: the faces have none
                assert n == 1 and v.exact == truth
                continue
            prec = dps_to_prec(qs.precision + 10)
            with mp.workdps(qs.precision + 40):
                t = mpf(truth.numerator) / truth.denominator
                assert abs(v.num.value - t) <= v.num.err
                assert v.num.err <= mpf(2) ** (8 - prec) * max(1, abs(t))

    @staticmethod
    def _quad(den, numer, k):
        # mpmath's quad at 40 digits, with its error estimate
        with mp.workdps(40):
            f = lambda *x: numer.eval_mp(list(x)) / den.eval_mp(list(x)) ** k
            return mp.quad(f, *[[0, 1]] * den.nvars, error=True)

    @pytest.mark.parametrize("den, numer, k, logs", [
        (P("2 - x1 + x2", 2), P("x1 x2", 2), 3, True),
        (MPoly(2, {(0, 0): F(3)}), P("x1^2 + x2", 2), 2, False),
        (P("1 + x1", 1), MPoly.one(1), 1, True),
        (P("1 + x1 + 2 x2", 2), MPoly.one(2), 1, True),
    ])
    def test_branch_against_mpmath(self, no_quadrature, den, numer, k, logs):
        v = _quadrature.cube_integral(den, numer, k, QS)
        truth, terr = self._quad(den, numer, k)
        assert v.kind == "numeric"
        with mp.workdps(40):
            assert abs(v.num.value - truth) <= v.num.err + terr
            assert v.num.err <= mpf(10) ** -35
        keys = {key for e in numer.terms for key in _quadrature._affine(den).form(e, k)[1]}
        assert (keys != {None}) == logs

    def test_cancelling_row_is_exact_to_rounding(self, no_quadrature, monkeypatch):
        # int_0^1 x^22 / (1 + x)^8 = r + c log 2 = 2.04e-4, c = -170544: the
        # one-variable reduction's master missed rel_tol 1e-25 here and fell
        # back to the quadrature; the closed form is exact up to the
        # rounding of r and c log 2.
        monkeypatch.setattr(_quadrature, "_reduction", lambda den: pytest.fail("reduced"))
        D, qs = P("1 + x1", 1), QuadratureSettings(rel_tol=1e-25, precision=30)
        v = _quadrature.cube_integral(D, P("x1^22", 1), 8, qs)
        L, row = _quadrature._affine(D).form((22,), 8)
        assert set(row) == {None, (0, 2)} and F(row[(0, 2)], L) == -170544
        with mp.workdps(60):
            r, c = mpf(row[None]) / L, F(row[(0, 2)], L)
            truth = r + c * mp.log(2)
            assert abs(v.num.value - truth) <= v.num.err
            scale = abs(r) + abs(c) * mp.log(2)
            assert v.num.err <= mpf(2) ** (8 - dps_to_prec(qs.precision + 10)) * scale


class TestOneFormPerValue:
    """Z_breakdown adds the rows of every bucket on a one-variable face, or
    of a diagonal P over the orthant, into one form per Z value,
    and evaluates only the constants left (DECISIONS.md D16, D17).  On binary P the buckets cancelled
    in floating point, each within its own tolerance; now they cancel
    exactly, no constant is left, and the value is its rational rounded
    once."""

    # (P, Q, N, rel_tol, precision, the rational): the binary quartic that
    # missed its tolerance by 0.0474 and 5.7e6 at N = 3 and 5 (its N = 5
    # rational was checked against the bucket-by-bucket route at rel_tol
    # 1e-25 and 50 digits: -1731.4528135447372013621 +- 3.7e-10), and the
    # binary rows of ROADMAP items 14 and 16.
    CASES = [
        ("x1^4 + x1 x2^3 + x2^4", "x1 x2", 3, 1e-8, 20, F(-416976061, 3920716800)),
        ("x1^4 + x1 x2^3 + x2^4", "x1 x2", 5, 1e-8, 20,
         F(-1214818724067987349, 701618152435200)),
        ("x1^4 + x1 x2^3 + x2^4", "x1 x2", 3, 1e-12, 30, F(-416976061, 3920716800)),
        ("x1^4 + x2^4", "1", 4, 1e-12, 30, F(0)),
        ("x1^2 + x1 x2 + x2^2", "1", 2, 1e-12, 30, F(0)),
        ("x1^2 + x1 x2 + x2^2", "x1", 0, 1e-12, 30, F(1, 24)),
        ("3 x1^2 + x1 x2 + 2 x2^2", "1", 1, 1e-12, 30, F(-19, 10368)),
        ("x1^2 + x2^2", "x1", 1, 1e-12, 30, F(-1, 240)),
        ("x1^3 + x2^3", "1", 0, 1e-12, 30, F(1, 4)),
        ("x1^4 + 2 x1 x2^3 + 3 x2^4", "x1 x2", 1, 1e-12, 30, F(-206, 382725)),
        ("2 x1^3 + x1^2 x2 + 5 x2^3", "x2^2", 2, 1e-12, 30, F(214987, 6652800)),
    ]

    @pytest.mark.parametrize("p, q, N, tol, dps, truth", CASES)
    def test_rational_within_err_and_tolerance(self, p, q, N, tol, dps, truth):
        qs = QuadratureSettings(rel_tol=tol, precision=dps)
        z, parts = Z_breakdown(P(p, 2), P(q, 2), N, qs)
        assert parts == [ZMaster(None, truth, None)]
        with mp.workdps(dps + 40):
            t = mpf(truth.numerator) / truth.denominator
            assert abs(z.num.value - t) <= z.num.err <= qs.abs_tol + qs.rel_tol * abs(z.num.value)

    def test_trivial_zero_is_zero(self):
        # Z(x1^4 + x2^4, 1; -4) = 0, where each bucket left 1.0e-3 of err
        z = Z_value(P("x1^4 + x2^4"), MPoly.one(2), 4, QS)
        assert z.kind == "numeric" and z.num.value == 0 and z.num.err == 0



class TestReducedRows:
    """Z_breakdown sends each reduced bucket's int form (L, {e: int}),
    scaled by its orbit, straight into the rows of the value's one
    ``_form_sum``: no bucket on an affine or one-variable face, nor of a
    diagonal P, becomes an MPoly.  Its form is evaluated whenever such a bucket is
    nonzero, even if the rows then cancel, so an antisymmetric Q keeps its
    one rational term 0 and stays numeric 0 +- 0."""

    @pytest.mark.parametrize("p, q, N", [
        ("x1^2 + x2^2", "x1 - x2", 1),
        ("x1 + x2", "x1 - x2", 0),
        ("x1^3 + x2^3", "x1^2 - x2^2", 1),
    ])
    def test_cancelling_rows_stay_numeric_zero(self, p, q, N):
        z, parts = Z_breakdown(P(p, 2), P(q, 2), N, QS)
        assert parts == [ZMaster(None, F(0), None)]
        assert z.kind == "numeric" and z.num.value == 0 and z.num.err == 0

    @pytest.mark.parametrize("p, q, N, n, truth", [
        ("x1 + 2 x2 + 3 x3", "x1", 2, 3, F(-163, 18144)),
        ("x1^2 + x1 x2 + 3 x2^2", "x2", 1, 2, F(-1, 80)),
    ])
    def test_reduced_buckets_build_no_mpoly(self, monkeypatch, p, q, N, n, truth):
        Pp, Qp = P(p, n), P(q, n)
        built = []
        over = MPoly.__dict__["_over"].__func__
        monkeypatch.setattr(MPoly, "_over",
                            classmethod(lambda cls, *a: built.append(a) or over(cls, *a)))
        z, parts = Z_breakdown(Pp, Qp, N, QS)
        assert built == []
        assert parts == [ZMaster(None, truth, None)]
        assert z.kind == "numeric" and z.num.value == mpf_from(truth, QS)

class TestFormRouteCorpus:
    """The one form per Z value against the quadrature of each face's
    buckets merged into one integral (DECISIONS.md D21), over a drawn
    corpus: binary P of degree <= 4 with distinct coefficients (no swap
    fixes them), monomial Q of degree <= 2 and N <= 4, and linear forms of
    2 and 3 variables with distinct weights, whose value is one Dirichlet
    integral over the orthant (D17).  The reference integrates each face
    by the fixed-point quadrature: mahler.reduction, mahler.dirichlet and
    cube_integral's reduction all give None, so it shares no row with the
    form route."""

    @staticmethod
    def _corpus():
        rng = random.Random(29)
        for n, d in [(2, rng.randint(2, 4)) for _ in range(10)] + [(2, 1)] * 3 + [(3, 1)] * 3:
            Q = MPoly(n, {rng.choice(delta_multiindices(rng.randint(0, 2), n)): F(1)})
            yield _drawn_non_diagonal(rng, n, d), Q, rng.randint(0, 4 if d > 1 else 3)

    def test_form_route_within_errs_of_bucket_route(self, monkeypatch):
        for Pp, Qp, N in self._corpus():
            assert _face_orbits(Pp, Qp) == [(i,) for i in range(1, Pp.nvars + 1)]
            z, parts = Z_breakdown(Pp, Qp, N, QS_FAST)
            # every value of the corpus is rational: no constant is left
            assert [b.key for b in parts] == [None], (Pp, Qp, N)
            with monkeypatch.context() as m:
                for mod in (mahler, _quadrature):
                    m.setattr(mod, "reduction", lambda den: None)
                m.setattr(mahler, "dirichlet", lambda P: None)
                # No memoised exact form in, and none built under the patch kept.
                m.setattr(mahler, "_exact_form", mahler._exact_form.__wrapped__)
                ref, ref_parts = Z_breakdown(Pp, Qp, N, QS_FAST)
            # the reference is one quadrature per face, its buckets merged (D21)
            assert ref_parts[1:] and all(t.key[0] == 2 for t in ref_parts[1:])
            with mp.workdps(40):
                assert abs(z.num.value - ref.num.value) <= z.num.err + ref.num.err, (Pp, Qp, N)


class TestCubeQuadratureTotals:
    def test_cancelling_cells_keep_their_signs(self):
        # 1/(1 + 100 (x - 1/3)^2) less its mean integrates to 0 and needs
        # splits, so only abs_tol, raised to 4 rounding floors of the
        # absolute mass, can stop the loop: err ends near 1e-20.  Totals
        # that dropped the cells' signs would read the absolute mass and
        # stop on rel_tol, with err near 1e-10.
        calls = [0]

        def f(axes):
            calls[0] += 1
            return [1 / (1 + 100 * (x - mpf(1) / 3) ** 2) - mean for x in axes[0]]

        with mp.workdps(20):
            mean = (mp.atan(mpf(20) / 3) + mp.atan(mpf(10) / 3)) / 10
            value, err = _quadrature.integrate_unit_cube(f, 1, rel_tol=1e-8, abs_tol=1e-40)
        assert calls[0] > 2  # two rules on more than one cell
        assert abs(value) <= err <= 1e-18

    def test_target_below_the_rounding_is_met(self):
        # abs_tol 1e-40 lies below what 20-digit cells can reach; raised to
        # 4 rounding floors of the absolute mass it is met on the first
        # cell, where it ran 4,000 cells and raised QuadratureDidNotConverge.
        t0 = time.perf_counter()
        with mp.workdps(20):
            value, err = _quadrature.integrate_unit_cube(
                lambda axes: [x - mpf(1) / 2 for x in axes[0]], 1, rel_tol=1e-8, abs_tol=1e-40)
        assert time.perf_counter() - t0 < 0.5
        assert abs(value) <= err <= 1e-19


class TestZeroBucket:
    """A face integral whose value is 0 stops on abs_tol + rel_tol *
    |integral|, like any other integral of the sum, and the faces that
    cancel by a symmetry share a key and cancel exactly (DECISIONS.md
    D7, D21)."""

    P3 = "x1^2 + 2 x1 x2 + x2^2 + x3^2"
    Q3 = "x2^2 x3^2 - x1^2 x3^2"

    def test_Z_value_returns_within_err(self):
        # Z is odd under x1 <-> x2, which fixes P: its value is 0, the
        # integrals of faces 1 and 2 cancel in the form, and face 3's is 0,
        # odd over the even face (x1 + x2)^2 + 1.
        t0 = time.perf_counter()
        v = Z_value(P(self.P3, 3), P(self.Q3, 3), 1, QS_FAST)
        assert time.perf_counter() - t0 < 5
        assert abs(v.num.value) <= v.num.err

    def test_cli_exits_0(self):
        from zetapoly.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["mahler", "--P", self.P3, "--Q", self.Q3, "--N", "1",
                         "--rel-tol", "1e-8", "--precision", "20"])
        assert code == 0
        assert json.loads(out.getvalue())["kind"] == "numeric"


class TestFaceIntegrals:
    """A face that no reduction writes out is one integral per orbit, a
    constant of the form keyed by what it is (DECISIONS.md D21): its
    numerator, each term's exponents sorted within each block of the swaps
    that fix the face, over the face's largest power K, scaled to a leading
    coefficient of 1."""

    def test_key_names_the_integral(self):
        # P = x1^2 + x1 x2 + x2^2 + x3^2, Q = 1: face 3, 1 + x1^2 + x1 x2 +
        # x2^2, is fixed by x1 <-> x2, so each term of its numerator has
        # its exponents in order; the integrals and the form's coefficients
        # sum to Z within their errs.
        Pp = P("x1^2 + x1 x2 + x2^2 + x3^2", 3)
        z, parts = Z_breakdown(Pp, MPoly.one(3), 1, QS_FAST)
        assert parts[0] == ZMaster(None, F(0), None)
        for t in parts[1:]:
            kind, r, face, numer, K = t.key
            assert (kind, r, K) == (2, 2, 4) and dict(face) in (Pp.face(1).terms, Pp.face(3).terms)
            assert numer == tuple(sorted(numer)) and numer[-1][1] == 1
            A = MPoly(2, dict(numer))
            if dict(face) == Pp.face(3).terms:
                assert all(x <= y for x, y in A.terms)
        with mp.workdps(40):
            total = sum(t.coeff * t.value.value for t in parts[1:])
            assert abs(total - z.num.value) <= z.num.err

    @pytest.mark.parametrize("q", ["x1 - x2", "x1 x3 - x2 x3"])
    def test_odd_numerator_is_exactly_zero(self, q):
        # Q is odd under x1 <-> x2, which fixes P: faces 1 and 2 give
        # opposite integrals, which cancel, and face 3's numerator is odd
        # over the even face, so it averages to 0.  The buckets' quadrature
        # left about 1e-10 of err; the merged integral of face 3 alone, to
        # 1e-30 at 30 digits, did not converge.
        z, parts = Z_breakdown(P("x1^2 + x1 x2 + x2^2 + x3^2", 3), P(q, 3), 1, QS_FAST)
        assert parts == [ZMaster(None, F(0), None)]
        assert z.kind == "numeric" and z.num.value == 0 and z.num.err == 0

    def test_budget_below_the_rounding_returns_the_first_pass(self, monkeypatch):
        # Z(x1^2 + x1 x2 + x2^2 + x3^2, 1; -1) = 0, so at 20 digits its
        # budget is about abs_tol 1e-30, below the rounding floor of its two
        # face integrals (about 1e-28 of each): one quadrature each, at the
        # requested settings, and the first pass is returned.  Refining both
        # to their floor took 0.9 s and still missed 1e-30.
        runs = _evaluated(monkeypatch)
        t0 = time.perf_counter()
        z, parts = Z_breakdown(P("x1^2 + x1 x2 + x2^2 + x3^2", 3), MPoly.one(3), 1, QS_FAST)
        assert time.perf_counter() - t0 < 0.5
        assert [qs for _, qs in runs] == [QS_FAST] * 2 and len(parts) == 3
        assert abs(z.num.value) <= z.num.err <= 1e-9

    def test_zero_integral_asks_for_no_less_than_its_rounding(self):
        # Z((x1^2 + x2^2)^2, 1; -1) = Z(x1^2 + x2^2, 1; -2) = 0: the face
        # (1 + x^2)^2 is not squarefree, and its one integral is 0.  Its
        # quadrature is asked for abs_tol raised to 4 rounding floors of its
        # absolute mass, which it meets; at abs_tol 1e-30 and 30 digits it
        # ran 4,000 cells and raised QuadratureDidNotConverge.
        z, parts = Z_breakdown(P("x1^4 + 2 x1^2 x2^2 + x2^4", 2), MPoly.one(2), 1, QS_FAST)
        assert [t.key[0] for t in parts[1:]] == [2]
        assert abs(z.num.value) <= z.num.err <= 1e-29


class TestFaceOrbits:
    """Z_breakdown folds the faces of a non-diagonal P into the orbits of
    the coordinate swaps that fix P and Q (DECISIONS.md D13): it builds and
    integrates only each orbit's least face and scales the values by the
    orbit's size.  A diagonal P takes no orbit (D17); its entries here are
    checked against the Raabe route."""

    # (P, Q, N, qs), each P fixed by some swap of its coordinates: Epstein
    # forms, criterion 9, linear forms with Q = P^q, a scaled hexagonal form,
    # a P whose swaps fix only x1 <-> x2, and non-diagonal forms whose faces
    # are one-variable and reduced, or two-variable and integrated, in one
    # orbit or in two.
    CORPUS = [
        *[(_diagonal(n, 2, 1), MPoly.one(n), 0, QS6) for n in (2, 3, 4)],
        (_diagonal(4, 3, 1), MPoly.one(4), 0, QS6),
        *[(_diagonal(n, 1, 1), _diagonal(n, 1, 1) ** q, N, QS)
          for n in (2, 3) for q in (0, 1, 2) for N in (0, 1)],
        (P("3/2 x1^2 + 3/2 x1 x2 + 3/2 x2^2", 2), MPoly.one(2), 1, QS_FAST),
        (P("x1^2 + x2^2 + 2 x3^2", 3), MPoly.one(3), 0, QS_FAST),
        (P("x1^2 + x2^2 + 2 x3^2", 3), P("x3", 3), 1, QS_FAST),
        (P("x1^4 + x1^3 x2 + x1 x2^3 + x2^4", 2), P("x1 x2", 2), 1, QS_FAST),
        (P("x1^2 + x2^2 + x3^2 + x1 x2 + x1 x3 + x2 x3", 3), MPoly.one(3), 0, QS_FAST),
        (P("x1^2 + x2^2 + x3^2 + x1 x2 + x1 x3 + x2 x3", 3), P("x3", 3), 1, QS_FAST),
    ]

    @pytest.fixture
    def unfolded(self, monkeypatch):
        """Z_breakdown with every face its own orbit, as before the fold; a
        face integral keeps the swaps of its own face (DECISIONS.md D21)."""
        orbits = mahler._face_orbits

        def run(*args):
            with monkeypatch.context() as m:
                m.setattr(mahler, "_face_orbits", lambda P, Q: orbits(P, Q) if P is Q
                          else [(i,) for i in range(1, P.nvars + 1)])
                # No memoised exact form in, and none built under the patch kept.
                m.setattr(mahler, "_exact_form", mahler._exact_form.__wrapped__)
                return Z_breakdown(*args)
        return run

    @pytest.mark.parametrize("p, q, orbits", [
        ("x1 + x2", "1", [(1, 2)]),
        ("x1^2 + x2^2 + 2 x3^2", "1", [(1, 2), (3,)]),
        ("x1^2 + x2^2 + 2 x3^2", "x3", [(1, 2), (3,)]),
        ("x1^2 + x2^2 + 2 x3^2", "x1", [(1,), (2,), (3,)]),
        ("x1^3 + x2^3 + x3^3 + x4^3", "1", [(1, 2, 3, 4)]),
        ("x1^2 + 2 x2^2 + x3^2 + 2 x4^2", "x1 x3 + x2 x4", [(1, 3), (2, 4)]),
    ])
    def test_orbits(self, p, q, orbits):
        Pp = P(p)
        assert _face_orbits(Pp, P(q, Pp.nvars)) == orbits

    def test_folded_keeps_the_unfolded_value_bits(self, unfolded):
        # A diagonal P takes no orbit (D17): unfolding it changes nothing.
        for args in [a for a in self.CORPUS if _quadrature.dirichlet(a[0]) is None]:
            z, parts = Z_breakdown(*args)
            ref, ref_parts = unfolded(*args)
            # The faces of an orbit have equal rows, and equal integrals,
            # which share a key: both sum to the same form (DECISIONS.md
            # D16, D21).
            assert parts == ref_parts
            assert z.kind == ref.kind == "numeric"
            assert z.num.value._mpf_ == ref.num.value._mpf_
            with mp.workdps(60):
                assert abs(z.num.value - ref.num.value) <= z.num.err + ref.num.err

    def test_folded_against_raabe(self):
        # Y_expansion is not folded: the Raabe route sums every face.
        for args in self.CORPUS:
            z = Z_value(*args)
            assert _within_errs(z, raabe_substitute(Y_expansion(*args)))

    def test_raabe_route_integrates_each_quotient_once(self, monkeypatch):
        # Y_expansion integrates every face, unfolded; the faces of a P
        # fixed by every swap repeat their quotients, which share a key in
        # constant's memo (DECISIONS.md D7): 17 quadratures, where one per
        # face and term ran 60, and the value keeps its bits.
        args = self.CORPUS[20]
        assert args[0] == P("x1^2 + x2^2 + x3^2 + x1 x2 + x1 x3 + x2 x3", 3)
        runs, integrate = [], _quadrature.integrate_unit_cube

        def recorded(f, dim, rel_tol, abs_tol, **kw):
            runs.append((f.k, f.shift, sorted(f._numer.items()), sorted(f._den.items()),
                         rel_tol, abs_tol, mp.prec))
            return integrate(f, dim, rel_tol, abs_tol, **kw)

        monkeypatch.setattr(_quadrature, "integrate_unit_cube", recorded)
        _quadrature.constant.cache_clear()
        v = raabe_substitute(Y_expansion(*args)).num
        assert len(runs) == 17 and all(runs.count(r) == 1 for r in runs)
        assert (v.value._mpf_, v.err._mpf_) == (
            (1, 20282409603651670424455891177371, -106, 105),
            (0, 517236836090154733856801821109164277, -152, 119))

    def test_one_face_per_orbit_is_built(self, monkeypatch):
        # P is not diagonal, so the faces are folded (a diagonal P builds
        # face 1 alone, TestDiagonalFaces).  The exact part alone is built:
        # which faces it builds is all this test reads.
        faces = []

        def recorded(P, Q, N, d, i):
            faces.append(i)  # the face whose sums are built
            return sums(P, Q, N, d, i)

        sums = mahler._face_sums
        monkeypatch.setattr(mahler, "_face_sums", recorded)
        exact_form = mahler._exact_form.__wrapped__  # no memoised form
        exact_form(P("x1^2 + x2^2 + x3^2 + x1 x2 + x1 x3 + x2 x3", 3), MPoly.one(3), 0)
        assert faces and set(faces) == {1}  # one orbit
        faces.clear()
        exact_form(P("x1^2 + x2^2 + 2 x3^2 + x1 x2", 3), P("x3", 3), 1)
        assert set(faces) == {1, 3}


class TestExactFormMemo:
    """The exact part of a Z value -- the certificate, the orbits, the face
    sums and the reduced form -- is memoised per (P, Q, N), and diagonal
    values' gamma factors per (spec, settings); a memoised answer has the
    bits of a fresh one, and bad input raises on every call."""

    CRITERION_9 = (P("x1^3 + x2^3 + x3^3 + x4^3", 4), MPoly.one(4), 0)

    @staticmethod
    def _bits(v):
        return v.kind, v.num.value._mpf_, v.num.err._mpf_

    def test_other_settings_keep_the_bits(self):
        mahler._exact_form.cache_clear()
        memo = [Z_value(*self.CRITERION_9, qs) for qs in (QS6, QS_FAST)]
        fresh = []
        for qs in (QS6, QS_FAST):
            mahler._exact_form.cache_clear()
            fresh.append(Z_value(*self.CRITERION_9, qs))
        assert [self._bits(z) for z in memo] == [self._bits(z) for z in fresh]

    def test_second_settings_build_nothing(self, monkeypatch):
        calls = []
        for name in ("_face_sums", "certify_elliptic"):
            fn = getattr(mahler, name)
            monkeypatch.setattr(mahler, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        mahler._exact_form.cache_clear()
        Z_value(*self.CRITERION_9, QS6)
        assert set(calls) == {"_face_sums", "certify_elliptic"}
        calls.clear()
        Z_value(*self.CRITERION_9, QS_FAST)
        assert calls == []

    def test_bad_input_raises_every_call(self):
        Z_value(P("x1^2 + x2^2", 2), MPoly.one(2), 1, QS_FAST)
        # A float N only equals the memoised N = 1: it is not served from it.
        for args, exc in [((P("x1^2 - 3 x1 x2 + x2^2", 2), MPoly.one(2), 1), NotElliptic),
                          ((P("x1^2 + x2^2", 2), MPoly.one(3), 1), DimensionMismatch),
                          ((P("x1^2 + x2^2", 2), MPoly.one(2), 1.0), ValueError)]:
            for _ in range(2):
                with pytest.raises(exc):
                    Z_value(*args, QS_FAST)

    def test_diagonal_gamma_factors_once(self, monkeypatch):
        from zetapoly import build_family, diagonal_value, polyzeta

        fam = build_family([P("x1", 1), P("x1^2 + x2^2", 2)])
        polyzeta._G_memo.cache_clear()
        fresh = diagonal_value(fam, (1, 1), QS_FAST)
        calls, G = [0], polyzeta.G_factor

        def counted(*args):
            calls[0] += 1
            return G(*args)

        monkeypatch.setattr(polyzeta, "G_factor", counted)
        again = diagonal_value(fam, (1, 1), QS_FAST)
        assert calls[0] == 0
        assert self._bits(again) == self._bits(fresh)


def _drawn_non_diagonal(rng, n, d):
    """sum_j a_j x_j^d plus one or two mixed monomials, every coefficient
    positive (so every face is positive on the cube) and distinct, so that
    no coordinate swap fixes P."""
    mixed = [e for e in delta_multiindices(d, n) if max(e) < d]
    coeffs = [F(1), F(2), F(3), F(1, 2), F(5, 3), F(7, 4), F(4)]
    rng.shuffle(coeffs)
    terms = {tuple(d * (j == i) for j in range(n)): coeffs.pop() for i in range(n)}
    for e in rng.sample(mixed, min(len(mixed), rng.randint(1, 2))):
        terms[e] = coeffs.pop()
    return MPoly(n, terms)


def _drawn_Q(rng, n):
    """One or two homogeneous components of degree <= 2, with small integer
    coefficients of either sign."""
    terms = {}
    for q in rng.sample(range(3), rng.randint(1, 2)):
        for e in rng.sample(delta_multiindices(q, n), 1):
            terms[e] = rng.choice([-3, -2, -1, 1, 2, 3])
    return MPoly(n, terms)


def _family_sums(Pp, Qp, N):
    """The paper's triple sum, family by family, grouped by component and
    |alpha| = a: {(ci, a): {i: {m: the sum of c_ab P^i_{alpha,u} d^beta Q_c
    over beta, |alpha| = a and the families u with g(u) + beta = m}}}, m
    running over the families whose product is nonzero."""
    n, (_, d) = Pp.nvars, Pp.is_homogeneous()
    out = {}
    for ci, (q, Qc) in enumerate(Qp.homogeneous_components()):
        for beta in (b for k in range(q + 1) for b in delta_multiindices(k, n)):
            dQc = Qc.derivative(beta)
            if dQc.is_zero():
                continue
            for alpha in index_I(N, beta, d, q, n):
                a = sum(alpha)
                c_ab = F((-1) ** (a - N) * factorial(a - 1 - N) * factorial(N),
                         d * multi_factorial(alpha) * multi_factorial(beta))
                faces = out.setdefault((ci, a), {})
                for i in range(1, n + 1):
                    groups = faces.setdefault(i, {})
                    for u in enumerate_V(alpha, n):
                        prod_u = build_P_alpha_u(Pp, i, alpha, u.u)
                        if not prod_u.is_zero():
                            m = tuple(g + b for g, b in zip(u.g_vector(), beta))
                            term = (prod_u * dQc.face(i)).scale(c_ab)
                            groups[m] = groups.get(m, MPoly.zero(n - 1)) + term
    return out


class TestTripleSumReference:
    """Z_breakdown and Y_expansion build the terms of the triple sum with
    the same component of Q and |alpha| = a on a face as one polynomial,
    (P(x + t) - P(x))^a Q_c(x + t).  Their bucket numerators, (m, face)
    groups and key sets equal the family sums rebuilt from enumerate_V,
    g_vector, build_P_alpha_u and bernoulli_tilde_product, grouped by
    (component, face, a) with d^beta Q_c folded in, over a drawn corpus of
    P with no symmetry, non-diagonal for n >= 2."""

    # (n, d, N): every n up to 4, d up to 4, N up to 3
    SHAPES = [(1, 1, 3), (1, 4, 3), (2, 2, 3), (2, 3, 2), (2, 4, 1), (3, 2, 1),
              (3, 3, 0), (3, 4, 0), (4, 2, 0), (4, 3, 0)]

    @pytest.fixture(scope="class")
    def corpus(self):
        """(P, Q, N, the family sums of _family_sums) per shape; every face
        is its own orbit, so Z_breakdown builds them all."""
        rng = random.Random(2019)
        out = []
        for n, d, N in self.SHAPES:
            Pp = _drawn_non_diagonal(rng, n, d) if n > 1 else MPoly(1, {(d,): F(3, 2)})
            Qp = _drawn_Q(rng, n)
            assert _face_orbits(Pp, Qp) == [(i,) for i in range(1, n + 1)]
            out.append((Pp, Qp, N, _family_sums(Pp, Qp, N)))
        return out

    @staticmethod
    def _integrands(monkeypatch, fn, *args):
        """The (den, numer, k) that fn passes to cube_integral, in order;
        each integral is taken as 0."""
        calls = []

        def recorded(den, numer, k, qs):
            calls.append((den, numer, k))
            return SpecialValue.make_exact(F(0))

        with monkeypatch.context() as m:
            m.setattr(mahler, "cube_integral", recorded)
            m.setattr(mahler, "reduction", lambda den: None)
            # No memoised exact form in, and none built under the patch kept.
            m.setattr(mahler, "_exact_form", mahler._exact_form.__wrapped__)
            out = fn(*args)
        return calls, out

    @staticmethod
    def _face_sums(Pp, Qp, N):
        """{(ci, a): (c_a, {i: {m: [t^m] as an MPoly}})} from _face_sums."""
        n, (_, d) = Pp.nvars, Pp.is_homogeneous()
        out = {}
        for i in range(1, n + 1):
            for ci, a, c_a, den, groups in _face_sums(Pp, Qp, N, d, i):
                out.setdefault((ci, a), (c_a, {}))[1][i] = {
                    m: MPoly(n - 1, {e: F(c, den) for e, c in ints.items()})
                    for m, ints in groups.items()}
        return out

    def test_Z_bucket_numerators(self, corpus, monkeypatch):
        # With no reduction, each face's buckets (component, a) are one
        # integral: sum_a numer_a face^(K - (a - N)) / face^K, K the largest
        # a - N, a constant of kind 2 keyed by the face, the numerator over
        # its coefficient of its greatest exponent, and K (DECISIONS.md
        # D21).  A face of no variable, n = 1, is that rational.
        monkeypatch.setattr(mahler, "reduction", lambda den: None)
        for Pp, Qp, N, ref in corpus:
            buckets = {}
            for (ci, a), faces in sorted(ref.items()):
                for i, groups in faces.items():
                    numer = MPoly.zero(Pp.nvars - 1)
                    for m, s in groups.items():
                        numer = numer + s.scale(bernoulli_tilde_product(m))
                    if not numer.is_zero():
                        buckets.setdefault(i, []).append((a - N, numer))
            want, rational = {}, F(0)
            for i, parts in buckets.items():
                face, K = Pp.face(i), max(k for k, _ in parts)
                numer = MPoly.zero(Pp.nvars - 1)
                for k, p in parts:
                    numer = numer + p * face ** (K - k)
                if Pp.nvars == 1:
                    rational += numer.constant_value() / face.constant_value() ** K
                else:
                    want[tuple(sorted(face.terms.items())), K] = numer
            _, (got_rational, keys) = mahler._exact_form.__wrapped__(Pp, Qp, N)
            assert got_rational == rational
            if Pp.nvars == 1:
                assert keys is None
                continue
            assert all(key[0] == 2 for key, _ in keys)
            got = {(key[2], key[4]): MPoly(key[1], dict(key[3])).scale(q) for key, q in keys}
            assert got == want

    def test_Y_groups(self, corpus):
        # per (component, a, face), c_a [t^m] of (P(x + t) - P(x))^a Q_c(x + t)
        # for every m, the keys of zero sums kept, so the m are the families'
        for Pp, Qp, N, ref in corpus:
            got = self._face_sums(Pp, Qp, N)
            assert got.keys() == ref.keys()
            for key, (c_a, faces) in got.items():
                assert {i: {m: s.scale(c_a) for m, s in groups.items()}
                        for i, groups in faces.items()} == ref[key]

    def test_Y_integrands(self, corpus, monkeypatch):
        # what Y_expansion integrates, in its order: per (component, a), m
        # ascending, then the faces, skipping zero numerators
        for Pp, Qp, N, ref in corpus:
            want = []
            for ci, a in sorted(ref):
                for m in sorted(ref[ci, a][1]):
                    for i, groups in ref[ci, a].items():
                        if not groups[m].is_zero():
                            want.append((Pp.face(i), groups[m], a - N))
            calls, _ = self._integrands(monkeypatch, Y_expansion, Pp, Qp, N, QS)
            assert calls == want

    # P and Q with coefficients that are not integers, and so shifts over a
    # denominator above 1: (P, Q, N)
    FRACTIONAL = [("2/3 x1^2 + x1 x2 + 5/2 x2^2", "1/2 x1 + 3/4 x2 + 1/3", 1),
                  ("3/2 x1^3 + 1/6 x1 x2 x3 + 2/5 x2^3 + 7/4 x3^3", "5/6 x2 x3 - 1/4", 0)]

    @staticmethod
    def _derivative_shift(p, i, degrees):
        """(den, ints) of sum_{|g|=k} (d^g p / g!) t^g on face i over k in
        degrees, built from MPoly.derivative and face: the reference for the
        shift that _face_sums takes by integer binomials."""
        return _over_common_denominator({
            e + g: c / multi_factorial(g) for k in degrees for g in delta_multiindices(k, p.nvars)
            for e, c in p.derivative(g).face(i).terms.items()})

    def test_fractional_shift_den(self):
        for p, q, N in self.FRACTIONAL:
            Pp = P(p)
            n, (_, d), Qp = Pp.nvars, Pp.is_homogeneous(), P(q, Pp.nvars)
            for i in range(1, n + 1):
                L, shift = self._derivative_shift(Pp, i, range(1, d + 1))
                assert L > 1 and gcd(L, *shift.values()) == 1  # lowest terms
                Lq = [self._derivative_shift(Qc, i, range(qc + 1))[0]
                      for qc, Qc in Qp.homogeneous_components()]
                sums = list(_face_sums(Pp, Qp, N, d, i))
                assert sums and all(den == L**a * Lq[ci] for ci, a, _, den, _ in sums)
            # and the groups are the paper's family sums
            got, ref = self._face_sums(Pp, Qp, N), _family_sums(Pp, Qp, N)
            assert got.keys() == ref.keys()
            for key, (c_a, faces) in got.items():
                assert {i: {m: s.scale(c_a) for m, s in groups.items()}
                        for i, groups in faces.items()} == ref[key]


class TestFaceQuadratureBitIdentity:
    """(value._mpf_, err._mpf_) recorded from the fixed-point kernel (exact
    integer cell sums, rounded once); any change to the kernel's bits shows
    here.  Each literal sits beside a truth it must stay within err of.
    Z_value's buckets always have expo = N - |alpha| < 0; a period with
    expo >= 0 has a polynomial integrand, and period_K returns its exact
    integral."""

    QS20 = QuadratureSettings(rel_tol=1e-8, precision=20)

    @staticmethod
    def _bits(v, truth, truth_err=0):
        assert v.kind == "numeric"
        with mp.workdps(50):
            if isinstance(truth, F):
                truth = mpf(truth.numerator) / truth.denominator
            assert abs(v.num.value - truth) <= v.num.err + truth_err
        return v.num.value._mpf_, v.num.err._mpf_

    def test_Z_value_2d_faces(self):
        P3, Q = P("x1^2 + x1 x2 + x2^2 + x3^2", 3), P("x1 + 2 x3", 3)
        ref = Z_value(P3, Q, 1, QuadratureSettings(rel_tol=1e-12, precision=30))
        v = Z_value(P3, Q, 1, self.QS20)
        # Recorded when each face orbit's buckets became one integral, each
        # term of its numerator sorted within the face's blocks (D21).
        assert self._bits(v, ref.num.value, ref.num.err) == (
            (0, 891231388302028642732122646088015937, -126, 120),
            (0, 171494156465347159472735616734068257, -154, 118),
        )

    def test_Z_value_ignores_term_order(self):
        # The bucket numerators are summed per denominator and the integrand
        # compiled from its terms; neither may turn the order in which P's
        # and Q's terms were inserted into bits.
        P3, Q = P("x1^2 + x1 x2 + x2^2 + x3^2", 3), P("x1 + 2 x3 - 1/3 x2", 3)

        def reversed_terms(p):
            return MPoly(p.nvars, dict(reversed(list(p.terms.items()))))

        a = Z_value(P3, Q, 1, self.QS20)
        b = Z_value(reversed_terms(P3), reversed_terms(Q), 1, self.QS20)
        assert list(reversed_terms(P3).terms) != list(P3.terms)
        assert (a.num.value._mpf_, a.num.err._mpf_) == (b.num.value._mpf_, b.num.err._mpf_)

    def test_Z_value_3d_faces(self):
        # The Epstein value Z(x1^2 + .. + x4^2, 1; 0) = 1/16.
        v = Z_value(P("x1^2 + x2^2 + x3^2 + x4^2", 4), MPoly.one(4), 0,
                    QuadratureSettings(rel_tol=1e-6, precision=20))
        # Recorded when the diagonal faces were reduced exactly (DECISIONS.md
        # D14): no master is left, so the value is 1/16 and err its rounding.
        assert self._bits(v, F(1, 16)) == ((0, 1, -4, 1), (0, 131073, -120, 18))

    # sha256 of repr([(value._mpf_, err._mpf_), ...]) of the Z values below,
    # then of the cube quadratures behind them.  Until diagonal P took
    # Dirichlet's integral over the orthant (D17) it digested only the
    # quadratures: the linear form's four faces left it with D12, the
    # Epstein form's and the cubic's 3-D faces with D14, and the cubic's one
    # 2-D master with D17.  The Epstein and linear values kept their bits
    # then; criterion 9 became 1/16 - Gamma(1/3)^3/810 evaluated, within
    # both errs of its master's quadrature.  The symmetric ternary quadric
    # was added then, so that symmetric faces still reach the kernel; its
    # two quadratures had the same bits at the parent of D17.  Since each
    # face orbit's buckets are one integral (D21), it runs one quadrature,
    # and the digest was re-recorded then, the quadric within both errs of
    # its 30-digit value; and again when its numerator's terms were sorted
    # within the face's blocks in place of averaged over their swaps.
    SYMMETRIC_SHA = "211ef58bdc32e0ca7eb6a4c42660d32d2559c8adfa91cf2f53a1f7be4a9b9c76"

    def test_symmetric_faces_digest(self, monkeypatch):
        # Symmetric P: the Epstein form, a linear form with Q = P and
        # criterion 9's cubic, each against its truth and with no
        # quadrature, and a quadric whose 2-D faces repeat denominator
        # values across their grids.
        _quadrature.constant.cache_clear()
        P3 = P("x1^2 + x2^2 + x3^2 + x1 x2 + x1 x3 + x2 x3", 3)
        ref = Z_value(P3, MPoly.one(3), 0, QuadratureSettings(rel_tol=1e-12, precision=30))
        quads = []

        def recorded(*args, **kwargs):
            value, err = integrate(*args, **kwargs)
            quads.append((value._mpf_, err._mpf_))
            return value, err

        integrate = _quadrature.integrate_unit_cube
        monkeypatch.setattr(_quadrature, "integrate_unit_cube", recorded)
        L = P("3/2 x1 + 3/2 x2 + 3/2 x3 + 3/2 x4", 4)
        with mp.workdps(50):
            criterion_9 = mpf(1) / 16 - mp.gamma(mpf(1) / 3) ** 3 / 810
        bits = [self._bits(Z_value(p, q, N, qs), truth) for p, q, N, qs, truth in (
            (P("x1^2 + x2^2 + x3^2 + x4^2", 4), MPoly.one(4), 0,
             QuadratureSettings(rel_tol=1e-6, precision=20), F(1, 16)),
            (L, L, 1, self.QS20, linear_form_zeta((F(3, 2),) * 4, (0,) * 4, 2)),
            (L, L, 2, QuadratureSettings(rel_tol=1e-8, precision=30),
             linear_form_zeta((F(3, 2),) * 4, (0,) * 4, 3)),
            (P("x1^3 + x2^3 + x3^3 + x4^3", 4), MPoly.one(4), 0,
             QuadratureSettings(rel_tol=1e-6, precision=20), criterion_9),
        )]
        assert quads == []  # a diagonal P runs no quadrature (D17)
        bits.append(self._bits(Z_value(P3, MPoly.one(3), 0, self.QS20), ref.num.value,
                               ref.num.err))
        assert len(quads) == 1
        assert hashlib.sha256(repr(bits + quads).encode()).hexdigest() == self.SYMMETRIC_SHA

    def test_period_2d_face_nonnegative_exponent(self):
        # N = 2, |alpha| = 1: the integrand is the polynomial
        # 2 (x^2 + x y + y^2 + 1)(x + y), whose integral is 13/3.
        v = period_K(P("x1^2 + x1 x2 + x2^2 + x3^2", 3), P("x1 + x2", 3), 2,
                     (1, 0), ((1, 0, 0), (0,) * 6), (0, 0, 0), 3, self.QS20)
        assert v == _exact(F(13, 3))

    def test_period_3d_face_nonnegative_exponent(self):
        # The integrand is the constant 2 (d/dx4 of x4^2 on face 4).
        v = period_K(P("x1^2 + x2^2 + x3^2 + x4^2", 4), MPoly.one(4), 1,
                     (1, 0), ((1, 0, 0, 0), (0,) * 10), (0, 0, 0, 0), 4, self.QS20)
        assert v == _exact(F(2))


class TestDiagonalCubicFourfold:
    def test_value_matches_theta_series_closed_form(self):
        # The 4-variable diagonal cubic at 0.  Independently derivable from
        # the theta-series expansion: value = 1/16 - Gamma(1/3)^3 / 810.
        from zetapoly import gamma_rational_numeric

        v = Z_value(P("x1^3 + x2^3 + x3^3 + x4^3", 4), MPoly.one(4), 0,
                    QuadratureSettings(rel_tol=1e-7, precision=20))
        g3 = gamma_rational_numeric(F(1, 3), 30)
        want = (g3 * g3 * g3).scale(F(-1, 810)) + _num_from(F(1, 16))
        assert abs(v.num.value - want.value) <= v.num.err + want.err


def _num_from(fr):
    from zetapoly import Numeric

    return Numeric.from_rational(fr)


class TestDiagonalFaces:
    """Z_breakdown sums the buckets of a diagonal P = sum a_j x_j^d, n >= 2,
    as one integral over the orthant, in face 1's chart, and writes each
    monomial's integral by Dirichlet's formula in Gamma values and powers
    (DECISIONS.md D17): no quadrature, no orbit.  theta_diagonal, which
    shares no code with it, is the truth, term by term; quadrature is the
    check where it has none."""

    @staticmethod
    def _form(Pd, Q, N, qs=QS_FAST):
        z, parts = Z_breakdown(Pd, Q, N, qs)
        form = {b.key: b.coeff for b in parts if isinstance(b, ZMaster)}
        return z, {key: q for key, q in form.items() if key is None or q}

    @staticmethod
    def _scaled(n, d, cs):
        return MPoly(n, {tuple(d * (i == j) for i in range(n)): F(cs[j]) for j in range(n)})

    # Diagonal P whose theta value is rational: (n, d, scales, Q exponent, N).
    RATIONAL = [
        (3, 2, 1, 0, 1), (3, 2, 1, 0, 2), (3, 4, 1, 0, 2), (3, 4, 1, 0, 3), (4, 2, 1, 0, 1),
        (3, 3, 1, 0, 0), (3, 3, 1, 0, 1), (3, 3, 1, 0, 2), (3, 3, 1, 0, 3),
        (4, 3, 1, 0, 1), (4, 3, 1, 0, 3),
        (3, 3, [1, 8, 27], (1, 0, 2), 1), (3, 4, [16, 1, 81], (0, 1, 0), 1),
    ]

    @pytest.mark.parametrize("n, d, c, a, N", RATIONAL)
    def test_rational_rows_equal_theta(self, n, d, c, a, N):
        Pd = self._scaled(n, d, c if isinstance(c, list) else [c] * n)
        av = (a,) * n if isinstance(a, int) else a
        z, form = self._form(Pd, MPoly(n, {av: F(1)}), N)
        truth = theta_diagonal(n, d, a, N, c)
        assert truth.kind == "exact" and form == {None: truth.exact}
        assert z.kind == "numeric" and z.num.value == mpf_from(truth.exact, QS_FAST)

    @staticmethod
    def _drawn():
        # (n, d, scales, Q exponent, N): n <= 4, d <= 4, N <= 3, the scales
        # equal or k_j^d, so that theta has a closed form; only draws with
        # dN + |a| + n <= 12, which keeps the exact algebra small.
        rng = random.Random(36)
        ks = [F(1), F(2), F(3), F(1, 2)]
        while True:
            n, d, N = rng.randint(2, 4), rng.randint(1, 4), rng.randint(0, 3)
            c = [rng.choice(ks)] * n if rng.random() < 0.5 else [rng.choice(ks) ** d
                                                               for _ in range(n)]
            a = tuple(rng.randint(0, 2) for _ in range(n))
            if d * N + sum(a) + n <= 12:
                yield n, d, c, a, N

    def test_form_equals_theta_term_by_term(self):
        for n, d, c, a, N in itertools.islice(self._drawn(), 48):
            _, form = self._form(self._scaled(n, d, c), MPoly(n, {a: F(1)}), N)
            truth = theta_diagonal(n, d, a, N, c)
            want = {None: truth.exact} if truth.kind == "exact" else {
                None: truth.base, **{cp: q for q, cp in truth.terms}}
            assert form == want, (n, d, c, a, N)

    def test_criterion_9_is_the_closed_form(self):
        # 1/16 - Gamma(1/3)^3/810, the paper's value, as the form itself.
        qs = QuadratureSettings(rel_tol=1e-8, precision=25)
        z, form = self._form(_diagonal(4, 3, 1), MPoly.one(4), 0, qs)
        assert form == {None: F(1, 16), ConstantProduct((F(1, 3),) * 3): F(-1, 810)}
        with mp.workdps(60):
            truth = mpf(1) / 16 - mp.gamma(mpf(1) / 3) ** 3 / 810
            assert abs(z.num.value - truth) <= z.num.err <= mpf(10) ** -30

    def test_criterion_9_at_100_digits(self):
        qs = QuadratureSettings(rel_tol=1e-90, abs_tol=1e-95, precision=100)
        t0 = time.perf_counter()
        z = Z_value(_diagonal(4, 3, 1), MPoly.one(4), 0, qs)
        assert time.perf_counter() - t0 < 1
        with mp.workdps(140):
            truth = mpf(1) / 16 - mp.gamma(mpf(1) / 3) ** 3 / 810
            assert abs(z.num.value - truth) <= z.num.err <= qs.rel_tol * abs(truth)

    # (d, (a_1, ..., a_n), e, k): rows of one and two variables, with
    # powers left (2^(1/3), (1/2)^(3/4), (1/3)^(2/3), 3^(1/2)), one folded
    # in (16^(-3/4) = 1/8), and a linear row that is rational.
    ROWS = [
        (3, (F(1), F(2)), (1,), 2), (4, (F(1, 2), F(16)), (2,), 1),
        (3, (F(2), F(1), F(1, 3)), (1, 0), 2), (2, (F(3), F(1), F(2)), (0, 1), 2),
        (1, (F(2), F(3), F(5)), (1, 0), 4),
    ]

    def test_rows_against_mpmath_quad(self):
        # int over [0, oo)^r of y^e / (a_1 + sum a_j y_j^d)^k: mpmath's
        # quadrature, at 50 digits in one variable and 15 in two.
        for d, a, e, k in self.ROWS:
            v, _ = _quadrature._budgeted(
                *_quadrature._form_sum((1, {(_quadrature._Dirichlet(d, a), e, k): 1})), QS)
            dps = 50 if len(e) == 1 else 15
            with mp.workdps(dps):
                A = [mpf(x.numerator) / x.denominator for x in a]
                f = lambda *y: mp.fprod(t ** x for t, x in zip(y, e)) / (
                    A[0] + mp.fsum(c * t ** d for c, t in zip(A[1:], y))) ** k
                truth, terr = mp.quad(f, *[[0, mp.inf]] * len(e), error=True)
                assert abs(v.value - truth) <= v.err + terr + mpf(10) ** (5 - dps), (d, a, e, k)

    def test_no_rational_root_against_quadrature(self, monkeypatch):
        # Z(x1^3 + 2 x2^3 + 3 x3^3, 1; -1) = 1/80 exactly: theta needs the
        # cube roots of 2 and 3, so the truth is the face quadrature.
        Pd, qs = P("x1^3 + 2 x2^3 + 3 x3^3", 3), QuadratureSettings(rel_tol=1e-15, precision=30)
        z, form = self._form(Pd, MPoly.one(3), 1, qs)
        assert form == {None: F(1, 80)}
        monkeypatch.setattr(mahler, "dirichlet", lambda P: None)
        # No memoised exact form in, and none built under the patch kept.
        monkeypatch.setattr(mahler, "_exact_form", mahler._exact_form.__wrapped__)
        ref, parts = Z_breakdown(Pd, MPoly.one(3), 1, qs)
        assert parts[1:] and all(t.key[0] == 2 for t in parts[1:])  # face integrals (D21)
        with mp.workdps(50):
            assert abs(z.num.value - ref.num.value) <= z.num.err + ref.num.err

    def test_no_quadrature(self, monkeypatch):
        dims, integrate = [], _quadrature.integrate_unit_cube

        def recorded(f, dim, *args, **kwargs):
            dims.append(dim)
            return integrate(f, dim, *args, **kwargs)

        _quadrature.constant.cache_clear()
        monkeypatch.setattr(_quadrature, "integrate_unit_cube", recorded)
        Z_value(_diagonal(4, 3, 1), MPoly.one(4), 0, QS6)  # criterion 9
        Z_value(_diagonal(4, 2, 1), MPoly.one(4), 0, QS6)  # Epstein, n = 4
        Z_value(P("x1^3 + 2 x2^3", 2), P("x1", 2), 1, QS6)  # 2^(1/3) left
        assert dims == []

    def test_each_product_once_per_precision(self, monkeypatch):
        # A second tolerance at the same precision takes a Gamma product's
        # value from its memo: Gamma(1/3) is computed once over two
        # constant() calls at two settings.  The rational cancels the
        # product to 25 digits, so that the first pass misses its budget,
        # but a product is already at its rounding, so no second pass runs.
        settings, calls = [], []
        constant, gamma = _quadrature.constant, exactnum.gamma_rational
        monkeypatch.setattr(_quadrature, "constant",
                            lambda key, qs: settings.append(qs) or constant(key, qs))
        monkeypatch.setattr(exactnum, "gamma_rational", lambda x, p: calls.append(x) or gamma(x, p))
        constant.cache_clear()
        ConstantProduct.to_numeric.cache_clear()
        cp = ConstantProduct((F(1, 3),) * 3, ((F(2), F(1, 3)),))
        with mp.workdps(40):
            near = F(mp.nstr(mp.gamma(mpf(1) / 3) ** 3 * mp.cbrt(2), 25))
        values = [_quadrature._budgeted(-near, ((cp, F(1)),),
                                        QuadratureSettings(rel_tol=r, abs_tol=1e-40, precision=25))
                  for r in (1e-12, 1e-14)]
        assert len(settings) == len(set(settings)) == 2 and calls == [F(1, 3)]
        assert values[0] == values[1]
        with mp.workdps(60):
            truth = mp.gamma(mpf(1) / 3) ** 3 * mp.cbrt(2) - mpf(near.numerator) / near.denominator
            assert abs(values[0][0].value - truth) <= values[0][0].err

    def test_face_1_alone_and_no_orbits(self, monkeypatch):
        faces = []

        def recorded(P, Q, N, d, i):
            faces.append(i)
            return sums(P, Q, N, d, i)

        sums = mahler._face_sums
        monkeypatch.setattr(mahler, "_face_sums", recorded)
        monkeypatch.setattr(mahler, "_face_orbits", lambda *a: pytest.fail("_face_orbits"))
        for p, q in [("x1^3 + x2^3 + x3^3 + x4^3", "1"), ("x1^2 + 2 x2^2 + 3 x3^2", "x3^2"),
                     ("x1 + 2 x2 + 3 x3", "x1")]:
            Z_value(P(p), P(q, P(p).nvars), 1, QS_FAST)
        assert faces and set(faces) == {1}

    def test_each_row_once(self, monkeypatch):
        # Criterion 9's exact form built again, past its value memo, takes
        # every Dirichlet row from the row memo: no normal form is computed
        # the second time, and the product the form names is the same object.
        calls, normal_form = [], _quadrature._normal_form
        monkeypatch.setattr(_quadrature, "_normal_form",
                            lambda *a: calls.append(a) or normal_form(*a))
        args = _diagonal(4, 3, 1), MPoly.one(4), 0
        first = mahler._exact_form.__wrapped__(*args)
        built = len(calls)
        second = mahler._exact_form.__wrapped__(*args)
        assert built and len(calls) == built and second == first
        assert [key for key, _ in second[1][1]] == [ConstantProduct((F(1, 3),) * 3)]
        assert second[1][1][0][0] is first[1][1][0][0]


def mpf_from(x, qs):
    with mp.workdps(qs.precision + 10):
        return mpf(x.numerator) / x.denominator


class TestIntegerArguments:
    """alpha and beta are read by the package's one reader (DECISIONS.md D9):
    an entry that is not an int is a ValueError naming its argument."""

    ENTRIES = {  # entry -> (the argument named, a call with x as one entry)
        "enumerate_V": ("alpha", lambda x: enumerate_V((x, 0), 2)),
        "period_K.alpha": ("alpha", lambda x: period_K(
            P("x1^2 + x2^2"), MPoly.one(2), 2, (x, 0), [(2, 0), (0, 0, 0)], (0, 0), 1)),
        "period_K.beta": ("beta", lambda x: period_K(
            P("x1^2 + x2^2"), MPoly.one(2), 2, (2, 0), [(2, 0), (0, 0, 0)], (x, 0), 1)),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("x", [2.0, F(5, 2), "2"])
    def test_non_int_entry_rejected(self, entry, x):
        name, call = self.ENTRIES[entry]
        with pytest.raises(ValueError, match=f"^{name} .* is not a tuple of integers$"):
            call(x)

    def test_bools_are_ints(self):
        assert enumerate_V((True, False), 2) == enumerate_V((1, 0), 2)
        args = (P("x1^2 + x2^2"), MPoly.one(2), 1)
        assert (period_K(*args, (True, False), [(1, 0), (0, 0, 0)], (False, False), 1)
                == period_K(*args, (1, 0), [(1, 0), (0, 0, 0)], (0, 0), 1))


class TestIndexAndRowArguments:
    """index_I and the rows of period_K's family u are read by the same
    reader (DECISIONS.md D9), before any face work."""

    def test_index_I_truncating_beta_rejected(self):
        # returned [] before, where beta = (0, 0) gives [(4,)]
        with pytest.raises(ValueError, match=r"^beta \(0\.5, 0\) is not a tuple of integers$"):
            index_I(0, (0.5, 0), 1, 2, 2)

    @pytest.mark.parametrize("x", [2.0, F(5, 2), "2"])
    @pytest.mark.parametrize("pos", range(5))
    def test_index_I_non_int_rejected(self, pos, x):
        args = [1, (0, 0), 1, 2, 2]
        args[pos] = (x, 0) if pos == 1 else x
        name = "beta" if pos == 1 else r"\(N, d, q, n\)"
        with pytest.raises(ValueError, match=f"^{name} .* is not a tuple of integers$"):
            index_I(*args)

    def test_index_I_bools_are_ints(self):
        assert index_I(True, (False, True), 1, 2, 2) == index_I(1, (0, 1), 1, 2, 2)

    @pytest.mark.parametrize("as_family", [False, True])
    @pytest.mark.parametrize("x", [1.0, F(3, 2), "1"])
    def test_u_row_non_int_rejected(self, as_family, x):
        # (1.0, 0) failed inside math.factorial with a TypeError before; a
        # family rejects the row when it is built
        rows = ((x, 0), (0, 0, 0))
        with pytest.raises(ValueError, match=r"^row 1 of u .* is not a tuple of integers$"):
            u = CompositionFamily(n=2, u=rows) if as_family else [list(r) for r in rows]
            period_K(P("x1^2 + x2^2"), MPoly.one(2), 0, (1, 0), u, (0, 0), 1)

    def test_family_reads_its_ints(self):
        # g_vector returned (0.0, 1.5) before
        with pytest.raises(ValueError, match=r"^row 1 of u \(1\.5, 0\) is not a tuple of integers$"):
            CompositionFamily(n=2, u=((1.5, 0),))
        with pytest.raises(ValueError, match=r"^n \(2\.0,\) is not a tuple of integers$"):
            CompositionFamily(n=2.0, u=((1, 0),))
        family = CompositionFamily(n=True, u=[[True], (0, False)])
        assert (family.n, family.u) == (1, ((1,), (0, 0)))
        assert family == CompositionFamily(n=1, u=((1,), (0, 0)))

    def test_u_rows_read_before_face_work(self):
        # face 1 of x1^2 - x2^2 is not positive: the row is read first
        with pytest.raises(NotElliptic):
            period_K(P("x1^2 - x2^2"), MPoly.one(2), 0, (1, 0), [(1, 0), (0, 0, 0)], (0, 0), 1)
        with pytest.raises(ValueError, match=r"^row 2 of u \(0, 0\.0, 0\) is not"):
            period_K(P("x1^2 - x2^2"), MPoly.one(2), 0, (1, 0), [(1, 0), (0, 0.0, 0)],
                     (0, 0), 1)

    def test_u_rows_keep_their_sign_message(self):
        family = CompositionFamily(n=2, u=((2, -1), (0, 0, 0)))
        with pytest.raises(ValueError, match="row 1 of u has the negative entry -1 at position 2"):
            period_K(P("x1^2 + x2^2"), MPoly.one(2), 0, (1, 0), family, (0, 0), 1)

    def test_u_bools_are_ints(self):
        args = (P("x1^2 + x2^2"), MPoly.one(2), 1, (1, 0))
        assert (period_K(*args, CompositionFamily(n=2, u=((True, False), (0, 0, 0))), (0, 0), 1)
                == period_K(*args, [(1, 0), (0, 0, 0)], (0, 0), 1))
