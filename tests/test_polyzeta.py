"""Polynomial families: reduction to the one-variable series, gamma factors,
diagonal expansion."""
import itertools
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from zetapoly import (
    GammaFactorSpec,
    G_factor,
    HypothesisViolated,
    MPoly,
    NotDiagonal,
    PowerSumParams,
    QuadratureSettings,
    SpecialValue,
    Z_value,
    build_QN,
    build_family,
    diagonal_value,
    double_B6,
    value_nonpositive,
    zeta_P_at,
)
from zetapoly.mahler import Z_breakdown, ZMaster
from zetapoly.oracle import theta_diagonal

QS = QuadratureSettings(rel_tol=1e-12, precision=30)
QS_FAST = QuadratureSettings(rel_tol=1e-8, precision=20)


def P(text, n=None):
    return MPoly.parse(text, n)


def euler_family():
    return build_family([P("x1", 1), P("x1 + x2", 2)])


class TestFamily:
    def test_build_and_flags(self):
        fam = euler_family()
        assert fam.flags == ()

    def test_variable_count_enforced(self):
        with pytest.raises(ValueError):
            build_family([P("x1 + x2", 2)])

    def test_positivity_enforced(self):
        with pytest.raises(HypothesisViolated):
            build_family([P("x1 - 5", 1)])

    def test_positivity_witness_rendered(self):
        with pytest.raises(HypothesisViolated) as exc:
            build_family([P("x1 - 2", 1)])
        assert "at (1)" in str(exc.value) and "Fraction(" not in str(exc.value)

    def test_last_must_be_homogeneous(self):
        with pytest.raises(HypothesisViolated):
            build_family([P("x1 + 1", 1)])

    def test_violating_family_raises_with_integer_witness(self):
        # P_2 is positive on [1,8]^2 but P_2(1, 13) = -2
        t0 = time.perf_counter()
        with pytest.raises(HypothesisViolated) as exc:
            build_family([P("x1", 1), P("x1 - x2 + 10", 2), P("x1 + x2 + x3", 3)])
        assert time.perf_counter() - t0 < 0.1
        assert "P_2 is not positive" in str(exc.value) and "at (1, 13)" in str(exc.value)

    def test_unverified_hypotheses_flag(self):
        # x1^2 - x1 + 1 > 0 on [1,oo), but has a negative coefficient
        fam = build_family([P("x1^2 - x1 + 1", 1), P("x1 + x2", 2)])
        assert fam.flags == ("hypotheses_unverified:P1",)
        # an elliptic P_n is positive, certified or not by its coefficients
        fam = build_family([P("x1", 1), P("x1^2 - x1 x2 + x2^2", 2)])
        assert fam.flags == ()


class TestBuildQN:
    def test_golden(self):
        fam = euler_family()
        Q = build_QN(fam, (1, 1))
        assert Q == P("x1^2 + x1 x2", 2)
        assert Q.degree() == 2

    def test_zero_N(self):
        Q = build_QN(euler_family(), (0, 0))
        assert Q == MPoly.one(2) and Q.degree() == 0

    def test_power(self):
        Q = build_QN(euler_family(), (2, 0))
        assert Q == P("x1^2", 2) and Q.degree() == 2


class TestZetaPAt:
    def test_reverse_value(self):
        v = zeta_P_at(euler_family(), (0, 0), QS)
        with mp.workdps(40):
            assert abs(v.num.value - mpf(5) / 12) < mpf(10) ** -9

    def test_equals_Z_call(self):
        fam = build_family([P("x1", 1), P("x1^2 + x2^2", 2)])
        N = (1, 0)
        QN = build_QN(fam, N)
        a = zeta_P_at(fam, N, QS_FAST)
        b = Z_value(fam.polys[-1], QN, 0, QS_FAST)
        assert a.num.value == b.num.value  # literal same call path

    def test_matches_exact_double_formula(self):
        fam = euler_family()
        with mp.workdps(40):
            for N1 in range(3):
                for N2 in range(3):
                    v = zeta_P_at(fam, (N1, N2), QS).to_numeric(30)
                    want = double_B6(N1, N2)
                    assert abs(v.value - mpf(want.numerator) / want.denominator) < mpf(
                        10
                    ) ** -9

    def test_matches_power_sum_recursion(self):
        # equal exponents make the power-sum denominators homogeneous, so the
        # same values are reachable by the exact recursion and by the
        # quadrature-based reduction; the two pipelines share no code path
        from zetapoly import PowerSumParams, value_nonpositive

        fam = build_family([P("x1^3", 1), P("x1^3 + x2^3", 2)])
        psum = PowerSumParams.make((3, 3))
        qs = QuadratureSettings(rel_tol=1e-10, precision=25)
        with mp.workdps(30):
            for N in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                exact = value_nonpositive(psum, tuple(-x for x in N))
                via_z = zeta_P_at(fam, N, qs).to_numeric(25)
                target = mpf(exact.numerator) / exact.denominator
                assert abs(via_z.value - target) <= via_z.err + mpf(10) ** -20

    def test_tolerance_refinement_consistency(self):
        fam = build_family([P("x1", 1), P("x1^2 + x2^2", 2)])
        prev = None
        for rel in (1e-6, 1e-8, 1e-10):
            qs = QuadratureSettings(rel_tol=rel, precision=25)
            v = zeta_P_at(fam, (1, 1), qs).to_numeric(25)
            if prev is not None:
                assert abs(v.value - prev.value) <= prev.err + v.err
            prev = v


class TestPowerSumGrid:
    """Two exact routes on one grid, compared as Fractions: the power-sum
    recursion (powersum.value_nonpositive) and the exact form of
    Z(P_n, Q_N; 0), for P_j = sum_{k<=j} g_k x_k^d with g = 1 and with
    g = (1/2, 1, 3/2).  A diagonal P's form is one Dirichlet integral over
    the orthant (DECISIONS.md D17), which shares no code with the
    recursion; every point's form is its rational alone.  The grid is
    n = 2 with d = 3..7 and |N| <= 4, and n = 3 with d = 4..7 and
    |N| <= 2, both weightings: 230 points, all equal.  To keep under 4 s
    of Tier-1 it leaves out d = 6 and 7 at the largest |N| (|N| = 4 for
    n = 2 and |N| = 2 for n = 3): 44 points, about 70% of the grid's 9 s
    on a 2-vCPU machine."""

    GRID = [(2, d, 4) for d in range(3, 8)] + [(3, d, 2) for d in range(4, 8)]

    @staticmethod
    def _points(n, top):
        return [N for N in itertools.product(range(top + 1), repeat=n) if sum(N) <= top]

    @pytest.mark.parametrize("g", [(F(1),) * 3, (F(1, 2), F(1), F(3, 2))], ids=["1", "weighted"])
    @pytest.mark.parametrize("n, d, top", GRID)
    def test_recursion_equals_form(self, n, d, top, g):
        polys = [MPoly(j, {tuple(d * (i == k) for i in range(j)): g[k] for k in range(j)})
                 for j in range(1, n + 1)]
        fam, params = build_family(polys), PowerSumParams(n, (d,) * n, g[:n])
        for N in self._points(n, top):
            if d >= 6 and sum(N) == top:
                continue  # left out, see the docstring
            _, parts = Z_breakdown(fam.polys[-1], build_QN(fam, N), 0)
            assert parts == [ZMaster(None, value_nonpositive(params, [-x for x in N]), None)], N


class TestGFactor:
    """Every value against a closed form, within its err."""

    def _within_err(self, m, mu, truth):
        v = G_factor(GammaFactorSpec(m=m, mu=mu), QS)
        with mp.workdps(40):
            assert abs(v.value - truth()) <= v.err

    def test_trivial(self):
        self._within_err(0, (F(1),), lambda: mpf(1))

    def test_log2(self):
        self._within_err(1, (F(1),), lambda: mp.log(2))

    def test_singular_weight(self):
        self._within_err(0, (F(1, 2),), lambda: mpf(2))

    def test_fractional_weight_above_one(self):
        # int sqrt(t)/(1+t) dt over (0,1) = 2 - pi/2
        self._within_err(1, (F(3, 2),), lambda: 2 - mp.pi / 2)

    def test_two_dim_known(self):
        # int over (0,1)^2 of 1/(1+t1+t2): 3 log 3 - 4 log 2
        self._within_err(1, (F(1), F(1)), lambda: 3 * mp.log(3) - 4 * mp.log(2))

    def test_three_dim_fractional_product(self):
        # m = 0: the integral factors into prod_i 1/mu_i = 3 * 4/5 * 3/2
        self._within_err(0, (F(1, 3), F(5, 4), F(2, 3)), lambda: mpf(18) / 5)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.lists(st.fractions(min_value=F(1, 4), max_value=F(3), max_denominator=4),
                    min_size=1, max_size=3))
    def test_m_zero_is_the_product_of_reciprocals(self, mu):
        # m = 0: the exact monomial integral prod 1/mu_i, rounded once, so
        # err stays below the floor 2^(6 - prec) a quadrature cell is charged.
        v = G_factor(GammaFactorSpec(m=0, mu=tuple(mu)), QS)
        with mp.workdps(QS.precision + 10):
            assert v.err <= abs(v.value) * mpf(2) ** (5 - mp.prec)
        with mp.workdps(60):
            truth = mpf(1)
            for x in mu:
                truth *= mpf(x.denominator) / x.numerator
            assert abs(v.value - truth) <= v.err

    def test_m_zero_bits(self):
        # The exact moment 18/5 rounded once at precision + 10 digits.
        v = G_factor(GammaFactorSpec(m=0, mu=(F(1, 3), F(5, 4), F(2, 3))), QS)
        man = 39200528669292110990980754776139697959731
        assert (v.value._mpf_, v.err._mpf_) == ((0, man, -133, 135), (0, man, -265, 135))

    def test_zero_dim(self):
        v = G_factor(GammaFactorSpec(m=3, mu=()))
        assert v.value == 1 and v.err == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            GammaFactorSpec(m=-1, mu=(F(1),))
        with pytest.raises(ValueError):
            GammaFactorSpec(m=0, mu=(F(-1, 2),))


class TestDiagonal:
    def test_single_variable(self):
        fam = build_family([P("x1", 1)])
        v = diagonal_value(fam, (0,), QS)
        assert v.kind == "exact" and v.exact == F(-1, 2)

    def test_not_diagonal(self):
        fam = build_family([P("x1", 1), P("x1^2 + x1 x2 + x2^2", 2)])
        with pytest.raises(NotDiagonal):
            diagonal_value(fam, (0, 0), QS)

    def test_matches_main_path_quadratic(self):
        fam = build_family([P("x1", 1), P("x1^2 + x2^2", 2)])
        for N in [(0, 0), (1, 0)]:
            a = diagonal_value(fam, N, QS_FAST).to_numeric(20)
            b = zeta_P_at(fam, N, QS_FAST).to_numeric(20)
            assert abs(a.value - b.value) <= a.err + b.err

    def test_matches_main_path_cubic_fourfold(self):
        fam = build_family(
            [P("x1", 1), P("x1 + x2", 2), P("x1 + x2 + x3", 3),
             P("x1^3 + x2^3 + x3^3 + x4^3", 4)]
        )
        qs = QuadratureSettings(rel_tol=1e-7, precision=20)
        a = diagonal_value(fam, (0, 0, 0, 0), qs).to_numeric(20)
        b = zeta_P_at(fam, (0, 0, 0, 0), qs).to_numeric(20)
        assert abs(a.value - b.value) <= a.err + b.err


def theta_truth(family, N):
    """Z(P_n, Q_N; 0) for a diagonal P_n of degree d from the theta-series
    closed form, term by term over Q_N: no quadrature at all."""
    n, d = family.n, family.polys[-1].degree()
    QN = build_QN(family, N)
    total = SpecialValue.make_exact(F(0))
    for beta, c in QN.canonical_items():
        total = total + theta_diagonal(n, d, beta, 0).scale(c)
    return total.to_numeric(30)


class TestDiagonalTruth:
    """diagonal_value against oracle.theta_diagonal, within its err."""

    def _check(self, fam, N, qs):
        v = diagonal_value(fam, N, qs).to_numeric(20)
        truth = theta_truth(fam, N)
        with mp.workdps(40):
            assert abs(v.value - truth.value) <= v.err + truth.err

    @pytest.mark.parametrize("N", [(N1, N2) for N1 in range(3) for N2 in range(2)])
    def test_quadratic(self, N):
        self._check(build_family([P("x1", 1), P("x1^2 + x2^2", 2)]), N, QS_FAST)

    def test_cubic_fourfold(self):
        fam = build_family(
            [P("x1", 1), P("x1 + x2", 2), P("x1 + x2 + x3", 3),
             P("x1^3 + x2^3 + x3^3 + x4^3", 4)]
        )
        self._check(fam, (0, 0, 0, 0), QuadratureSettings(rel_tol=1e-7, precision=20))

    def test_quadratic_threefold(self):
        fam = build_family([P("x1", 1), P("x1 + x2", 2), P("x1^2 + x2^2 + x3^2", 3)])
        self._check(fam, (1, 0, 1), QS_FAST)


class TestIntegerArguments:
    """build_QN's N and GammaFactorSpec's m are read by the package's one
    reader (DECISIONS.md D9)."""

    @pytest.mark.parametrize("x", [2.0, F(5, 2), "2"])
    def test_non_int_entry_rejected(self, x):
        with pytest.raises(ValueError, match="^N .* is not a tuple of integers$"):
            build_QN(euler_family(), (x, 0))

    def test_truncating_call_rejected(self):
        # returned Q_(1, 0) = x1 before
        with pytest.raises(ValueError, match=r"^N \(1\.5, 0\) is not a tuple of integers$"):
            build_QN(euler_family(), (1.5, 0))
        with pytest.raises(ValueError, match=r"^N \(0, -1\) has a negative entry$"):
            build_QN(euler_family(), (0, -1))

    def test_bools_are_ints(self):
        assert build_QN(euler_family(), (True, True)) == build_QN(euler_family(), (1, 1))

    def test_gamma_factor_m_read_as_int(self):
        # G_factor died with RecursionError in the one-variable reduction before
        with pytest.raises(ValueError, match=r"^m \(Fraction\(3, 2\),\) is not a tuple of integers$"):
            GammaFactorSpec(m=F(3, 2), mu=(F(1, 2),))
