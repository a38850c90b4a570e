"""Euler-Maclaurin continuation oracle vs the exact formulas."""
from fractions import Fraction as F

import pytest
from mpmath import mp, mpf

from zetapoly import (
    ContinuationDepthInsufficient,
    DomainViolation,
    EMSettings,
    Pole,
    PowerSumParams,
    beta_integral,
    em_inner_sum,
    f_derivative_at0,
    powersum2_numeric,
    riemann_zeta_exact_nonpositive,
    value_nonpositive,
    zeta1_numeric,
    zeta_riemann_em,
)

EM = EMSettings(precision=25)


class TestBetaIntegral:
    def test_geometric(self):
        v = beta_integral(F(1), F(1), 1, F(2), 25)
        assert abs(v.value - 1) <= v.err + mpf(10) ** -20

    def test_arctan(self):
        v = beta_integral(F(1), F(1), 2, F(1), 25)
        with mp.workdps(35):
            assert abs(v.value - mp.pi / 2) < mpf(10) ** -20

    def test_domain(self):
        with pytest.raises(DomainViolation):
            beta_integral(F(1), F(1), 2, F(1, 2), 25)

    def test_quadrature_cross_check(self):
        # compare against direct numeric integration in a convergent case
        from zetapoly._quadrature import integrate_unit_cube, pointwise

        with mp.workdps(30):
            v = beta_integral(F(2), F(3), 2, F(2), 25)
            # substitute x = u/(1-u) to compress [0, oo)
            def f(pt):
                u = pt[0]
                x = u / (1 - u + mpf(10) ** -25)
                return (3 + 2 * x**2) ** mpf(-2) / (1 - u + mpf(10) ** -25) ** 2

            num, err = integrate_unit_cube(pointwise(f), 1, rel_tol=1e-10,
                                           abs_tol=1e-18, max_subdivisions=4000)
            assert abs(v.value - num) < mpf(10) ** -8


class TestFDerivative:
    def test_zero_when_not_divisible(self):
        assert f_derivative_at0(F(1), F(1), 3, F(2), 4) == 0

    def test_linear(self):
        assert f_derivative_at0(F(1), F(1), 1, F(-1), 1) == 1

    def test_quadratic(self):
        for s in (F(3), F(-2), F(1, 2)):
            v = f_derivative_at0(F(1), F(1), 2, s, 2)
            if isinstance(v, F):
                assert v == -2 * s
            else:
                assert abs(v.value - (-2 * float(s))) < 1e-15

    def test_exactness_flag(self):
        assert isinstance(f_derivative_at0(F(1), F(2), 2, F(3), 2), F)
        out = f_derivative_at0(F(1), F(2), 2, F(1, 2), 2)
        assert not isinstance(out, F)


class TestEmInnerSum:
    def test_convergent_direct_sum(self):
        # sum (1+m)^{-3} = zeta(3) - 1
        v = em_inner_sum(F(1), F(1), 1, F(3), EM)
        with mp.workdps(35):
            want = mp.zeta(3) - 1
            assert abs(v.value - want) <= v.err + mpf(10) ** -10
            assert abs(v.value - want) < mpf(10) ** -10

    def test_continuation_value(self):
        # sum (1+m^2)^{-s} at s = -1 is zeta(0) + zeta(-2) = -1/2
        v = em_inner_sum(F(1), F(1), 2, F(-1), EM)
        assert abs(v.value - mpf(-0.5)) <= v.err + mpf(10) ** -15

    def test_shifted_zeta_continuation(self):
        # sum (1+m)^{-s} is zeta(s) - 1; its continuation at s = -2 is -1
        # (not the termwise-regularized binomial value, which differs for
        # d = 1 because the naive expansion crosses the zeta pole)
        v = em_inner_sum(F(1), F(1), 1, F(-2), EM)
        want = riemann_zeta_exact_nonpositive(2) - 1
        assert abs(v.value - mpf(want.numerator) / want.denominator) < mpf(10) ** -15

    def test_convergent_region_consistency(self):
        # large Re s: matches a brute-force truncated sum
        v = em_inner_sum(F(2), F(3), 2, F(4), EM)
        with mp.workdps(35):
            brute = sum((3 + 2 * mpf(m) ** 2) ** -4 for m in range(1, 4000))
            assert abs(v.value - brute) < mpf(10) ** -12

    def test_order_stability(self):
        # K -> K+2 changes nothing beyond the reported bounds
        s, d = F(9, 10), 2
        lo = em_inner_sum(F(1), F(2), d, s, EMSettings(K=6, precision=12))
        hi = em_inner_sum(F(1), F(2), d, s, EMSettings(K=8, precision=12))
        assert abs(lo.value - hi.value) <= lo.err + hi.err

    def test_depth_guard(self):
        with pytest.raises(ContinuationDepthInsufficient):
            em_inner_sum(F(1), F(1), 1, F(-200), EMSettings(K=4, precision=10))


class TestZeta1:
    def test_match_exact_grid(self):
        # |zeta1(d, gamma, -N) - gamma^N zeta(-dN)| <= 1e-8
        with mp.workdps(35):
            for d in (2, 3):
                for gamma in (F(1), F(1, 2)):
                    for N in range(5):
                        got = zeta1_numeric(d, gamma, F(-N), EM)
                        want = gamma**N * riemann_zeta_exact_nonpositive(d * N)
                        wantf = mpf(want.numerator) / want.denominator
                        assert abs(got.value - wantf) < mpf(10) ** -8
                        assert abs(got.value - wantf) <= got.err + mpf(10) ** -12

    def test_scaled_example(self):
        got = zeta1_numeric(3, F(2), F(-1), EM)
        assert abs(got.value - mpf(1) / 60) < mpf(10) ** -9

    def test_exact_vs_oracle_small(self):
        # zeta(-M) against the continuation for M <= 6
        for M in range(7):
            z = zeta_riemann_em(F(-M), EM)
            want = riemann_zeta_exact_nonpositive(M)
            assert abs(z.value - mpf(want.numerator) / want.denominator) < mpf(10) ** -8

    def test_pole(self):
        with pytest.raises(Pole):
            zeta1_numeric(1, F(1), F(1), EM)


class TestPowerSum2:
    def test_six_configurations(self):
        cases = [
            ((2, 3), (F(1), F(1)), (0, 0)),
            ((2, 3), (F(1), F(1)), (0, -1)),
            ((2, 3), (F(1), F(1)), (-1, -1)),
            ((2, 3), (F(1), F(1, 2)), (0, -1)),
            ((3, 2), (F(1), F(1)), (-1, 0)),
            ((2, 5), (F(1), F(1)), (0, -1)),
        ]
        for d, gamma, s in cases:
            p = PowerSumParams.make(d, gamma)
            want = value_nonpositive(p, s)
            res = powersum2_numeric(p, s, EM)
            wf = mpf(want.numerator) / want.denominator
            assert abs(res.value.value - wf) < mpf(10) ** -6, (d, gamma, s)
            assert res.residual < mpf(10) ** -6

    def test_residual_reported(self):
        p = PowerSumParams.make((2, 3))
        res = powersum2_numeric(p, (0, 0), EM)
        assert res.residual == 0
        assert res.max_block > 0  # blocks are finite and actually computed

    def test_rejects_noninteger(self):
        p = PowerSumParams.make((2, 3))
        with pytest.raises(ValueError):
            powersum2_numeric(p, (F(1, 2), F(0)), EM)
