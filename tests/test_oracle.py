"""Euler-Maclaurin continuation oracle vs the exact formulas."""
import time
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
from zetapoly import oracle
from zetapoly.exactnum import bernoulli_poly, mpf_from_rational
from zetapoly.multipoly import weighted_partitions

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

    @pytest.mark.parametrize("a, b, d, s", [
        (F(2), F(1, 3), 3, F(1, 5)),
        (F(1), F(3), 2, F(-1, 3)),
        (F(2), F(3), 2, F(-1, 3)),
    ])
    def test_remainder_tail_fails_fast(self, a, b, d, s):
        # the tail bound is still above tolerance after the last interval
        # the truncation allows; that is known before integrating anything
        t0 = time.monotonic()
        with pytest.raises(ContinuationDepthInsufficient,
                           match="within 400 intervals"):
            em_inner_sum(a, b, d, s, EM)
        assert time.monotonic() - t0 < 5


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
        # the blocks the zero binomials multiply are finite and actually
        # computed, at the diagnostic 16 digits
        K = res.K
        diag = EMSettings(K=K, truncation=EM.truncation, precision=16, quad=EM.quad)
        blocks = []
        with mp.workdps(EM.precision + 10):
            bern = [mpf_from_rational(c) for c in bernoulli_poly(2 * K)]
            for alpha in weighted_partitions(2 * K, 3):
                _, xexp = oracle._alpha_weight(alpha, 3, F(1))
                blocks.append(oracle._z_block(2, F(1), 3, F(1), F(sum(alpha)), 0,
                                              xexp, bern, diag))
        assert all(mp.isfinite(b) for b in blocks)
        assert max(abs(b) for b in blocks) > 0

    def test_never_evaluates_blocks(self, monkeypatch):
        # every binomial C(-s2, |alpha|) is exactly 0, so no block is needed
        def no_block(*args):
            raise AssertionError("residual block evaluated")

        monkeypatch.setattr(oracle, "_z_block", no_block)
        for d, gamma, s in [((2, 3), (F(1), F(1)), (0, 0)),
                            ((2, 5), (F(1), F(1)), (0, -1))]:
            res = powersum2_numeric(PowerSumParams.make(d, gamma), s, EM)
            assert res.residual == 0

    def test_rejects_noninteger(self):
        p = PowerSumParams.make((2, 3))
        with pytest.raises(ValueError):
            powersum2_numeric(p, (F(1, 2), F(0)), EM)


class TestOracleBitIdentity:
    """(value._mpf_, err._mpf_) recorded while the residual blocks were still
    evaluated and every Bernoulli weight recomputed at every node; skipping
    the zero-binomial blocks and memoising the weights must keep every bit."""

    @pytest.mark.parametrize("d, gamma, s, bits", [
        ((2, 3), (F(1), F(1)), (0, 0),
         ((0, 1, -2, 1), (0, 6701169, -132, 23))),
        ((2, 3), (F(1), F(1)), (0, -1),
         ((1, 46459885830272131544866079734684086470793, -143, 136),
          (0, 224193577403320570696441524174909167, -221, 118))),
        ((2, 3), (F(1), F(1)), (-1, -1),
         ((0, 0, 0, 0), (0, 1308562095847650597547914578747125487, -217, 120))),
        ((2, 3), (F(1), F(1, 2)), (0, -1),
         ((1, 46459885830272131544866079734684086470793, -144, 136),
          (0, 448318024425602783207277127032303343, -222, 119))),
        ((3, 2), (F(1), F(1)), (-1, 0),
         ((1, 88615199718994391526920470685356305, -124, 117),
          (0, 524451245604183253906791402289828113, -219, 119))),
        ((2, 5), (F(1), F(1)), (0, -1),
         ((0, 5530938789318110898198342825557629341761, -141, 133),
          (0, 896629465005392389444496547272462401, -223, 120))),
    ])
    def test_powersum2(self, d, gamma, s, bits):
        res = powersum2_numeric(PowerSumParams.make(d, gamma), s, EM)
        assert (res.value.value._mpf_, res.value.err._mpf_) == bits
        assert res.residual._mpf_ == (0, 0, 0, 0)

    @pytest.mark.parametrize("fn, args, bits", [
        (em_inner_sum, (F(1), F(1), 2, F(-1)),
         ((1, 1, -1, 1), (0, 65539, -133, 17))),
        (em_inner_sum, (F(1), F(1), 1, F(-2)),
         ((1, 43556142965880123323311949751266331069099, -135, 136),
          (0, 5318426403056736149673549635884067499, -238, 123))),
        (em_inner_sum, (F(2), F(3), 2, F(4)),
         ((0, 142432288451009238504175818349963947, -126, 117),
          (0, 874108920845696173799793994226107271, -212, 120))),
        (em_inner_sum, (F(3), F(1, 5), 3, F(-2)),
         ((1, 8424983333484574935833442214693634585511607632043928900344878203, -219, 213),
          (0, 103531987377900227456789723425677983660544173812802828528556850462229, -440, 226))),
        (zeta1_numeric, (3, F(2), F(-1)),
         ((0, 88615199718994391526920470685356305, -122, 117),
          (0, 68740873663746997416055747387499236888849, -234, 136))),
        (zeta1_numeric, (3, F(1), F(1, 2)),
         ((0, 434055306121391554173868184430410963, -117, 119),
          (0, 39187472235180051517491782961560238102173, -245, 135))),
        (zeta_riemann_em, (F(-3),),
         ((0, 88615199718994391526920470685356305, -123, 117),
          (0, 3389186739, -131, 32))),
        (zeta_riemann_em, (F(-1, 3),),
         ((1, 368652143625415412171966075627411749, -120, 119),
          (0, 1190572235268650534946075089437418367, -227, 120))),
    ])
    def test_one_variable(self, fn, args, bits):
        v = fn(*args, EM)
        assert (v.value._mpf_, v.err._mpf_) == bits
