"""Euler-Maclaurin continuation oracle vs the exact formulas and mpmath."""
import re
import time
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf

from zetapoly import (
    ContinuationDepthInsufficient,
    DomainViolation,
    EMSettings,
    Pole,
    PowerSumParams,
    PrecisionUnreachable,
    binom_rational,
    em_inner_sum,
    powersum2_numeric,
    riemann_zeta_exact_nonpositive,
    value_nonpositive,
    zeta1_numeric,
    zeta_riemann_em,
)
from zetapoly import oracle
from zetapoly._quadrature import gauss_legendre_01
from zetapoly.multipoly import weighted_partitions

EM = EMSettings(precision=25)


def _q(x):
    return mpf(x.numerator) / x.denominator


def binomial_hurwitz(a, b, d, s, dps=60):
    """sum_{m>=1} (b + a m^d)^{-s} from mpmath's Hurwitz zeta, independent of
    the oracle: a^{-s} zeta(s, b/a + 1) for d = 1, otherwise

        sum_{m<M} f(m) + a^{-s} sum_j C(-s, j) (b/a)^j zeta(ds + dj, M)

    with b/(a M^d) <= 1/2, so the terms fall at least like 2^-j."""
    a, b, s = F(a), F(b), F(s)
    with mp.workdps(dps):
        if d == 1:
            return _q(a) ** -_q(s) * mp.zeta(_q(s), _q(b / a) + 1)
        M = 1
        while 2 * b > a * M**d:
            M += 1
        sf = _q(s)
        head = mp.fsum((_q(b) + _q(a) * mpf(m) ** d) ** -sf for m in range(1, M))
        tail, c, j = mpf(0), mpf(1), 0
        while c != 0:
            term = c * _q(b / a) ** j * mp.zeta(d * (sf + j), M)
            tail += term
            c *= (-sf - j) / (j + 1)
            j += 1
            if j > 2 * abs(sf) + 2 and abs(term) < mpf(10) ** -(dps + 5):
                break
        return head + _q(a) ** -sf * tail


def assert_against_truth(v, truth, s, precision):
    """|v - truth| <= err; at fractional s also err <= 10^-precision max(1, |truth|)."""
    with mp.workdps(60):
        assert abs(v.value - truth) <= v.err, (mp.nstr(v.value - truth, 5), mp.nstr(v.err, 5))
        if F(s).denominator != 1:
            assert v.err <= mpf(10) ** -precision * max(1, abs(truth)), mp.nstr(v.err, 5)


class TestBetaIntegral:
    """oracle._tail_integral, the incomplete beta integral
    int_{M0}^oo (b + a x^d)^{-s} dx of the anchored evaluator."""

    def test_arctan(self):
        # int_2^oo dx / (1 + x^2) = arctan(1/2)
        with mp.workdps(35):
            v = oracle._tail_integral(F(1), F(1), 2, F(1), 2, mpf(10) ** -30)
            assert abs(v.value - mp.atan(mpf(1) / 2)) <= v.err
            assert abs(v.value - mp.atan(mpf(1) / 2)) < mpf(10) ** -25

    def test_quadrature_cross_check(self):
        # compare against direct numeric integration in a convergent case
        from zetapoly._quadrature import integrate_unit_cube

        with mp.workdps(30):
            v = oracle._tail_integral(F(2), F(3), 2, F(2), 2, mpf(10) ** -25)
            # substitute x = 2 + u/(1-u) to compress [2, oo)
            def f(u):
                x = 2 + u / (1 - u + mpf(10) ** -25)
                return (3 + 2 * x**2) ** mpf(-2) / (1 - u + mpf(10) ** -25) ** 2

            num, err = integrate_unit_cube(lambda axes: [f(u) for u in axes[0]], 1,
                                           rel_tol=1e-10, abs_tol=1e-18)
            assert abs(v.value - num) < mpf(10) ** -8


def f_derivative_at0(a, d, s, k):
    """k-th derivative of (1 + a x^d)^{-s} at 0 from the oracle's terms
    c x^xexp (1 + a x^d)^{-s-|alpha|} of f^(k): the terms with x-exponent 0."""
    return sum(c for c, xexp, _ in oracle._f_derivative_terms(F(a), d, F(s), k) if xexp == 0)


class TestFDerivative:
    def test_zero_when_not_divisible(self):
        assert f_derivative_at0(1, 3, 2, 4) == 0
        for d in (2, 3, 4):
            for k in range(1, 9):
                if k % d:
                    assert f_derivative_at0(2, d, F(1, 3), k) == 0

    def test_linear(self):
        assert f_derivative_at0(1, 1, -1, 1) == 1

    def test_quadratic(self):
        for s in (F(3), F(-2), F(1, 2)):
            assert f_derivative_at0(1, 2, s, 2) == -2 * s
        # k! C(-s, k/d) a^(k/d) in general
        for d in (1, 2, 3):
            for k in range(0, 9, d):
                for s in (F(-2), F(1, 2), F(5, 3)):
                    want = factorial(k) * binom_rational(-s, k // d) * F(3, 2) ** (k // d)
                    assert f_derivative_at0(F(3, 2), d, s, k) == want


class TestRemainderRule:
    """oracle._remainder_integral: each unit interval [m, m + 1] is the sum
    of c_i f^(2K)(m + t_i), over Gauss-Legendre weights times B_2K(t_i)
    built once per (K, order, precision), against an independent
    quadrature of f^(2K)(x) B_2K(x - m) / (2K)!."""

    def test_built_once_per_order_and_precision(self, monkeypatch):
        rule = oracle._remainder_rule
        rule.cache_clear()
        keys = []
        monkeypatch.setattr(oracle, "_remainder_rule",
                            lambda *key: keys.append(key) or rule(*key))
        em_inner_sum(F(1), F(1, 2), 1, F(1, 2), EM)
        first = list(keys)
        assert [order for _, order, _ in first] == [15, 8]
        assert rule.cache_info().misses == 2
        # the plan of zeta(-1/3) has the same order K: no rule is built
        keys.clear()
        zeta_riemann_em(F(-1, 3), EM)
        assert keys == first
        assert rule.cache_info().misses == 2
        keys.clear()
        em_inner_sum(F(1), F(1, 2), 1, F(1, 2), EM)
        assert keys == first
        assert rule.cache_info().misses == 2
        # another precision builds both rules of its own
        keys.clear()
        em_inner_sum(F(1), F(1, 2), 1, F(1, 2), EMSettings(precision=30))
        assert {prec for _, _, prec in keys} != {prec for _, _, prec in first}
        assert rule.cache_info().misses == 4

    @pytest.mark.parametrize("K, order", [(1, 8), (5, 15), (13, 15), (13, 8), (32, 15)])
    def test_weights_at_the_nodes(self, K, order):
        with mp.workdps(35):
            prec = mp.prec
            nodes, cw = oracle._remainder_rule(K, order, prec)
            gl_nodes, gl_weights = gauss_legendre_01(order)
        assert list(nodes) == gl_nodes
        with mp.workdps(80):
            for t, w, c in zip(nodes, gl_weights, cw):
                want = w * mp.bernpoly(2 * K, t)
                assert abs(c - want) <= abs(want) * mpf(2) ** (1 - prec)

    @staticmethod
    def _truth(a, b, d, s, K, M0, m_end):
        """sum over m of mpmath quad of f^(2K)(x) B_2K(x - m) / (2K)! on
        [m, m + 1]: f^(2K) in closed form, (-1)^n (s)_n a^n (b + a x)^(-s-n)
        with n = 2K, for d = 1, and by mp.diff otherwise."""
        n = 2 * K
        af, bf, sf = _q(a), _q(b), _q(s)
        if d == 1:
            def f(x):
                return (-1) ** n * mp.rf(sf, n) * af**n * (bf + af * x) ** (-sf - n)
        else:
            def f(x):
                return mp.diff(lambda y: (bf + af * y**d) ** -sf, x, n)
        return mp.fsum(mp.quad(lambda x, m=m: f(x) * mp.bernpoly(n, x - m), [m, m + 1])
                       for m in range(M0, m_end)) / factorial(n)

    @pytest.mark.parametrize("a, b, d, s, K, M0, m_end", [
        # the plans (M0, K, m_end) of em_inner_sum at 25 digits
        (F(1), F(1, 2), 1, F(1, 2), 13, 27, 28),
        (F(1), F(0), 1, F(-1, 3), 13, 26, 27),
        # several intervals
        (F(1), F(1, 2), 1, F(1, 2), 5, 2, 6),
        (F(3, 2), F(2, 3), 1, F(-5, 2), 4, 1, 5),
        (F(2), F(1, 3), 3, F(1, 5), 4, 2, 4),
        (F(1), F(1), 4, F(1, 3), 3, 1, 3),
        (F(1), F(1), 4, F(-1, 3), 3, 1, 4),
    ])
    def test_against_quadrature(self, a, b, d, s, K, M0, m_end):
        with mp.workdps(35):
            value, err = oracle._remainder_integral(a, b, d, s, K, M0, m_end)
        with mp.workdps(30):
            truth = self._truth(a, b, d, s, K, M0, m_end)
            assert abs(value - truth) <= err, (mp.nstr(value - truth, 5), mp.nstr(err, 5))
            assert err < abs(truth)


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
        # two different anchors and orders agree within the reported bounds
        s, d = F(9, 10), 2
        lo = em_inner_sum(F(1), F(2), d, s, EMSettings(precision=12))
        hi = em_inner_sum(F(1), F(2), d, s, EMSettings(precision=25))
        assert abs(lo.value - hi.value) <= lo.err + hi.err

    def test_domain(self):
        with pytest.raises(DomainViolation):
            em_inner_sum(F(0), F(1), 2, F(1), EM)
        with pytest.raises(DomainViolation):
            em_inner_sum(F(1), F(-1), 2, F(1), EM)

    @pytest.mark.parametrize("d", [0, -1])
    def test_degree_below_one(self, d):
        with pytest.raises(DomainViolation):
            em_inner_sum(F(1), F(1), d, F(1, 2), EM)

    @pytest.mark.parametrize("d", [2.0, F(5, 2)])
    def test_degree_not_an_int(self, d):
        # DECISIONS.md D9: 2.0 used to fail deep inside with a TypeError.
        with pytest.raises(DomainViolation, match=re.escape(f"degree d >= 1, got {d!r}")):
            em_inner_sum(F(1), F(1), d, F(-1, 2), EM)

    @pytest.mark.parametrize("precision", [0, -5])
    def test_precision_below_one_digit_rejected(self, precision):
        # DECISIONS.md D5: zeta(1/2) at precision 0 used to return -1.46035
        # +- 4.1e-8, and at -5 -1.46037 +- 1.4e-3
        with pytest.raises(ValueError, match="at least 1 digit"):
            EMSettings(precision=precision)

    def test_precision_above_the_cap_rejected(self):
        with pytest.raises(PrecisionUnreachable, match="above the cap of 4000 digits"):
            EMSettings(precision=4001)
        EMSettings(precision=4000)

    def test_depth_guard(self):
        with pytest.raises(ContinuationDepthInsufficient):
            em_inner_sum(F(1), F(1), 1, F(-200), EMSettings(precision=10))

    def test_truncation_not_above_anchor(self, monkeypatch):
        # M0 >= 1 and one remainder interval above it need truncation >= 2
        monkeypatch.setattr(oracle, "TRUNCATION", 1)
        with pytest.raises(ContinuationDepthInsufficient, match="truncation 1 must exceed 1"):
            zeta1_numeric(2, F(1), F(1, 3), EM)

    @pytest.mark.parametrize("a, b, d, s", [
        (F(2), F(1, 3), 3, F(1, 5)),
        (F(1), F(3), 2, F(-1, 3)),
        (F(2), F(3), 2, F(-1, 3)),
    ])
    def test_remainder_tail_fails_fast(self, a, b, d, s, monkeypatch):
        # at no order does the tail bound fall below tolerance within the
        # five unit steps the truncation allows; that is known before
        # anything is summed or integrated (at the default truncation these
        # converge: see TestTruthCorpus)
        monkeypatch.setattr(oracle, "TRUNCATION", 5)
        t0 = time.monotonic()
        with pytest.raises(ContinuationDepthInsufficient,
                           match="within 5 intervals"):
            em_inner_sum(a, b, d, s, EM)
        assert time.monotonic() - t0 < 5


class TestTruthCorpus:
    """em_inner_sum and zeta_riemann_em against mpmath: within err, and at
    fractional s within the requested precision."""

    @pytest.mark.parametrize("b", [F(1, 2), F(1), F(5, 2)])
    @pytest.mark.parametrize("s", [F(-3, 2), F(-1, 2), F(1, 3), F(3, 2), F(5, 2)])
    def test_hurwitz(self, b, s):
        v = em_inner_sum(F(1), b, 1, s, EM)
        with mp.workdps(50):
            truth = mp.zeta(_q(s), _q(b) + 1)
        assert_against_truth(v, truth, s, EM.precision)

    @pytest.mark.parametrize("t", [F(-5, 2), F(-1, 3), F(1, 2), F(3, 2), F(5, 2), F(7)])
    def test_riemann(self, t):
        v = zeta_riemann_em(t, EM)
        with mp.workdps(50):
            truth = mp.zeta(_q(t))
        assert_against_truth(v, truth, t, EM.precision)

    @pytest.mark.parametrize("a, b, d, s, precision", [
        (F(1), F(2), 2, F(9, 10), 12),
        (F(1), F(2), 2, F(9, 10), 25),
        (F(1), F(2), 2, F(9, 10), 30),
        (F(2), F(1, 3), 3, F(1, 5), 25),
        (F(1), F(3), 2, F(-1, 3), 25),
        (F(2), F(3), 2, F(-1, 3), 25),
        (F(1), F(1, 2), 2, F(1, 3), 25),
        (F(1), F(7), 4, F(3, 4), 20),
        (F(3), F(1, 5), 3, F(-5, 2), 20),
        (F(2), F(3), 2, F(4), 25),
        (F(1), F(1), 3, F(-2), 25),
    ])
    def test_binomial_hurwitz(self, a, b, d, s, precision):
        v = em_inner_sum(a, b, d, s, EMSettings(precision=precision))
        assert_against_truth(v, binomial_hurwitz(a, b, d, s), s, precision)

    @pytest.mark.parametrize("a, d, s", [
        (F(1), 2, F(-1, 2)),  # s = 1/d - 1: a pole of the b > 0 path, not of this one
        (F(2), 3, F(-2, 3)),  # s = 1/d - 1 again
        (F(3), 2, F(-1, 3)),
        (F(2), 2, F(3, 4)),
        (F(1, 2), 3, F(-5, 6)),
        (F(5, 2), 4, F(1)),
    ])
    def test_pure_power(self, a, d, s):
        # b = 0: sum_m (a m^d)^{-s} = a^{-s} zeta(d s)
        v = em_inner_sum(a, F(0), d, s, EM)
        with mp.workdps(50):
            truth = _q(a) ** -_q(s) * mp.zeta(d * _q(s))
        assert_against_truth(v, truth, s, EM.precision)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        a=st.sampled_from([F(1, 2), F(1), F(2), F(3)]),
        b=st.sampled_from([F(1, 3), F(1, 2), F(1), F(2), F(7, 2)]),
        d=st.integers(1, 3),
        s=st.builds(F, st.integers(-8, 12), st.sampled_from([2, 3, 4, 5])),
        precision=st.sampled_from([12, 20]),
    )
    def test_property(self, a, b, d, s, precision):
        pole = F(1, d) - s  # the poles of the continued sum
        assume(not (pole.denominator == 1 and pole >= 0))
        v = em_inner_sum(a, b, d, s, EMSettings(precision=precision))
        assert_against_truth(v, binomial_hurwitz(a, b, d, s), s, precision)


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

    @pytest.mark.parametrize("d", [0, -2])
    def test_degree_below_one(self, d):
        with pytest.raises(DomainViolation):
            zeta1_numeric(d, F(1), F(1, 2), EM)

    @pytest.mark.parametrize("d", [2.0, F(5, 2)])
    def test_degree_not_an_int(self, d):
        # DECISIONS.md D9: 5/2 used to return a value.
        with pytest.raises(DomainViolation, match=re.escape(f"degree d1 >= 1, got {d!r}")):
            zeta1_numeric(d, F(1), F(-1, 2), EM)

    @pytest.mark.parametrize("gamma, s", [(F(0), F(-1)), (F(-1), F(-1)), (F(0), F(1, 3))])
    def test_gamma_not_positive(self, gamma, s, monkeypatch):
        # gamma^-s needs gamma > 0, as PowerSumParams requires in exact mode;
        # the check comes before any work.
        import zetapoly.oracle as oracle

        monkeypatch.setattr(oracle, "zeta_riemann_em", None)
        with pytest.raises(DomainViolation):
            zeta1_numeric(2, gamma, s, EM)


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
        # decided exactly: the residual is the exact zero, not a small float
        res = powersum2_numeric(PowerSumParams.make((2, 3)), (0, 0), EM)
        assert res.residual._mpf_ == (0, 0, 0, 0) and res.K == 8

    def test_never_evaluates_blocks(self):
        # at the order K reported, every binomial C(-s2, |alpha|) weighting a
        # nested block of the remainder is exactly 0, so no block is needed;
        # (2, 9) at s2 = -2 raises K above its least value 8
        for d, s, K in [((2, 3), (0, 0), 8), ((2, 5), (0, -1), 8), ((2, 9), (0, -2), 12)]:
            res = powersum2_numeric(PowerSumParams.make(d), s, EM)
            assert res.K == K and res.residual == 0
            for alpha in weighted_partitions(2 * K, d[1]):
                assert binom_rational(-F(s[1]), sum(alpha)) == 0

    def test_order_leaves_no_residual_block(self):
        # powersum2_numeric reports the residual 0 without evaluating it: at
        # the order K of _order, 2K > 1 - d2 s2 and every binomial
        # C(-s2, |alpha|) weighting a nested block of the remainder is 0.
        orders = {(d2, s2, oracle._order(d1, d2, F(s1), F(s2)))
                  for d1 in range(1, 4) for d2 in range(1, 7)
                  for s1 in range(-3, 4) for s2 in range(0, -7, -1)}
        for d2, s2, K in orders:
            assert 2 * K > 1 - d2 * s2
            for size in {sum(alpha) for alpha in weighted_partitions(2 * K, d2)}:
                assert binom_rational(-F(s2), size) == 0

    def test_rejects_noninteger(self):
        p = PowerSumParams.make((2, 3))
        with pytest.raises(ValueError):
            powersum2_numeric(p, (F(1, 2), F(0)), EM)


class TestOracleBitIdentity:
    """(value._mpf_, err._mpf_) recorded from the anchored Euler-Maclaurin
    evaluator (DECISIONS.md D3), each beside a check against an independent
    truth.  CHANGES.md logs the literals these replaced, with
    |new - old| <= old err + new err for every case."""

    @pytest.mark.parametrize("d, gamma, s, bits", [
        ((2, 3), (F(1), F(1)), (0, 0),
         ((0, 1, -2, 1),
          (0, 32769, -133, 16))),
        ((2, 3), (F(1), F(1)), (0, -1),
         ((1, 46459885830272131544866079734684086470793, -143, 136),
          (0, 354477024803660487444021040542454033, -242, 119))),
        ((2, 3), (F(1), F(1)), (-1, -1),
         ((0, 0, 0, 0),
          (0, 0, 0, 0))),
        ((2, 3), (F(1), F(1, 2)), (0, -1),
         ((1, 46459885830272131544866079734684086470793, -144, 136),
          (0, 354477024803660487444021040542454033, -243, 119))),
        ((3, 2), (F(1), F(1)), (-1, 0),
         ((1, 708921597751955132215363765482850441, -127, 120),
          (0, 354471616161099513665241321275444429, -242, 119))),
        ((2, 5), (F(1), F(1)), (0, -1),
         ((0, 5530938789318110898198342825557629341761, -141, 133),
          (0, 675194332959353309417182934366579111, -244, 120))),
    ])
    def test_powersum2(self, d, gamma, s, bits):
        p = PowerSumParams.make(d, gamma)
        res = powersum2_numeric(p, s, EM)
        assert (res.value.value._mpf_, res.value.err._mpf_) == bits
        assert res.residual._mpf_ == (0, 0, 0, 0)
        with mp.workdps(60):
            assert abs(res.value.value - _q(value_nonpositive(p, s))) <= res.value.err

    @pytest.mark.parametrize("fn, args, bits", [
        (em_inner_sum, (F(1), F(1), 2, F(-1)),
         ((1, 1, -1, 1),
          (0, 1, -117, 1))),
        (em_inner_sum, (F(1), F(1), 1, F(-2)),
         ((1, 1, 0, 1),
          (0, 1, -116, 1))),
        (em_inner_sum, (F(2), F(3), 2, F(4)),
         ((0, 1139458307608073908033406546799666861, -129, 120),
          (0, 352991206760779815617239776330146317, -228, 119))),
        (em_inner_sum, (F(3), F(1, 5), 3, F(-2)),
         ((1, 850705917302346158658436518579420529, -126, 120),
          (0, 850705917302346158658436518579420529, -242, 120))),
        (zeta1_numeric, (3, F(2), F(-1)),
         ((0, 708921597751955132215363765482850441, -125, 120),
          (0, 46460594751869883499998295098449569351817, -257, 136))),
        (zeta1_numeric, (3, F(1), F(1, 2)),
         ((0, 868110612242783108347736368860821929, -118, 120),
          (0, 35516907676378513041477135986082342347451, -243, 135))),
        (zeta_riemann_em, (F(-3),),
         ((0, 708921597751955132215363765482850441, -126, 120),
          (0, 708921597751955132215363765482850441, -242, 120))),
        (zeta_riemann_em, (F(-1, 3),),
         ((1, 184326071812707706085983037813705925, -119, 118),
          (0, 558741361914227248871200782129635549, -222, 119))),
    ])
    def test_one_variable(self, fn, args, bits):
        v = fn(*args, EM)
        assert (v.value._mpf_, v.err._mpf_) == bits
        with mp.workdps(60):
            if fn is em_inner_sum:
                truth = binomial_hurwitz(*args)
            elif fn is zeta1_numeric:
                d1, gamma, s = args
                truth = _q(gamma) ** -_q(s) * mp.zeta(d1 * _q(s))
            else:
                truth = mp.zeta(_q(args[0]))
            assert abs(v.value - truth) <= v.err
