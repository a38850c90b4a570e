"""Power-sum zeta values: predicates, recursion, closed forms, limits."""
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf

from zetapoly import (
    A_value,
    B_theta,
    C_value,
    DirectionalSpec,
    H_value,
    IraViolated,
    PositiveEntry,
    PowerSumParams,
    RegularityViolated,
    ThetaDegenerate,
    UnsupportedPoint,
    closed_even_tail,
    closed_last_minus1,
    closed_last_minus2,
    closed_zero,
    directional_limit,
    ira_ok,
    pochhammer_shift,
    regularity_ok,
    value_mixed_last_nonpositive,
    value_nonpositive,
)
from zetapoly.powersum import _exact_root


def params(d, gamma=None):
    return PowerSumParams.make(d, gamma)


class TestPredicates:
    def test_regularity(self):
        assert regularity_ok((2, 3))
        assert not regularity_ok((2, 2))
        assert not regularity_ok((1, 5))
        assert regularity_ok((2, 4, 8))
        assert regularity_ok((3, 4, 5, 7))

    def test_ira(self):
        ok, b = ira_ok((3, 2, 2))
        assert ok and b == 1
        ok, _ = ira_ok((2, 3, 4))
        assert not ok
        ok, b = ira_ok((5, 4, 4, 4, 4))
        assert ok and b == 1
        ok, _ = ira_ok((2, 3))  # needs n >= 3
        assert not ok


class TestRecursion:
    def test_origin(self):
        assert value_nonpositive(params((2, 3)), (0, 0)) == F(1, 4)

    def test_hand_unrolled(self):
        assert value_nonpositive(params((2, 3)), (0, -1)) == F(-1, 240)

    def test_trivial_zero(self):
        assert value_nonpositive(params((2, 4)), (-1, 0)) == 0

    def test_gamma_dependence(self):
        # base case carries gamma^{-N}
        v = value_nonpositive(params((2, 3), (F(1, 2), F(2))), (0, 0))
        assert v == F(1, 4)
        v = value_nonpositive(params((3,), (F(2),)), (-1,))
        assert v == 2 * F(1, 120)

    def test_guards(self):
        with pytest.raises(RegularityViolated):
            value_nonpositive(params((2, 2)), (0, 0))
        with pytest.raises(PositiveEntry):
            value_nonpositive(params((2, 3)), (1, -1))

    def test_exact_type(self):
        # field-membership claim, type level: results are Fractions
        v = value_nonpositive(params((2, 5), (F(1, 3), F(7, 2))), (-1, -2))
        assert isinstance(v, F)


class TestMixed:
    def test_agrees_with_exact_on_nonpositive(self):
        p = params((2, 3))
        for N in [(0, 0), (0, -1), (-2, -1)]:
            mixed = value_mixed_last_nonpositive(p, N)
            assert mixed.kind == "exact"
            assert mixed.exact == value_nonpositive(p, N)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        d=st.lists(st.integers(2, 8), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_agrees_with_exact_property(self, d, data):
        assume(regularity_ok(d))
        n = len(d)
        gamma = data.draw(st.lists(
            st.fractions(min_value=F(1, 9), max_value=F(9), max_denominator=9),
            min_size=n, max_size=n))
        assume(all(g > 0 for g in gamma))
        N = tuple(data.draw(st.lists(st.integers(-3, 0), min_size=n, max_size=n)))
        p = params(d, gamma)
        mixed = value_mixed_last_nonpositive(p, N)
        assert mixed.kind == "exact"
        assert mixed.exact == value_nonpositive(p, N)

    def test_corollary_zeta_link(self):
        # -2 * value at (1+N, -N) = zeta(2) for d = (2, 4)
        p = params((2, 4))
        with mp.workdps(40):
            for N in range(3):
                v = value_mixed_last_nonpositive(p, (1 + N, -N), precision=30)
                assert v.kind == "numeric"
                assert abs(-2 * v.num.value - mp.pi**2 / 6) < mpf(10) ** -12

    def test_finite_numeric_example(self):
        p = params((2, 3))
        v = value_mixed_last_nonpositive(p, (1, -1), precision=30)
        assert v.kind == "numeric"
        with mp.workdps(40):
            # -1/2 zeta(0) - (B_4/4) C(1,1) zeta(2)
            want = (
                mpf(1) / 4
                - mpf_from(F(-1, 30)) / 4 * (mp.pi**2 / 6)
            )
            assert abs(v.num.value - want) < mpf(10) ** -12

    def test_pole(self):
        p = params((1, 3))  # d1 = 1 fails regularity; use valid d but pole arg
        with pytest.raises(RegularityViolated):
            value_mixed_last_nonpositive(p, (2, -1))

    def test_unsupported_intermediate(self):
        # positive non-final entry propagating into a level >= 2 last slot
        p = params((2, 3, 5))
        with pytest.raises(UnsupportedPoint):
            value_mixed_last_nonpositive(p, (0, 3, -1))


def mpf_from(fr):
    return mpf(fr.numerator) / fr.denominator


class TestClosedForms:
    def test_zero(self):
        assert closed_zero(params((2, 4, 8))) == F(-1, 8)
        assert closed_zero(params((2, 3))) == F(1, 4)

    def test_last_minus1_example(self):
        assert closed_last_minus1(params((2, 3))) == F(-1, 240)

    def test_even_tail_example(self):
        assert closed_even_tail(params((2, 4)), (1, 0)) == 0
        v = closed_even_tail(params((3, 4)), (1, 0))
        assert v == F(-1, 2) * (-1) ** 3 * F(-1, 30) / 4 * 1

    def test_closed_zero_matches_recursion_random(self):
        rng = random.Random(11)
        done = 0
        while done < 10:
            n = rng.choice([2, 3, 4])
            d = tuple(rng.randint(2, 6) for _ in range(n))
            if not regularity_ok(d):
                continue
            p = params(d)
            assert closed_zero(p) == value_nonpositive(p, (0,) * n)
            done += 1

    def test_minus1_minus2_match_recursion_random(self):
        rng = random.Random(12)
        gs = [F(1), F(1, 2), F(2), F(3)]
        done = 0
        while done < 10:
            n = rng.choice([2, 3, 4])
            d = tuple(rng.randint(2, 6) for _ in range(n))
            if not regularity_ok(d):
                continue
            gamma = tuple(rng.choice(gs) for _ in range(n))
            p = params(d, gamma)
            assert closed_last_minus1(p) == value_nonpositive(p, (0,) * (n - 1) + (-1,))
            assert closed_last_minus2(p) == value_nonpositive(p, (0,) * (n - 1) + (-2,))
            done += 1

    def test_even_tail_matches_recursion(self):
        for d in [(2, 4), (3, 4), (2, 4, 8)]:
            p = params(d)
            n = len(d)
            for N in [(0,) * n, (1,) + (0,) * (n - 1), (1,) * n]:
                assert closed_even_tail(p, N) == value_nonpositive(
                    p, tuple(-x for x in N)
                )

    def test_drop_last_zero_remark(self):
        # value at (0,...,-l, 0) = -1/2 * value_{n-1} at (0,...,-l)
        for d in [(2, 3, 5), (3, 4, 5, 7)]:
            p = params(d)
            sub = params(d[:-1])
            n = len(d)
            for ell in (1, 2):
                lhs = value_nonpositive(p, (0,) * (n - 2) + (-ell, 0))
                rhs = F(-1, 2) * value_nonpositive(sub, (0,) * (n - 2) + (-ell,))
                assert lhs == rhs

    def test_hypothesis_violated(self):
        from zetapoly import HypothesisViolated

        with pytest.raises(HypothesisViolated):
            closed_even_tail(params((2, 3)), (0, 0))


class TestDirectional:
    def test_A_examples(self):
        assert A_value((3, 2, 2), (0, 0, 0)) == 1
        assert A_value((5, 4, 4, 4, 4), (0, 0, 0, 0, 0)) == 1
        # single-element range at u = -1 (the paper's product formula)
        assert A_value((3, 2, 2), (0, 1, 0)) == F(-3, 2)

    def test_A_matches_pochhammer_ratio(self):
        # A = prod_j (x_j)_{M_{j-1}, b} / (x_j)_{M_j, b} with x_j the tail sums
        for N in [(0, 0, 0), (0, 1, 0), (2, 1, 3), (1, 0, 2)]:
            d = (3, 2, 2)
            b = 1
            acc = F(1)
            n = 3
            for j in range(3, n + 1):
                xj = sum(F(1, d[k - 1]) for k in range(j, n + 1))
                acc *= pochhammer_shift(xj, sum(N[j - 2:]), b) / pochhammer_shift(
                    xj, sum(N[j - 1:]), b
                )
            assert A_value(d, N) == acc

    def test_B_theta_examples(self):
        assert B_theta((0, 0, 0), (F(0), F(0), F(1)), 1) == -1
        assert B_theta((0, 0, 0), (F(0), F(1), F(1)), 1) == F(-1, 2)
        assert B_theta((0, 1, 0), (F(0), F(0), F(1)), 1) == F(1, 2)

    def test_theta_degenerate(self):
        with pytest.raises(ThetaDegenerate):
            B_theta((0, 0, 0), (F(1), F(-1), F(1)), 1)
        with pytest.raises(ThetaDegenerate):
            DirectionalSpec(N=(0, 0, 0), theta=(F(0), F(1), F(0)))

    def test_H_examples(self):
        assert H_value(params((3, 2, 2)), (0, 0, 0)) == F(-1, 8)
        p5 = params((5, 4, 4, 4, 4))
        inner = value_nonpositive(params((5, 4, 4, 4)), (0, 0, 0, 0))
        assert H_value(p5, (0, 0, 0, 0, 0)) == F(-1, 2) * inner

    def test_H_with_nonempty_correction_sum(self):
        # hand-unrolled for d = (4,3,3,3), N = (0,0,0,1): the odd last
        # exponent activates the Bernoulli correction at every level
        p = params((4, 3, 3, 3))
        assert H_value(p, (0, 0, 0, 1)) == F(-1, 320)
        # the Bernoulli index 4*2+1 is odd, so the full limit is exact
        v = directional_limit(
            p, DirectionalSpec(N=(0, 0, 0, 1), theta=(F(0), F(0), F(0), F(1)))
        )
        assert v.kind == "exact" and v.exact == F(-1, 320)

    def test_H_even_last_is_half_inner(self):
        p = params((3, 2, 2))
        for N in [(1, 0, 2), (0, 2, 1)]:
            inner = value_nonpositive(
                params((3, 2)), (-N[0], -(N[1] + N[2]))
            )
            assert H_value(p, N) == F(-1, 2) * inner

    def test_golden_directional(self):
        p = params((3, 2, 2))
        spec = DirectionalSpec(N=(0, 0, 0), theta=(F(0), F(0), F(1)))
        v = directional_limit(p, spec)
        assert v.kind == "mixed"
        assert v.base == F(-1, 8)
        (coeff, cp), = v.terms
        assert coeff == F(1, 16) * F(-1, 30)
        assert cp.gammas == (F(1, 2), F(1, 2))
        with mp.workdps(50):
            num = v.to_numeric(40)
            assert abs(num.value - (-mp.pi / 480 - mpf(1) / 8)) < mpf(10) ** -30

    def test_theta_ratio_halves(self):
        p = params((3, 2, 2))
        v = directional_limit(p, DirectionalSpec(N=(0, 0, 0), theta=(F(0), F(1), F(1))))
        (coeff, _), = v.terms
        assert coeff == F(1, 16) * F(-1, 30) * F(1, 2)
        assert v.base == F(-1, 8)

    def test_theta_scaling_invariance(self):
        p = params((3, 2, 2))
        base = directional_limit(p, DirectionalSpec(N=(1, 0, 1), theta=(F(0), F(1), F(2))))
        scaled = directional_limit(
            p, DirectionalSpec(N=(1, 0, 1), theta=(F(0), F(3), F(6)))
        )
        assert base == scaled

    def test_even_index_collapses_to_exact(self):
        # B at an odd index vanishes, leaving the exact rational part
        p = params((4, 3, 3, 3))
        ok, b = ira_ok((4, 3, 3, 3))
        assert ok and b == 1
        v = directional_limit(p, DirectionalSpec(N=(0, 0, 0, 0), theta=(F(0), F(0), F(0), F(1))))
        assert v.kind == "exact"
        assert v.exact == H_value(p, (0, 0, 0, 0))

    def test_C_nonzero_on_grid(self):
        for d in [(3, 2, 2), (5, 4, 4, 4, 4), (4, 3, 3, 3)]:
            ok, b = ira_ok(d)
            assert ok
            n = len(d)
            for trial in range(8):
                rng = random.Random(trial)
                N = tuple(rng.randint(0, 2) for _ in range(n))
                assert C_value(d, N, b) != 0

    def test_C_matches_assembly_on_grid(self):
        # C theta_n / sum theta = A B_theta (-1)^{d_1(w+b)} / (prod_{j>=2} d_j (d_1(w+b)+1))
        thetas = [(F(0), F(1)), (F(1), F(2)), (F(-1, 3), F(1)), (F(5), F(-2))]
        for d in [(3, 2, 2), (4, 3, 3, 3), (5, 2, 6, 3), (5, 4, 4, 4, 4)]:
            ok, b = ira_ok(d)
            assert ok
            n = len(d)
            prod_d = 1
            for dj in d[1:]:
                prod_d *= dj
            for N in product(range(3), repeat=n):
                if n > 3 and sum(N) > 3:
                    continue
                w = sum(N)
                A = A_value(d, N)
                C = C_value(d, N, b)
                for t in thetas:
                    th = (F(0),) * (n - 2) + t
                    assembled = (A * B_theta(N, th, b) * (-1) ** (d[0] * (w + b))
                                 / (prod_d * (d[0] * (w + b) + 1)))
                    assert C * th[-1] / sum(th[1:]) == assembled

    def test_gamma_roots_numeric_fold(self):
        # gamma_2 = 2 is not a perfect square: result folds to numeric
        p = params((3, 2, 2), (F(1), F(2), F(1)))
        v = directional_limit(p, DirectionalSpec(N=(0, 0, 0), theta=(F(0), F(0), F(1))), precision=30)
        assert v.kind == "numeric"
        with mp.workdps(40):
            want = -mp.pi / 480 / mp.sqrt(2) - mpf(1) / 8
            assert abs(v.num.value - want) < mpf(10) ** -20

    def test_gamma_roots_exact_when_powers(self):
        # gamma_2 = 4 is a perfect square: stays mixed with exact coefficient
        p = params((3, 2, 2), (F(1), F(4), F(1)))
        v = directional_limit(p, DirectionalSpec(N=(0, 0, 0), theta=(F(0), F(0), F(1))))
        assert v.kind == "mixed"
        (coeff, _), = v.terms
        assert coeff == F(1, 16) * F(-1, 30) * F(1, 2)

    def test_huge_gamma_root_is_exact(self):
        # gamma_3 = 10^400 is past the float range; its square root 10^200
        # divides the Gamma-product coefficient exactly.
        spec = DirectionalSpec(N=(0, 0, 0), theta=(F(0), F(0), F(1)))
        big = directional_limit(params((3, 2, 2), (1, 1, 10**400)), spec)
        one = directional_limit(params((3, 2, 2)), spec)
        assert big.kind == one.kind == "mixed"
        assert big.terms[0][0] == one.terms[0][0] / 10**200

    def test_exact_root(self):
        assert _exact_root(F(7 * 10**300), 2) is None
        assert _exact_root(F(10**400), 2) == 10**200
        assert _exact_root(F(8, 27), 3) == F(2, 3)
        assert _exact_root(F(1), 5) == 1
        assert _exact_root(F(2, 9), 2) is None
        for r in range(1, 6):
            for v in range(1, 200):
                root = _exact_root(F(v), r)
                assert (root is not None) == (round(v ** (1 / r)) ** r == v)

    def test_ira_guard(self):
        with pytest.raises(IraViolated):
            directional_limit(
                params((2, 3, 4)),
                DirectionalSpec(N=(0, 0, 0), theta=(F(0), F(0), F(1))),
            )

    def test_transcendence_construction_numeric(self):
        # d = (d1, q, .., q) with n = q+1 and d1(|N|+b) odd: the value is a
        # nonzero rational multiple of Gamma(1/q)^q plus a rational.  Checked
        # numerically against an independent Gamma implementation.
        d = (5, 4, 4, 4, 4)
        p = params(d)
        ok, b = ira_ok(d)
        assert ok and b == 1 and (d[0] * (0 + b)) % 2 == 1
        spec = DirectionalSpec(N=(0,) * 5, theta=(F(0),) * 4 + (F(1),))
        v = directional_limit(p, spec)
        assert v.kind == "mixed"
        assert v.base == H_value(p, (0,) * 5) == F(-1, 32)
        (coeff, cp), = v.terms
        assert cp.gammas == (F(1, 4),) * 4
        from zetapoly import bernoulli

        assert coeff == C_value(d, (0,) * 5, 1) * bernoulli(6)
        with mp.workdps(50):
            want = mpf_from(coeff) * mp.gamma(mpf(1) / 4) ** 4 + mpf_from(v.base)
            got = v.to_numeric(40)
            assert abs(got.value - want) < mpf(10) ** -30

    def test_mixed_exponent_parity_golden(self):
        # d = (5,2,6,3), N = (0,0,0,2): odd last exponent, even Bernoulli
        # index 16, empty ratio products; hand-assembled coefficient is
        # (1/1728) B_16 on the product Gamma(1/6) Gamma(1/3) Gamma(1/2)
        d = (5, 2, 6, 3)
        ok, b = ira_ok(d)
        assert ok and b == 1
        p = params(d)
        v = directional_limit(
            p, DirectionalSpec(N=(0, 0, 0, 2), theta=(F(0), F(0), F(0), F(1)))
        )
        assert v.kind == "mixed"
        assert v.base == H_value(p, (0, 0, 0, 2)) == F(-1, 60480)
        (coeff, cp), = v.terms
        from zetapoly import bernoulli

        assert coeff == F(1, 1728) * bernoulli(16) == F(-3617, 881280)
        assert cp.gammas == (F(1, 6), F(1, 3), F(1, 2))

    def test_theta1_irrelevant(self):
        # the limit formula never involves theta_1; any value is accepted
        p = params((3, 2, 2))
        a = directional_limit(p, DirectionalSpec(N=(0, 0, 0), theta=(F(0), F(0), F(1))))
        b = directional_limit(p, DirectionalSpec(N=(0, 0, 0), theta=(F(5), F(0), F(1))))
        assert a == b

    def test_offset_golden_value(self):
        # hand-unrolled: at N = (1,0,1) the rational part hits a trivial zero
        # and the coefficient collapses to 1/1056, so the value is pi/1056
        p = params((3, 2, 2))
        v = directional_limit(p, DirectionalSpec(N=(1, 0, 1), theta=(F(0), F(0), F(1))))
        assert v.kind == "mixed" and v.base == 0
        (coeff, cp), = v.terms
        assert coeff == F(1, 1056) and cp.gammas == (F(1, 2), F(1, 2))
        with mp.workdps(45):
            assert abs(v.to_numeric(35).value - mp.pi / 1056) < mpf(10) ** -30


class TestComplexNumeric:
    def test_matches_exact_for_real_gamma(self):
        from zetapoly.powersum import value_numeric_complex

        p = params((2, 3))
        got = value_numeric_complex(p, (0, -1))
        assert abs(got - complex(F(-1, 240))) < 1e-12

    def test_complex_gamma_linearity(self):
        from zetapoly.powersum import value_numeric_complex

        g2 = 1 + 1j
        p = PowerSumParams(n=2, d=(2, 3), gamma=(F(1), F(1)),
                           numeric_gamma=(1 + 0j, g2))
        got = value_numeric_complex(p, (0, -1))
        assert abs(got - (-g2 / 240)) < 1e-12

    @pytest.mark.parametrize("d, gamma, N", [
        ((2, 3), (F(1), F(1)), (1, -1)),  # reaches zeta(2)
        ((2, 3), (F(1, 2), F(3)), (2, -1)),  # reaches zeta(4) and zeta(2)
        ((2, 4), (F(2), F(1, 3)), (3, -2)),
    ])
    def test_positive_argument_matches_mixed(self, d, gamma, N):
        from zetapoly.powersum import value_numeric_complex

        p = params(d, gamma)
        got = value_numeric_complex(p, N)
        want = value_mixed_last_nonpositive(p, N, precision=30)
        assert want.kind == "numeric"
        assert abs(got - complex(want.num.value)) < 1e-12 * max(1, abs(got))

    def test_rejects_nonpositive_real_part(self):
        from zetapoly.powersum import value_numeric_complex

        p = PowerSumParams(n=2, d=(2, 3), gamma=(F(1), F(1)),
                           numeric_gamma=(-1 + 0j, 1 + 0j))
        with pytest.raises(ValueError):
            value_numeric_complex(p, (0, 0))
