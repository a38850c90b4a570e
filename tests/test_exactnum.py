"""Exact kernel: Bernoulli numbers, binomials, Pochhammer, Gamma, zeta."""
import ast
import copy
import hashlib
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction as F
from functools import cache
from math import comb, floor, lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from zetapoly import (
    ConstantProduct,
    DegenerateFactor,
    Numeric,
    Pole,
    PrecisionUnreachable,
    SpecialValue,
    bernoulli,
    bernoulli_poly,
    bernoulli_tilde,
    binom_rational,
    binom_signed,
    gamma_rational,
    gamma_rational_numeric,
    pochhammer_shift,
    riemann_zeta_exact_nonpositive,
    riemann_zeta_numeric,
)
import zetapoly
from zetapoly import exactnum
from zetapoly.exactnum import (BERNOULLI_EAGER_MAX, _exact_root, _int_tuple, _normal_form,
                               mpf_from_rational, rat_to_str)


BERN_CHECKED = 1100


@cache
def _recurrence_table() -> list[F]:
    """B_0..B_BERN_CHECKED from sum_{j<=m} C(m+1, j) B_j = 0, in integers
    over D = lcm(1..BERN_CHECKED + 1), which every den B_j divides (von
    Staudt-Clausen); the division by m + 1 must then be exact."""
    D = lcm(*range(1, BERN_CHECKED + 2))
    scaled, row = [D], [1, 1]
    for m in range(1, BERN_CHECKED + 1):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]  # C(m+1, j)
        total = sum(row[j] * scaled[j] for j in [0, 1][:m] + list(range(2, m, 2)))
        q, r = divmod(-total, m + 1)
        assert r == 0
        scaled.append(q)
    return [F(x, D) for x in scaled]


def _fresh_stdout(code: str) -> str:
    """The stripped stdout of code run in a fresh interpreter on this
    test's sys.path, so it imports the package under test."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return proc.stdout.strip()


class TestBernoulli:
    def test_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == F(-1, 2)
        assert bernoulli(12) == F(-691, 2730)

    def test_tilde(self):
        assert bernoulli_tilde(1) == F(1, 2)
        assert bernoulli_tilde(2) == F(1, 6)
        assert bernoulli_tilde(3) == 0

    def test_odd_vanishing(self):
        for m in range(1, 31):
            assert bernoulli(2 * m + 1) == 0

    def test_tangent_table_matches_binomial_recurrence(self):
        # The table is built from tangent numbers; the O(m) binomial
        # recurrence sum_{j<=m} C(m+1, j) B_j = 0 it replaced is the check.
        assert [bernoulli(k) for k in range(BERN_CHECKED + 1)] == _recurrence_table()

    @pytest.mark.parametrize("steps", [
        [BERN_CHECKED],
        [129, 130, 131, 132, 257, 258, 400, 777, 778, 1000, 1099, BERN_CHECKED],
    ])
    def test_growth_steps_give_one_table(self, steps):
        # A fresh interpreter grows the table from its eager B_128 in these
        # steps; one jump and irregular steps must give the same numbers.
        code = (
            "import hashlib\n"
            "from zetapoly import bernoulli\n"
            f"for k in {steps!r}: bernoulli(k)\n"
            f"text = '\\n'.join(str(bernoulli(k)) for k in range({BERN_CHECKED + 1}))\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n"
        )
        want = "\n".join(str(b) for b in _recurrence_table())
        assert _fresh_stdout(code) == hashlib.sha256(want.encode()).hexdigest()

    def test_binomial_sum_identity(self):
        # sum_j C(k,j) B_j = (-1)^k B_k for k <= 60
        for k in range(61):
            s = sum(comb(k, j) * bernoulli(j) for j in range(k + 1))
            assert s == F(-1) ** k * bernoulli(k) == bernoulli_tilde(k)

    def test_poly(self):
        def at(k, x):
            return sum(c * x**j for j, c in enumerate(bernoulli_poly(k)))

        assert bernoulli_poly(0) == [F(1)]
        assert at(1, F(0)) == F(-1, 2)
        assert at(2, F(1, 2)) == F(-1, 12)

    def test_poly_at_zero_is_number(self):
        for k in range(12):
            assert bernoulli_poly(k)[0] == bernoulli(k)


class TestBinomials:
    def test_signed(self):
        assert binom_signed(1, 1) == 1
        assert binom_signed(2, 3) == 0
        assert binom_signed(-3, 2) == 6

    def test_signed_matches_product(self):
        from math import factorial

        for n in range(-6, 7):
            for k in range(6):
                prod = 1
                for t in range(k):
                    prod *= n - t
                assert binom_signed(n, k) == F(prod, factorial(k))

    def test_rational(self):
        assert binom_rational(F(-1, 2), 2) == F(3, 8)
        assert binom_rational(F(3), 2) == 3


class TestPochhammer:
    def test_examples(self):
        assert pochhammer_shift(F(1, 2), 0, 1) == F(-1, 2)
        assert pochhammer_shift(F(1, 3), 1, 1) == F(4, 9)
        assert pochhammer_shift(F(1, 2), 0, 2) == F(-1, 4)

    def test_factor_count_and_product(self):
        for M in range(3):
            for b in range(1, 4):
                x = F(2, 7)
                prod = F(1)
                count = 0
                for k in range(-M, b):
                    prod *= k - x
                    count += 1
                assert count == M + b
                assert pochhammer_shift(x, M, b) == prod

    def test_degenerate(self):
        with pytest.raises(DegenerateFactor):
            pochhammer_shift(F(1), 0, 2)


class TestGamma:
    def test_half(self):
        g = gamma_rational_numeric(F(1, 2), 50)
        with mp.workdps(60):
            assert abs(g.value - mp.sqrt(mp.pi)) < mpf(10) ** -48
            assert abs(g.value - mp.sqrt(mp.pi)) <= g.err

    def test_known_digits(self):
        with mp.workdps(40):
            for r, lead in [(F(1, 2), "1.7724538509"), (F(1, 3), "2.6789385347"),
                            (F(1, 4), "3.6256099082")]:
                g = gamma_rational_numeric(r, 30)
                assert mp.nstr(g.value, 11) == lead

    def test_reflection_within_bounds(self):
        # |Gamma(r) Gamma(1-r) - pi/sin(pi r)| <= combined error bounds
        with mp.workdps(60):
            for r in [F(1, 2), F(1, 3), F(1, 4), F(1, 6)]:
                a = gamma_rational_numeric(r, 40)
                b = gamma_rational_numeric(1 - r, 40)
                prod = a * b
                target = mp.pi / mp.sin(mp.pi * mpf_from_rational(r))
                assert abs(prod.value - target) <= prod.err + mpf(10) ** -55

    def test_cross_checks(self):
        with mp.workdps(50):
            g13 = gamma_rational_numeric(F(1, 3), 40)
            g23 = gamma_rational_numeric(F(2, 3), 40)
            assert abs(g13.value * g23.value - 2 * mp.pi / mp.sqrt(3)) < mpf(10) ** -38

    def test_general_argument(self):
        with mp.workdps(40):
            # Gamma(7/2) = 15 sqrt(pi) / 8
            g = gamma_rational(F(7, 2), 30)
            assert abs(g.value - 15 * mp.sqrt(mp.pi) / 8) < mpf(10) ** -28
            # Gamma(-3/2) = 4 sqrt(pi) / 3
            g = gamma_rational(F(-3, 2), 30)
            assert abs(g.value - 4 * mp.sqrt(mp.pi) / 3) < mpf(10) ** -28
            # integers are factorials
            assert gamma_rational(F(5), 30).value == 24

    @pytest.mark.parametrize("x, precision", [(F(61, 2), 50), (F(100, 3), 50), (F(40, 3), 10)])
    def test_argument_above_stirling_shift(self, x, precision):
        # floor(x) above the Stirling shift used to raise a bare AssertionError
        g = gamma_rational(x, precision)
        with mp.workdps(80):
            assert abs(g.value - mp.gamma(mpf(x.numerator) / x.denominator)) <= g.err

    # sha256 of repr(value._mpf_) and of repr(err._mpf_), recorded before
    # the Stirling series ran on running powers of z: the perfbench mix of
    # arguments and precisions, a negative argument and one above the shift.
    @pytest.mark.parametrize("x, precision, sha", [
        (F(7, 5), 30, "2bfb59c977236d708a04fe404a6650fd40e632f2736707dcb225600c18ca88eb"),
        (F(2, 3), 50, "2773304182ce2fa4812e359debe42e52e0b9e6736f1f72a21d2d82eb9abf34bf"),
        (F(11, 7), 80, "b6d96170eaa39e73a5f2062ae6de559bf84fb7ae4d2d567add494edeae33b71c"),
        (F(5, 4), 100, "7ca2cfbf159ce7efb7833fdb82fc602f255115e1c8aed35a0d3b79e4838050f7"),
        (F(-3, 2), 30, "9695a799326141bfbcc960b5b1e7a2215a74b1b10002f1576817f04e437f42f5"),
        (F(61, 2), 50, "5036464fb0a31502cbb791bf44bac89b8bf1d7a323475ec55cdb74e25e716107"),
    ])
    def test_value_bits(self, x, precision, sha):
        bits = tuple(int(t) for t in gamma_rational(x, precision).value._mpf_)
        assert hashlib.sha256(repr(bits).encode()).hexdigest() == sha

    @pytest.mark.parametrize("x, precision, sha", [
        (F(7, 5), 30, "82250b02e6dc45d3d030f6456596a66e44188542b8d7c1f824a5d23a4f3f5997"),
        (F(2, 3), 50, "284ed02892440cec56243b14c48f7b8c9c6e4442d8b9ec0d46b10b85cd2b485f"),
        (F(11, 7), 80, "fdae9993a08cd890fb0da1931e4fad9d3d8cd8aa4f2e812a54c1d0873d8186bb"),
        (F(5, 4), 100, "ca6928478158155f85fc2a5d6418994f840d3bc93cc0daa16f68d580496a0137"),
        (F(-3, 2), 30, "eb1ffa653d64dbcad83e8aa08054c9abcde0e7f0b30a5f66cbe285244ef58ed1"),
        (F(61, 2), 50, "eb9c04ee18666e3c97d11de598d9ed660bce00b3519264117b13be61e8ed0bcb"),
    ])
    def test_err_bits(self, x, precision, sha):
        bits = tuple(int(t) for t in gamma_rational(x, precision).err._mpf_)
        assert hashlib.sha256(repr(bits).encode()).hexdigest() == sha

    def test_pole_and_cap(self):
        with pytest.raises(Pole):
            gamma_rational(F(-2), 30)
        with pytest.raises(PrecisionUnreachable):
            gamma_rational_numeric(F(1, 3), 100000)
        with pytest.raises(ValueError):
            gamma_rational_numeric(F(3, 2), 30)


class TestZeta:
    def test_exact_nonpositive(self):
        assert riemann_zeta_exact_nonpositive(0) == F(-1, 2)
        assert riemann_zeta_exact_nonpositive(2) == 0
        assert riemann_zeta_exact_nonpositive(1) == F(-1, 12)
        assert riemann_zeta_exact_nonpositive(3) == F(1, 120)

    def test_numeric(self):
        with mp.workdps(50):
            z = riemann_zeta_numeric(F(2), 40)
            assert abs(z.value - mp.pi**2 / 6) < mpf(10) ** -38
            assert abs(z.value - mp.pi**2 / 6) <= z.err
            z3 = riemann_zeta_numeric(F(3), 40)
            assert abs(z3.value - mp.zeta(3)) < mpf(10) ** -38

    def test_numeric_domain(self):
        with pytest.raises(ValueError):
            riemann_zeta_numeric(F(1, 2), 30)

    # sha256 of repr(value._mpf_), recorded before the K search stopped at
    # the least sufficient order: that search leaves every value bit alone.
    @pytest.mark.parametrize("s, precision, sha", [
        (F(5, 2), 100, "19d1adc6fb28ffac06a0c0e68c1a581436747099f91c0a2edc4aff6cff134927"),
        (F(7, 3), 40, "9547dc095ae995ba5900e441a052d9c28424154e517d47394f70ea37454d413a"),
        (F(3), 60, "6271f1f462d1ce5b26fa4401e52b4759c36f817cb6a01b2ebcd36a38096cf5e0"),
        (F(2), 30, "2dec56f5a1683413c2608694c542500482aa85045540f5c553731039b1aaf6ce"),
        (F(2), 50, "e58f569c97af85420e50c4a6928b7e6ad041e0b915883e53d51a2c99a1f1b866"),
        (F(2), 70, "4ed49263aa3ac42679713a347f31f04631b5437140a117e2b71a7c93c748c169"),
        (F(2), 100, "7f10bee5023602633c436984523cb8c9f88796cd7358eb9a002349f36f474b9d"),
        (F(11, 7), 45, "3681aec9455b20621f656d05322daf22b0b7c625159b4a68a7dd0a563b713635"),
    ])
    def test_numeric_value_bits(self, s, precision, sha):
        z = riemann_zeta_numeric(s, precision)
        bits = tuple(int(x) for x in z.value._mpf_)
        assert hashlib.sha256(repr(bits).encode()).hexdigest() == sha

    # sha256 of repr(err._mpf_), recorded with the least sufficient order.
    @pytest.mark.parametrize("s, precision, sha", [
        (F(5, 2), 100, "38ba5f92fafb172861f8030f81f7c74718b09de39effd58ed64f4c3f5689eab8"),
        (F(7, 3), 40, "a4c4ba8896f7323525c90f5bb39fc4db4cece898b1c74afc1f1fd1472b2216bb"),
        (F(3), 60, "dd1cddb4fc2409aa55e00ef9050d2d98f36ea1496837a138a5a5a266ec721e5d"),
        (F(2), 30, "26464c93f826cb58b1fc5bda15640921c73371b77b1c3a8810d3d6905a10d941"),
        (F(2), 50, "4aac612b884cd073c1933faa4a4d95065b9498b37fdf3cc58ad15392a4dcb6e4"),
        (F(2), 70, "32691f08b1ffd9bea1521b51f81a6b96cb973a92246dd00a1bd114d911ebd719"),
        (F(2), 100, "d6fc0de1b4c2366501eb12560ee113778e9698ad0c9d26d3e78158924fca58f3"),
        (F(11, 7), 45, "593d7acbab18210fc651a2847b1acc61af8b9733ca04146c813cb88686289861"),
    ])
    def test_numeric_err_bits(self, s, precision, sha):
        z = riemann_zeta_numeric(s, precision)
        bits = tuple(int(x) for x in z.err._mpf_)
        assert hashlib.sha256(repr(bits).encode()).hexdigest() == sha

    @settings(max_examples=64, deadline=None, derandomize=True)
    @given(s=st.fractions(min_value=1, max_value=13, max_denominator=1000).filter(lambda x: x > 1),
           precision=st.integers(1, 120))
    @example(s=F(1001, 1000), precision=120)
    @example(s=F(11, 10), precision=60)
    def test_numeric_corpus(self, s, precision):
        z = riemann_zeta_numeric(s, precision)
        with mp.workdps(precision + 40):
            truth = mp.zeta(mpf_from_rational(s))
            assert abs(z.value - truth) <= z.err
            assert z.err <= mpf(10) ** -precision * truth

    def test_numeric_keeps_eager_bernoulli_table(self):
        # zeta(5/2) at 100 digits stops at order 43 and needs B_86; the
        # search used to run to order 314 and grow the table to B_632.
        code = (
            "from fractions import Fraction\n"
            "from zetapoly import exactnum\n"
            "exactnum.riemann_zeta_numeric(Fraction(5, 2), 100)\n"
            "print(len(exactnum._BERN) - 1)\n"
        )
        assert _fresh_stdout(code) == str(BERNOULLI_EAGER_MAX + 1)

    @pytest.mark.parametrize("precision", [0, -3])
    def test_precision_below_one_digit(self, precision):
        with pytest.raises(ValueError, match="at least 1 digit"):
            riemann_zeta_numeric(F(2), precision)
        with pytest.raises(ValueError, match="at least 1 digit"):
            gamma_rational(F(1, 3), precision)


class TestNumeric:
    def test_error_propagation(self):
        with mp.workdps(30):
            a = Numeric(mpf(2), mpf("1e-20"))
            b = Numeric(mpf(3), mpf("1e-20"))
            c = a * b
            assert c.value == 6
            assert c.err >= mpf("5e-20")
            d = a * a * a
            assert d.value == 8
            assert d.err >= mpf("1.2e-19")
            q = a * Numeric.from_rational(F(1, 3))
            assert abs(q.value - mpf(2) / 3) <= q.err
            s = c + b
            assert s.value == 9 and s.err >= mpf("6e-20")

    def test_from_rational_bound(self):
        with mp.workdps(30):
            x = Numeric.from_rational(F(1, 3))
            assert abs(x.value - mpf(1) / 3) <= x.err


class TestConstantProduct:
    """prod Gamma(f) prod b^x, the one type and the one evaluator of every
    product of Gamma values and powers (DECISIONS.md D18)."""

    def test_each_distinct_gamma_once_per_precision(self, monkeypatch):
        calls = []

        def counted(x, precision):
            calls.append((x, precision))
            return gamma_rational(x, precision)

        monkeypatch.setattr(exactnum, "gamma_rational", counted)
        ConstantProduct.to_numeric.cache_clear()
        cp = ConstantProduct((F(1, 3), F(1, 2), F(1, 3), F(1, 3)))
        v = cp.to_numeric(30)
        assert sorted(calls) == [(F(1, 3), 40), (F(1, 2), 40)]
        # An equal product, built anew, is not evaluated again at 30 digits.
        assert ConstantProduct((F(1, 2),) + (F(1, 3),) * 3).to_numeric(30) is v
        cp.to_numeric(50)
        assert len(calls) == 4

    @pytest.mark.parametrize("dps", [30, 100])
    def test_powers_against_mpmath(self, dps):
        # Gamma(1/3)^2 2^(1/3) (1/2)^(3/4)
        cp = ConstantProduct((F(1, 3), F(1, 3)), ((F(2), F(1, 3)), (F(1, 2), F(3, 4))))
        v = cp.to_numeric(dps)
        with mp.workdps(dps + 30):
            truth = mp.gamma(mpf(1) / 3) ** 2 * mp.cbrt(2) * mp.power(mpf(1) / 2, mpf(3) / 4)
            assert abs(v.value - truth) <= v.err <= truth * mpf(10) ** -dps

    def test_sorted_hashed_and_ordered(self):
        a = ConstantProduct((F(2, 3), F(1, 3)), ((F(3), F(1, 2)), (F(2), F(1, 3))))
        b = ConstantProduct([F(1, 3), F(2, 3)], [(F(2), F(1, 3)), (F(3), F(1, 2))])
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
        assert a.gammas == (F(1, 3), F(2, 3)) and a.powers == ((F(2), F(1, 3)), (F(3), F(1, 2)))
        # ordered as the tuple (gammas, powers)
        assert ConstantProduct((F(1, 3),)) < a < ConstantProduct((F(1, 3), F(2, 3), F(2, 3)))
        assert a < ConstantProduct((F(1, 2),))
        assert a.labels() == ["Gamma(1/3)", "Gamma(2/3)", "2^(1/3)", "3^(1/2)"]
        assert ConstantProduct().to_numeric(20) == Numeric(mpf(1), mpf(0))

    @pytest.mark.parametrize("gammas, powers", [
        ((F(0),), ()), ((F(1),), ()), ((F(3, 2),), ()), ((F(-1, 2),), ()),
        ((), ((F(0), F(1, 2)),)), ((), ((F(-2), F(1, 2)),)),
        ((), ((F(2), F(0)),)), ((), ((F(2), F(1)),)), ((), ((F(2), F(3, 2)),)),
        # rational powers are folded by the caller, not kept
        ((), ((F(4), F(1, 2)),)), ((), ((F(8, 27), F(2, 3)),)), ((), ((F(1), F(1, 2)),)),
    ])
    def test_bad_arguments_rejected(self, gammas, powers):
        with pytest.raises(ValueError):
            ConstantProduct(gammas, powers)


class TestNormalForm:
    """prod Gamma(x) prod b^y as c times one ConstantProduct, the one normal
    form of the diagonal forms and the directional limits (DECISIONS.md D19)."""

    def test_integer_argument_is_rational(self):
        # Gamma(1) = 1 is dropped; Gamma(4) = 3! = (1)_3
        assert _normal_form([F(1)], []) == (F(1), None)
        assert _normal_form([F(4), F(1)], []) == (F(6), None)

    def test_shift_into_unit_interval(self):
        # Gamma(7/3) = (1/3)(4/3) Gamma(1/3), Gamma(5/2) = (1/2)(3/2) Gamma(1/2)
        c, cp = _normal_form([F(7, 3), F(5, 2), F(2, 3)], [])
        assert c == F(4, 9) * F(3, 4)
        assert cp == ConstantProduct((F(1, 3), F(1, 2), F(2, 3)))

    def test_repeated_bases_are_summed(self):
        # 2^(1/2) 2^(1/3) = 2^(5/6); 3^(1/4) 3^(3/4) = 3
        c, cp = _normal_form([], [(F(2), F(1, 2)), (F(3), F(1, 4)), (F(2), F(1, 3)),
                                  (F(3), F(3, 4))])
        assert c == 3 and cp == ConstantProduct((), ((F(2), F(5, 6)),))

    def test_negative_and_integral_exponents(self):
        # 3^(-5/2) = 3^(-3) 3^(1/2); 5^2 and (2/7)^(-1) are rational
        c, cp = _normal_form([], [(F(3), F(-5, 2)), (F(5), F(2)), (F(2, 7), F(-1))])
        assert c == F(1, 27) * 25 * F(7, 2)
        assert cp == ConstantProduct((), ((F(3), F(1, 2)),))

    def test_rational_root_folds(self):
        # (8/27)^(-2/3) = 9/4 and 4^(1/2) = 2 leave only Gamma(1/2)
        c, cp = _normal_form([F(1, 2)], [(F(8, 27), F(-2, 3)), (F(4), F(1, 2))])
        assert c == F(9, 2) and cp == ConstantProduct((F(1, 2),))

    def test_nothing_left(self):
        assert _normal_form([], []) == (F(1), None)
        assert _normal_form([F(2)], [(F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))]) == (F(1, 2), None)

    # bases that repeat, with rational and irrational roots
    BASES = [F(1, 2), F(2), F(3), F(4), F(8, 27), F(5, 3)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(gammas=st.lists(st.fractions(min_value=0, max_value=6, max_denominator=8)
                           .filter(lambda x: x > 0), max_size=4),
           powers=st.lists(st.tuples(st.sampled_from(BASES),
                                     st.fractions(min_value=-3, max_value=3, max_denominator=6)),
                           max_size=5))
    def test_against_mpmath(self, gammas, powers):
        c, cp = _normal_form(gammas, powers)
        with mp.workdps(60):
            truth = mpf(1)
            for x in gammas:
                truth *= mp.gamma(mpf_from_rational(x))
            for b, y in powers:
                truth *= mp.power(mpf_from_rational(b), mpf_from_rational(y))
            got = mpf_from_rational(c) * (cp.to_numeric(50).value if cp else 1)
            assert abs(got - truth) <= abs(truth) * mpf(10) ** -40

    @staticmethod
    def _fraction_reference(gammas, powers):
        """The normal form as D19 first computed it, in Fractions throughout,
        with the product built by the public constructor."""
        num, den, fs = 1, 1, []
        for x in gammas:
            q = x.denominator
            m, r = divmod(x.numerator - 1, q)
            num, den = num * prod(range(r + 1, x.numerator, q)), den * q**m
            if r + 1 < q:
                fs.append(F(r + 1, q))
        ys = {}
        for b, y in powers:
            ys[b] = ys.get(b, 0) + y
        c, left = F(num, den), []
        for b, y in sorted(ys.items()):
            root = _exact_root(b, y.denominator)
            if root is None:
                c *= b ** floor(y)
                left.append((b, y - floor(y)))
            else:
                c *= root**y.numerator
        return c, ConstantProduct(fs, left) if fs or left else None

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(gammas=st.lists(st.fractions(min_value=0, max_value=9, max_denominator=12)
                           .filter(lambda x: x > 0), max_size=5),
           powers=st.lists(st.tuples(st.sampled_from(BASES + [F(1), F(9, 4), F(27)]),
                                     st.fractions(min_value=-4, max_value=4, max_denominator=6)),
                           max_size=6))
    # Gamma arguments above 1, equal bases, a base of 1, zero and negative
    # exponents, and rational roots such as (8/27)^(-2/3) = 9/4
    @example(gammas=[F(13, 4), F(1), F(7, 3), F(5)],
             powers=[(F(8, 27), F(-2, 3)), (F(1), F(1, 2)), (F(2), F(0)), (F(3), F(-5, 2)),
                     (F(3), F(1, 3)), (F(4), F(-1, 2)), (F(5, 3), F(4))])
    @example(gammas=[], powers=[(F(2), F(1, 2)), (F(2), F(-1, 2))])
    def test_matches_fraction_reference(self, gammas, powers):
        c, cp = _normal_form(gammas, powers)
        assert (c, cp) == self._fraction_reference(gammas, powers)
        assert type(c) is F and (cp is None or cp.gammas or cp.powers)

    def test_equal_products_are_one_object(self):
        # Gamma(4/3) 2^(3/2) and Gamma(1/3) 2^(1/2) 2^(0) leave the same
        # Gamma(1/3) 2^(1/2), given in another order and form each time
        c1, cp1 = _normal_form([F(4, 3)], [(F(2), F(3, 2))])
        c2, cp2 = _normal_form([F(1, 3), F(2)], [(F(2), F(0)), (F(2), F(1, 2))])
        assert (c1, c2) == (F(2, 3), 1) and cp1 is cp2
        assert cp1 == ConstantProduct((F(1, 3),), ((F(2), F(1, 2)),))
        # and for two longer lists that leave the same product
        _, cp3 = _normal_form([F(7, 3), F(1, 2)], [(F(3), F(1, 4)), (F(5), F(-1, 3))])
        _, cp4 = _normal_form([F(3, 2), F(1, 3)], [(F(5), F(2, 3)), (F(3), F(-3, 4))])
        assert cp3 is cp4


class TestSpecialValue:
    def test_exact_json(self):
        v = SpecialValue.make_exact(F(1, 4))
        assert v.to_json() == {"kind": "exact", "value": "1/4"}

    def test_mixed_merge_and_json(self):
        cp = ConstantProduct(gammas=(F(1, 2), F(1, 2)))
        v = SpecialValue.make_mixed(F(-1, 8), [(F(-1, 960), cp), (F(-1, 960), cp)])
        j = v.to_json()
        assert j["kind"] == "mixed"
        assert j["base"] == "-1/8"
        assert j["terms"] == [{"coeff": "-1/480", "consts": ["Gamma(1/2)", "Gamma(1/2)"]}]

    def test_mixed_terms_cancel_to_exact(self):
        cp = ConstantProduct(gammas=(F(1, 3),))
        v = SpecialValue.make_mixed(F(2), [(F(1), cp), (F(-1), cp)])
        assert v.kind == "exact" and v.exact == 2

    def test_mixed_to_numeric(self):
        cp = ConstantProduct(gammas=(F(1, 2), F(1, 2)))
        v = SpecialValue.make_mixed(F(-1, 8), [(F(-1, 480), cp)])
        with mp.workdps(50):
            num = v.to_numeric(40)
            target = -mp.pi / 480 - mpf(1) / 8
            assert abs(num.value - target) < mpf(10) ** -35

    def test_exact_to_numeric_any_precision(self):
        for dps in (15, 50, 120):
            n = SpecialValue.make_exact(F(22, 7)).to_numeric(dps)
            with mp.workdps(dps + 10):
                assert abs(n.value - mpf(22) / 7) <= n.err

    def test_addition(self):
        a = SpecialValue.make_exact(F(1, 2))
        cp = ConstantProduct(gammas=(F(1, 3),))
        b = SpecialValue.make_mixed(F(1, 2), [(F(2), cp)])
        c = a + b
        assert c.kind == "mixed" and c.base == 1 and c.terms == ((F(2), cp),)

    def test_arithmetic(self):
        # the values of the hand-written class this record replaced
        g, h = ConstantProduct((F(1, 3),)), ConstantProduct((F(1, 2), F(1, 2)))
        S = SpecialValue
        a, b = S.make_exact(F(1, 2)), S.make_exact(F(1, 3), flags=("f",))
        assert a + b == S.make_exact(F(5, 6), flags=("f",))
        assert (a + b).kind == "exact" and (a + b).base is None
        m = S.make_mixed(F(1, 4), [(F(3), h), (F(2), g)])
        assert m.terms == ((F(2), g), (F(3), h))
        # exact + mixed keeps the terms; mixed + mixed merges them, or
        # cancels them to an exact value
        assert a + m == S.make_mixed(F(3, 4), [(F(2), g), (F(3), h)])
        assert (m + m).terms == ((F(4), g), (F(6), h))
        c = m + S.make_mixed(F(-1, 4), [(F(-2), g)], flags=("x",))
        assert c == S.make_mixed(0, [(F(3), h)], flags=("x",)) and c.base == 0
        z = m + S.make_mixed(F(1), [(F(-2), g), (F(-3), h)])
        assert z == S.make_exact(F(5, 4)) and z.kind == "exact" and z.exact == F(5, 4)
        # scaling: the rational and each coefficient; by 0, an exact 0
        assert m.scale(F(-2, 3)) == S.make_mixed(F(-1, 6), [(F(-4, 3), g), (F(-2), h)])
        assert m.scale(0) == S.make_exact(0) and b.scale(3) == S.make_exact(1, flags=("f",))
        # mixed + numeric is numeric, to these bits, either way round
        mixed = S.make_mixed(F(-1, 8), [(F(-1, 480), h)], flags=("b",))
        num = S.make_numeric(Numeric(mpf(1) / 3, mpf(10) ** -20), flags=("a",))
        with mp.workdps(15):
            for r in (mixed + num, num + mixed):
                assert r.kind == "numeric" and r.flags == ("a", "b")
                assert r.num.value._mpf_ == (0, 476459267121690137339, -71, 69)
                assert r.num.err._mpf_ == (0, 554677372349069825501, -135, 69)
            s = num.scale(F(-2, 3))
            assert s.num.value._mpf_ == (1, 2001599834386887, -53, 51)
            assert s.num.err._mpf_ == (0, 843102266371159665323, -136, 70)
            assert s.flags == ("a",) and s.rational is None and s.exact is None

    def test_flags(self):
        v = SpecialValue.make_exact(F(1, 2))
        assert v.with_flags(()) is v
        w = v.with_flags(("b", "a", "b"))
        assert w.flags == ("a", "b") and w.with_flags(("a",)).flags == ("a", "b")
        # a record's equality is its fields, flags included
        assert w != v and w == SpecialValue.make_exact(F(1, 2), flags=("a", "b"))
        assert (v + w).flags == (w + v).flags == ("a", "b")

    def test_fields(self):
        cp = ConstantProduct((F(1, 3),))
        num = Numeric(mpf(1), mpf(0))
        # the raw constructor normalises: merged, nonzero, sorted terms, a
        # Fraction rational and sorted unique flags
        v = SpecialValue(1, [(1, cp), (F(-1, 2), cp)], None, ["b", "a", "a"])
        assert (v.rational, v.terms, v.num, v.flags) == (F(1), ((F(1, 2), cp),), None, ("a", "b"))
        assert type(v.rational) is F and v.kind == "mixed" and v.base == 1 and v.exact is None
        assert SpecialValue(F(2), [(1, cp), (-1, cp)]) == SpecialValue.make_exact(2)
        n = SpecialValue.make_numeric(num)
        assert (n.rational, n.terms, n.num, n.flags, n.kind) == (None, (), num, (), "numeric")
        assert n.exact is None and n.base is None and SpecialValue(None, (), num) == n
        with pytest.raises(ValueError, match="no rational part"):
            SpecialValue(F(1), (), num)
        for x in (v, n, SpecialValue.make_exact(F(1, 2), flags=("f",))):
            _round_trips(x)

    def test_rational_strings(self):
        assert rat_to_str(F(3, 4)) == "3/4"
        assert rat_to_str(F(5)) == "5"


class TestIntegerArguments:
    """The one reader of integer arguments (DECISIONS.md D9), and precision,
    which every settings object and kernel requires to be an int."""

    @pytest.mark.parametrize("xs", [(1, 2.0), (F(5, 2),), ("2",), 3, None])
    def test_non_int_rejected(self, xs):
        with pytest.raises(ValueError, match=r"^N .* is not a tuple of integers$"):
            _int_tuple(xs, "N")

    def test_length_and_sign(self):
        assert _int_tuple([True, 0, -2], "N") == (1, 0, -2)
        assert _int_tuple((), "N", 0, nonneg=True) == ()
        with pytest.raises(ValueError, match=r"^N \(1, 2\) has length 2, need 3$"):
            _int_tuple((1, 2), "N", 3)
        with pytest.raises(ValueError, match=r"^N \(1, -2\) has a negative entry$"):
            _int_tuple([1, -2], "N", 2, nonneg=True)

    ENTRIES = {  # entry -> a call at precision p
        "QuadratureSettings": lambda p: zetapoly.QuadratureSettings(precision=p),
        "EMSettings": lambda p: zetapoly.EMSettings(precision=p),
        "gamma_rational": lambda p: gamma_rational(F(1, 3), p),
        "gamma_rational_numeric": lambda p: gamma_rational_numeric(F(1, 3), p),
        "riemann_zeta_numeric": lambda p: riemann_zeta_numeric(F(3), p),
        "value_mixed_last_nonpositive": lambda p: zetapoly.value_mixed_last_nonpositive(
            zetapoly.PowerSumParams.make((2, 3)), (1, -1), p),
        "value_numeric_complex": lambda p: zetapoly.powersum.value_numeric_complex(
            zetapoly.PowerSumParams.make((2, 3)), (1, -1), p),
        "directional_limit": lambda p: zetapoly.directional_limit(
            zetapoly.PowerSumParams.make((3, 2, 2)),
            zetapoly.DirectionalSpec(N=(0, 0, 0), theta=(0, 0, 1)), p),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("p", [20.0, F(5, 2), "20"])
    def test_precision_not_an_int_rejected(self, entry, p):
        message = re.escape(f"precision must be an int, got {p!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.ENTRIES[entry](p)

    def test_truncating_calls_rejected(self):
        # both ran at the precision given, 20.5 and 20.7 digits, before
        with pytest.raises(ValueError, match=r"^precision must be an int, got 20\.5$"):
            zetapoly.QuadratureSettings(precision=20.5)
        with pytest.raises(ValueError, match=r"^precision must be an int, got 20\.7$"):
            gamma_rational(F(1, 3), 20.7)

    def test_bool_precision_is_one_digit(self):
        assert gamma_rational(F(1, 3), True) == gamma_rational(F(1, 3), 1)


def _record_cases():
    """(class, field names in today's order, positional arguments, the
    defaults of the fields a call may leave out) for every value record."""
    from zetapoly import _quadrature, identities, mahler, oracle, polyzeta, powersum, selftest
    from zetapoly.multipoly import MPoly

    one = Numeric(mpf(1), mpf(0))
    return [
        (Numeric, ("value", "err"), (mpf(1), mpf(2)), {}),
        (ConstantProduct, ("gammas", "powers"), ((F(1, 3),), ((F(2), F(1, 2)),)),
         {"gammas": (), "powers": ()}),
        (_quadrature.QuadratureSettings, ("rel_tol", "abs_tol", "precision"), (1e-8, 1e-20, 30),
         {"rel_tol": 1e-12, "abs_tol": 1e-30, "precision": 50}),
        (_quadrature._Cell, ("lo", "hi", "value", "est", "absmass"),
         ((F(0),), (F(1),), mpf(1), mpf(2), mpf(3)), {}),
        (oracle.EMSettings, ("precision",), (20,), {"precision": 30}),
        (oracle.PowerSum2Result, ("value", "residual", "K"), (one, mpf(0), 8), {}),
        (powersum.PowerSumParams, ("n", "d", "gamma", "numeric_gamma"),
         (2, (1, 2), (F(1), F(1, 2)), (1j, 2j)), {"numeric_gamma": None}),
        (powersum.DirectionalSpec, ("N", "theta"), ((0, 1), (F(1), F(2))), {}),
        (polyzeta.GammaFactorSpec, ("m", "mu"), (2, (F(1, 2), F(3))), {}),
        (polyzeta.PolyFamily, ("polys", "flags"), ((MPoly.one(1),), ("flag",)), {"flags": ()}),
        (mahler.CompositionFamily, ("n", "u"), (2, ((1, 0),)), {}),
        (mahler.ZMaster, ("key", "coeff", "value"), (None, F(1, 3), None), {}),
        (SpecialValue, ("rational", "terms", "num", "flags"),
         (F(1, 2), ((F(2), ConstantProduct((F(1, 3),))),), None, ("flag",)),
         {"terms": (), "num": None, "flags": ()}),
        (mahler.YExpansion, ("n", "coeffs", "precision"),
         (1, {(0,): SpecialValue.make_exact(F(1))}, 20), {"precision": 50}),
        (identities.IdentityReport, ("parameters", "lhs", "rhs", "equal", "label"),
         ((1, 2), F(1), F(1), True, "B3"), {}),
        (selftest.CriterionResult, ("index", "description", "passed", "elapsed", "limit", "detail"),
         (1, "criterion", True, 0.5, 10.0, "detail"), {"detail": ""}),
    ]


def _round_trips(x) -> None:
    """x survives copy.copy, copy.deepcopy and pickle: each gives an equal
    value of its class, with an equal hash when x has one."""
    try:
        h = hash(x)
    except TypeError:
        h = None
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x
        if h is not None:
            assert hash(y) == h


class TestRecords:
    """The value records are slotted classes with written-out __init__s
    (DECISIONS.md D20) that keep what their dataclasses gave: the
    signatures and defaults, == and the hash of the field tuple, the
    repr, and frozen fields.  Every record is frozen, and copies and
    pickles to an equal record."""

    @pytest.mark.parametrize("case", _record_cases(), ids=lambda c: c[0].__name__)
    def test_record(self, case):
        cls, names, args, defaults = case
        x = cls(*args)
        fields = tuple(getattr(x, f) for f in names)
        assert cls(**dict(zip(names, args))) == x
        _round_trips(x)
        assert x != object() and x != fields
        required = [a for f, a in zip(names, args) if f not in defaults]
        assert tuple(getattr(cls(*required), f) for f in defaults) == tuple(defaults.values())
        assert repr(x) == f"{cls.__name__}(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(names, fields)) + ")"
        assert not hasattr(x, "__dict__")
        if any(isinstance(v, dict) for v in fields):
            # YExpansion's coefficient dict: unhashable, as any record
            # with an unhashable field
            with pytest.raises(TypeError, match="unhashable"):
                hash(x)
        else:
            assert hash(x) == hash(fields)
        for f in names:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
                setattr(x, f, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{f}'"):
                delattr(x, f)
        assert tuple(getattr(x, f) for f in names) == fields

    def test_polynomials_copy_and_pickle(self):
        # an MPoly is a record of (nvars, terms), hashed by its own rule,
        # and a family holds MPolys
        from zetapoly.multipoly import MPoly
        from zetapoly.polyzeta import build_family

        x1, q = MPoly.parse("x1"), MPoly.parse("x1^2 + x2^2")
        for p in (x1, q, MPoly.zero(3), MPoly.one(0)):
            _round_trips(p)
        _round_trips(build_family([x1, q]))

    def test_one_record_base(self):
        # every value record is frozen: object.__setattr__ is exactnum._set
        # alone, there is no mutable record base, and Record alone defines
        # ==, assignment and deletion
        src = os.path.dirname(zetapoly.__file__)
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name)) as f:
                    text = f.read()
                assert "MutableRecord" not in text, name
                sets = re.findall(r"^(.*)object\.__setattr__", text, re.M)
                assert sets == (["_set = "] if name == "exactnum.py" else []), name
                for cls in ast.walk(ast.parse(text)):
                    if isinstance(cls, ast.ClassDef) and (name, cls.name) != ("exactnum.py", "Record"):
                        defs = {f.name for f in cls.body if isinstance(f, ast.FunctionDef)}
                        assert not defs & {"__eq__", "__setattr__", "__delattr__"}, (name, cls.name)

    def test_constant_product_order(self):
        a, b = ConstantProduct((F(1, 3),)), ConstantProduct((F(1, 2),), ((F(2), F(1, 2)),))
        assert a < b and a <= b and b > a and b >= a and sorted([b, a]) == [a, b]
        assert ConstantProduct([F(2, 3), F(1, 3)]).gammas == (F(1, 3), F(2, 3))
        with pytest.raises(TypeError):
            a < (F(1, 3),)

    def test_budgeted_settings_as_replaced(self, monkeypatch):
        # the second pass's settings: rel_tol tightened and the rest kept, as
        # dataclasses.replace(qs, rel_tol=..., abs_tol=...) gave.  The
        # rational cancels the master int_0^1 1 / (1 + x^2) = pi / 4 to 12
        # digits, so that the first pass misses its budget.
        from zetapoly import _quadrature
        from zetapoly._quadrature import QuadratureSettings, _MasterKey

        settings, constant = [], _quadrature.constant
        monkeypatch.setattr(_quadrature, "constant",
                            lambda key, qs: settings.append(qs) or constant(key, qs))
        key = _MasterKey((2, 1, (((0,), F(1)), ((2,), F(1))), (((0,), F(1)),), 1))
        with mp.workdps(40):
            near = F(mp.nstr(mp.pi / 4, 12))
        qs = QuadratureSettings(rel_tol=1e-6, abs_tol=1e-20, precision=25)
        v, _ = _quadrature._budgeted(-near, ((key, F(1)),), qs)
        assert settings == [qs, QuadratureSettings(settings[1].rel_tol, 1e-20, 25)]
        assert settings[1].rel_tol < 1e-18 and v.err <= qs.abs_tol + qs.rel_tol * abs(v.value)
        # A Gamma product is at its rounding after the first pass: no budget
        # above the rounding floor can ask it for more.
        settings.clear()
        cp = ConstantProduct((F(1, 3),) * 3, ((F(2), F(1, 3)),))
        with mp.workdps(40):
            near = F(mp.nstr(mp.gamma(mpf(1) / 3) ** 3 * mp.cbrt(2), 25))
        qs = QuadratureSettings(rel_tol=1e-12, abs_tol=1e-34, precision=25)
        _quadrature._budgeted(-near, ((cp, F(1)),), qs)
        assert settings == [qs]

    def test_no_dataclasses(self):
        src = os.path.dirname(zetapoly.__file__)
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name)) as f:
                    text = f.read()
                assert not re.search(r"^\s*(from|import)\s+dataclasses\b", text, re.M), name
        code = "import sys, zetapoly.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        assert _fresh_stdout(code) == "[]"
