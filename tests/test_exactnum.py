"""Exact kernel: Bernoulli numbers, binomials, Pochhammer, Gamma, zeta."""
import hashlib
import os
import subprocess
import sys
from fractions import Fraction as F
from functools import cache
from math import comb, lcm
from pathlib import Path

import pytest
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
from zetapoly.exactnum import mpf_from_rational, rat_to_str


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
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = (
            "import hashlib\n"
            "from zetapoly import bernoulli\n"
            f"for k in {steps!r}: bernoulli(k)\n"
            f"text = '\\n'.join(str(bernoulli(k)) for k in range({BERN_CHECKED + 1}))\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        want = "\n".join(str(b) for b in _recurrence_table())
        assert proc.stdout.strip() == hashlib.sha256(want.encode()).hexdigest()

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

    # sha256 of repr((value._mpf_, err._mpf_)), recorded before the K search
    # and the sum shared their coefficients.
    @pytest.mark.parametrize("s, precision, sha", [
        (F(5, 2), 100, "5e12cf8abf50dc38b3b9d9c642bcb2231ae8fbe2bf8406a18a3db06c01d695eb"),
        (F(7, 3), 40, "dd4ed42e2e0574298489f44779a579e922508b941d61b572b46bcf2025731bce"),
        (F(3), 60, "b4672e0075d56ae8553098f3aaf8a29dd153f7dfaf6e9bb1630f1d56a62385cb"),
        (F(2), 30, "6f734ce02c5be20cb7801efc9db2119cd3eb6414ccc87f82d72c433ade665fd1"),
        (F(2), 50, "b7d55bf0e5a3e24864edbb0ac1f1d80b515de53dbb72cbcd073d1e2209916a48"),
        (F(2), 70, "1f2ca7d9ff972ba596ac95b7d17ce8c7d612641e77cda83d7fc23416a59358e2"),
        (F(2), 100, "8713d2bf4ab4d5c9bf99bda0e2b23be1673be09f9eae4d3d88ba7bb145222d1b"),
        (F(11, 7), 45, "456a29237345363b3e11cbce82c6074f85211b1b66728d091cf7122663c60eb4"),
    ])
    def test_numeric_bits(self, s, precision, sha):
        z = riemann_zeta_numeric(s, precision)
        bits = tuple(tuple(int(x) for x in v._mpf_) for v in (z.value, z.err))
        assert hashlib.sha256(repr(bits).encode()).hexdigest() == sha

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

    def test_rational_strings(self):
        assert rat_to_str(F(3, 4)) == "3/4"
        assert rat_to_str(F(5)) == "5"
