"""Bernoulli identities from the two value formulas."""
import contextlib
import hashlib
import io
from fractions import Fraction as F
from math import comb, factorial, perm

from hypothesis import given, settings, strategies as st

from zetapoly import (
    bernoulli,
    bernoulli_tilde,
    double_B3,
    double_B6,
    verify_identity_grid,
    zeta_neg_closed,
    zeta_neg_via_B1,
)
from zetapoly.cli import main
from zetapoly.identities import _b6_inner, _bernoulli_pairs, _bernoulli_scaled, _tilde_pair_sums


class TestSingle:
    def test_examples(self):
        assert zeta_neg_via_B1(0) == F(-1, 2)
        assert zeta_neg_via_B1(1) == F(-1, 12)
        assert zeta_neg_via_B1(2) == 0
        assert zeta_neg_closed(0) == F(-1, 2)
        assert zeta_neg_closed(1) == F(-1, 12)
        assert zeta_neg_closed(11) == F(691, 32760)

    def test_agree_up_to_40(self):
        for N in range(41):
            assert zeta_neg_via_B1(N) == zeta_neg_closed(N)


class TestDouble:
    def test_reverse_value(self):
        assert double_B3(0, 0) == F(5, 12)
        assert double_B6(0, 0) == F(5, 12)

    def test_small_pairs(self):
        for pair in [(1, 0), (0, 1), (2, 2), (3, 1)]:
            assert double_B3(*pair) == double_B6(*pair)

    def test_all_exact_rationals(self):
        for pair in [(0, 0), (2, 1), (4, 3)]:
            assert isinstance(double_B3(*pair), F)
            assert isinstance(double_B6(*pair), F)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(N1=st.integers(0, 30), N2=st.integers(0, 30))
    def test_pair_agrees_off_grid(self, N1, N2):
        assert double_B3(N1, N2) == double_B6(N1, N2)


class TestBernoulliPairs:
    def test_against_literal_double_sum(self):
        # the docstring's double sum over k1 >= l, k2 >= 0, k1 + k2 <= cap,
        # in Fractions, with the multinomial written out
        for cap in range(15):
            D = _bernoulli_scaled(cap)[0]
            for l in range(cap + 1):
                want = sum(
                    bernoulli(k1) * bernoulli(k2) * factorial(cap - l)
                    / (factorial(k1 - l) * factorial(k2) * factorial(cap - k1 - k2))
                    for k1 in range(l, cap + 1) for k2 in range(cap - k1 + 1))
                assert _bernoulli_pairs(l, cap) == D * D * want


class TestB6Sums:
    def test_inner_against_literal_j_sum(self):
        # double_B6's range for every b1, b2 it visits, summed term by term
        for N1 in range(11):
            for N2 in range(11):
                S = N1 + N2 + 2
                fact = [factorial(i) for i in range(S + 1)]
                for b1 in range(N1 + N2 + 1):
                    for b2 in range(min(N2, N1 + N2 - b1) + 1):
                        y = N2 - b2
                        want = sum(comb(b1, j) * perm(N1 + 1, b1 - j) * perm(y, j)
                                   for j in range(max(0, b1 - N1), min(b1, y) + 1))
                        assert _b6_inner(N1, y, b1, fact) == want

    def test_tilde_pair_sums_against_literal_sum(self):
        for S in range(2, 25):
            D = _bernoulli_scaled(S)[0]
            T = _tilde_pair_sums(S)
            for A in range(S + 1):
                for b2 in range(S - A + 1):
                    want = sum(comb(A, l) * bernoulli_tilde(S - b2 - l) * bernoulli_tilde(b2 + l)
                               for l in range(A + 1))
                    assert T[A][b2] == D * D * want


class TestGrid:
    def test_small_grid(self):
        reports = verify_identity_grid(2, 2)
        singles = [r for r in reports if r.label == "zeta_neg"]
        doubles = [r for r in reports if r.label == "euler_double"]
        assert len(singles) == 5
        assert len(doubles) == 9
        assert all(r.equal for r in reports)
        assert all(r.lhs == r.rhs for r in reports)

    def test_report_fields(self):
        (r,) = [x for x in verify_identity_grid(0, 0) if x.label == "euler_double"]
        assert r.parameters == (0, 0)
        assert r.equal and r.lhs == F(5, 12)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGridBitIdentity:
    """Hashes recorded from the rational-arithmetic formulas: the integer
    sums must reproduce every Fraction and every CLI byte."""

    GRID = [(N1, N2) for N1 in range(12) for N2 in range(12)]
    VALUES_SHA = "95b90e598a3cc1f112d41877c490862c6db1101cf931e4e2255657d717590969"

    def test_cli_grid_bytes(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["bernoulli-id", "--grid", "12x12"]) == 0
        assert _sha256(out.getvalue()) == (
            "3268b2e8fc0364d95d7c9e6912b75e146a540ab75b073c3af25d98535528d7f6")

    def test_cli_grid_24_bytes(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["bernoulli-id", "--grid", "24x24"]) == 0
        assert _sha256(out.getvalue()) == (
            "5bc609b6143793842c3f1c06abc893876b26a7134b644f9b5c5b2a0c3a1f7b23")

    def test_grid_fractions(self):
        b3 = [str(double_B3(*N)) for N in self.GRID]
        assert _sha256("\n".join(b3)) == self.VALUES_SHA
        assert [str(double_B6(*N)) for N in self.GRID] == b3
