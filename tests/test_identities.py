"""Bernoulli identities from the two value formulas."""
from fractions import Fraction as F

from zetapoly import (
    double_B3,
    double_B6,
    verify_identity_grid,
    zeta_neg_closed,
    zeta_neg_via_B1,
)


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
