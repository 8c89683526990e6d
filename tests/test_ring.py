"""Series and polynomial arithmetic against independent oracles."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qzeta.ring import (MPoly, MPolyRing, QSeries, euler_pow, geometric,
                        lambert_term, series_from_json, series_to_json)

F = Fraction


def q(coeffs, order=None):
    return QSeries(coeffs, order=order)


def partition_numbers(n):
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for s in range(part, n + 1):
            p[s] += p[s - part]
    return p


class TestSeriesBasics:
    def test_add_linear(self):
        assert (q([1, 1, 0]) + q([0, 1, 0])).coeffs == (F(1), F(2), F(0))

    def test_add_identity(self):
        f = q([2, 5, 7, 1])
        assert (f + QSeries.zero(3)).coeffs == f.coeffs

    def test_add_truncates_to_min_order(self):
        s = q([1, 2, 3]) + q([1, 1])
        assert s.order == 1
        assert s.coeffs == (F(2), F(3))

    def test_mul_identity(self):
        f = q([3, 1, 4, 1, 5])
        assert (f * QSeries.one(4)).coeffs == f.coeffs

    def test_mismatched_rings_rejected(self):
        ring = MPolyRing(("x",))
        with pytest.raises(ValueError):
            q([1, 2]) + QSeries([1], order=1, ring=ring)

    def test_z2_add_from_golden(self):
        # doubled degree-2 series through q^3
        z2 = q([0, 1, 3, 4])
        assert (z2 + z2).coeffs == (F(0), F(2), F(6), F(8))

    def test_z2_squared_golden(self):
        z2 = q([0, 1, 3, 4, 7, 6, 12, 8])
        assert (z2 * z2).coeffs == (F(0), F(0), F(1), F(6), F(17), F(38), F(70), F(116))

    def test_z2_z4_product_golden(self):
        z2 = q([0, 1, 3, 4, 7, 6, 12, 8])
        z4 = q([0, 0, 1, 4, 11, 20, 40, 56])
        assert (z2 * z4).coeffs == (F(0), F(0), F(0), F(1), F(7), F(27), F(76), F(178))

    def test_division_requires_unit(self):
        with pytest.raises(ZeroDivisionError):
            q([0, 1]).inverse()

    def test_power_and_inverse(self):
        f = q([1, 2, 1, 0, 3], order=8)
        assert ((f ** 3) * f.inverse() - f * f).is_zero()


class TestLambert:
    def test_derivative_of_geometric(self):
        got = lambert_term(1, 1, 2, order=4)
        assert got.coeffs == (F(0), F(1), F(2), F(3), F(4))

    def test_quartic_pole_vs_convolution(self):
        # oracle: convolve 1/(1-q) with itself four times, shift by 2
        geo = [1] * 6
        conv = geo
        for _ in range(3):
            conv = [sum(conv[i] * geo[n - i] for i in range(n + 1)) for n in range(6)]
        want = [0, 0] + conv[:4]
        got = lambert_term(2, 1, 4, order=5)
        assert list(got.coeffs) == [F(c) for c in want]

    def test_geometric_in_q_squared(self):
        got = lambert_term(0, 2, 1, order=5)
        assert got.coeffs == (F(1), F(0), F(1), F(0), F(1), F(0))

    def test_default_scale_is_unit_scale(self):
        ring = MPolyRing(["x"])
        for r in (None, ring):
            default = lambert_term(2, 3, 2, order=9, ring=r)
            assert default.ring == r
            for one in (1, F(1)):
                assert default == lambert_term(2, 3, 2, scale=one, order=9, ring=r)
        # a non-unit scale still multiplies every coefficient
        assert lambert_term(1, 1, 1, scale=F(3, 2), order=4).coeffs == \
            (F(0), F(3, 2), F(3, 2), F(3, 2), F(3, 2))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lambert_term(0, 0, 1, order=3)
        with pytest.raises(ValueError):
            lambert_term(0, 1, 0, order=3)


class TestEulerProduct:
    def test_inverse_is_partition_counts(self):
        got = euler_pow(-1, 50)
        assert list(got.coeffs) == [F(c) for c in partition_numbers(50)]

    def test_zero_power(self):
        assert euler_pow(0, 10).coeffs == QSeries.one(10).coeffs

    def test_inverse_pair(self):
        for c in range(-3, 4):
            prod = euler_pow(c, 20) * euler_pow(-c, 20)
            assert (prod - QSeries.one(20)).is_zero()


class TestQDerivative:
    def test_constant(self):
        assert QSeries.one(5).q_derivative().is_zero()

    def test_term_by_term(self):
        assert q([0, 1, 3]).q_derivative().coeffs == (F(0), F(1), F(6))


class TestPartialFractions:
    def test_qiqj_identity_order_40(self):
        N = 40
        for i in range(1, 7):
            for j in range(1, 7):
                lhs = geometric(i, N) * geometric(j, N)
                rhs = (geometric(i, N) + lambert_term(j, j, 1, order=N)) \
                    * geometric(i + j, N)
                assert (lhs - rhs).is_zero(), (i, j)


small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def series_strategy(order=8):
    return st.lists(small_fraction, min_size=0, max_size=order + 1).map(
        lambda cs: QSeries(cs, order=order))


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(series_strategy(), series_strategy(), series_strategy())
    def test_mul_associative_and_distributive(self, f, g, h):
        assert ((f * g) * h - f * (g * h)).is_zero()
        assert (f * (g + h) - (f * g + f * h)).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(series_strategy(), series_strategy())
    def test_commutative(self, f, g):
        assert (f * g - g * f).is_zero()
        assert (f + g - (g + f)).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(series_strategy(), series_strategy())
    def test_q_derivative_is_a_derivation(self, f, g):
        lhs = (f * g).q_derivative()
        rhs = f.q_derivative() * g + f * g.q_derivative()
        assert (lhs - rhs).is_zero()

    def test_axioms_with_polynomial_coefficients(self):
        import random
        ring = MPolyRing(("x", "y"))
        rng = random.Random(13)

        def rand_poly():
            return sum((ring.monomial((rng.randint(0, 2), rng.randint(0, 2)),
                                      F(rng.randint(-3, 3)))
                        for _ in range(rng.randint(0, 3))), ring.zero)

        def rand_series():
            return QSeries([rand_poly() for _ in range(8)], order=7, ring=ring)

        for _ in range(20):
            f, g, h = rand_series(), rand_series(), rand_series()
            assert ((f * g) * h - f * (g * h)).is_zero()
            assert (f * (g + h) - (f * g + f * h)).is_zero()
            assert (f * g - g * f).is_zero()


class TestMPoly:
    def setup_method(self):
        self.ring = MPolyRing(("chi", "K2", "KL1"))

    def test_eval_single_symbol(self):
        chi = self.ring.gen("chi")
        assert chi.evaluate({"chi": 24}) == 24

    def test_eval_kills_k_monomials(self):
        p = self.ring.gen("K2") * self.ring.gen("chi") + self.ring.gen("chi")
        assert p.evaluate({"chi": 5, "K2": 0}) == 5

    def test_eval_polynomial(self):
        chi = self.ring.gen("chi")
        p = chi * chi - chi
        assert p.evaluate({"chi": 2}) == 2

    def test_missing_symbol(self):
        p = self.ring.gen("K2")
        with pytest.raises(KeyError):
            p.evaluate({"chi": 1})

    def test_ring_ops(self):
        a, b = self.ring.gen("chi"), self.ring.gen("K2")
        assert (a + b) * (a - b) == a * a - b * b
        assert (a * b) * a == a * (b * a)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(small_fraction,
                              st.tuples(st.integers(0, 2), st.integers(0, 2))),
                    max_size=4),
           st.lists(st.tuples(small_fraction,
                              st.tuples(st.integers(0, 2), st.integers(0, 2))),
                    max_size=4))
    def test_randomized_commutativity(self, t1, t2):
        ring = MPolyRing(("x", "y"))
        p = sum((ring.monomial(e, c) for c, e in t1), ring.zero)
        r = sum((ring.monomial(e, c) for c, e in t2), ring.zero)
        assert p * r == r * p


class TestSerialization:
    def test_rational_round_trip(self):
        s = q([F(1, 3), F(-7, 2), 0, 5], order=6)
        data = series_to_json(s)
        assert data["var"] == "q" and data["order"] == 6
        back = series_from_json(json.loads(json.dumps(data)))
        assert back == s

    def test_mpoly_round_trip(self):
        ring = MPolyRing(("chi", "K2"))
        coeffs = [ring.gen("chi") * F(3, 7), ring.zero,
                  ring.gen("K2") * ring.gen("K2") - 2]
        s = QSeries(coeffs, order=4, ring=ring)
        data = series_to_json(s)
        back = series_from_json(json.loads(json.dumps(data)), ring=ring)
        assert back == s

    def test_json_bytes_stable(self):
        ring = MPolyRing(("a", "b"))
        s = QSeries([ring.gen("b") + ring.gen("a") * 2], order=3, ring=ring)
        one = json.dumps(series_to_json(s), sort_keys=True)
        two = json.dumps(series_to_json(s), sort_keys=True)
        assert one == two

    def test_bad_variable_rejected(self):
        with pytest.raises(ValueError):
            series_from_json({"var": "t", "order": 1, "coeffs": [["1", "1"]]})

    @pytest.mark.parametrize("data", [
        {"var": "q", "order": True, "coeffs": [[], []]},
        {"var": "q", "order": 0, "coeffs": [[{"coef": ["1", "1"], "exps": [1]}]]},
        {"var": "q", "order": 0, "coeffs": [[{"exps": [1, 0]}]]},
        {"var": "q", "order": 0, "coeffs": [{"coef": ["1", "1"], "exps": [1, 0]}]},
    ], ids=["bool order", "short exponent vector", "record without coef",
            "record not in a list"])
    def test_malformed_polynomial_json_rejected(self, data):
        with pytest.raises(ValueError, match="series JSON"):
            series_from_json(data, ring=MPolyRing(("a", "b")))


class TestMisc:
    def test_truncate(self):
        f = q([1, 2, 3, 4, 5])
        assert f.truncate(2).coeffs == (F(1), F(2), F(3))
        assert f.truncate(9) is f

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError):
            MPolyRing(("a", "a"))

    def test_coefficient_out_of_range(self):
        with pytest.raises(IndexError):
            q([1, 2]).coefficient(5)
