"""q-zeta generators and the nested-sum evaluator against frozen oracles."""
import gc
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, prod

import pytest

from qzeta.ring import QSeries, lambert_term
from qzeta.zeta import (IndexPoly, LinearForm, NestedSumSpec, SumFactor,
                        SumTerm, bernoulli, bracket, builtin_sums, eisenstein,
                        eulerian, eval_named, eval_nested_sum, z_series)

F = Fraction

# paper expansions through q^7
Z2_GOLDEN = [0, 1, 3, 4, 7, 6, 12, 8]
Z4_GOLDEN = [0, 0, 1, 4, 11, 20, 40, 56]
Z6_GOLDEN = [0, 0, 0, 1, 6, 21, 57, 126]
H0_GOLDEN = [0, 0, 2, 16, 60, 160, 360, 672]


class TestEulerian:
    def test_first_three(self):
        assert eulerian(1) == (F(0), F(1))          # t
        assert eulerian(2) == (F(0), F(1))          # t
        assert eulerian(3) == (F(0), F(1), F(1))    # t + t^2

    def test_defining_identity(self):
        # t P_{s-1}(t) = (1-t)^s sum d^{s-1} t^d, matched beyond the degree of P_{s-1}
        from math import comb
        for s in range(1, 13):
            depth = s + 6
            rhs = [F(0)] * (depth + 1)
            binom = [F((-1) ** k * comb(s, k)) for k in range(s + 1)]
            for i, b in enumerate(binom):
                for d in range(1, depth + 1 - i):
                    rhs[i + d] += b * F(d ** (s - 1))
            poly = list(eulerian(s)) + [F(0)] * (depth + 1 - len(eulerian(s)))
            assert poly == rhs, s

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            eulerian(0)


class TestBrackets:
    def test_divisor_count(self):
        got = bracket((1,), 7)
        assert list(got.coeffs) == [F(c) for c in [0, 1, 2, 2, 3, 2, 4, 2]]

    def test_bracket_two_is_z_two(self):
        assert bracket((2,), 20).agrees_with(z_series((2,), 20))

    def test_empty_index(self):
        assert bracket((), 5) == QSeries.one(5)

    def test_single_index_divisor_power_form(self):
        N = 40
        for s in range(1, 7):
            want = QSeries.zero(N)
            for d in range(1, N + 1):
                want = want + lambert_term(d, d, 1, order=N).scale(
                    F(d ** (s - 1), factorial(s - 1)))
            assert bracket((s,), N).agrees_with(want), s

    def test_huge_index_reads_only_the_rows_entries_it_needs(self):
        # the Eulerian row of index 1500 has 1499 entries; order 3 reads three
        s, N = 1500, 3
        want = [F(sum(d ** (s - 1) for d in range(1, n + 1) if n % d == 0),
                  factorial(s - 1)) for n in range(N + 1)]
        assert list(bracket((s,), N).coeffs) == want

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            bracket((0,), 5)


class TestZSeries:
    def test_goldens(self):
        assert list(z_series((2,), 7).coeffs) == [F(c) for c in Z2_GOLDEN]
        assert list(z_series((4,), 7).coeffs) == [F(c) for c in Z4_GOLDEN]
        assert list(z_series((6,), 7).coeffs) == [F(c) for c in Z6_GOLDEN]

    def test_z3_is_twice_bracket3(self):
        assert z_series((3,), 40).agrees_with(bracket((3,), 40).scale(2))

    def test_closed_forms_order_40(self):
        N = 40
        z2want = QSeries.zero(N)
        z3want = QSeries.zero(N)
        for n in range(1, N + 1):
            z2want = z2want + lambert_term(n, n, 2, order=N)
            z3want = z3want + lambert_term(2 * n, n, 3, order=N) \
                + lambert_term(n, n, 3, order=N)
        assert z_series((2,), N).agrees_with(z2want)
        assert z_series((3,), N).agrees_with(z3want)

    def test_bk_conversion_z4(self):
        N = 40
        lhs = z_series((4,), N)
        rhs = bracket((4,), N) - bracket((2,), N).scale(F(1, 6))
        assert lhs.agrees_with(rhs)

    def test_empty(self):
        assert z_series((), 4) == QSeries.one(4)

    def test_rejects_index_one(self):
        with pytest.raises(ValueError):
            z_series((1,), 5)

    def test_dz3_multi_index(self):
        N = 40
        lhs = z_series((3,), N).q_derivative()
        rhs = z_series((5,), N).scale(5) - z_series((3, 2), N).scale(4) \
            - z_series((2, 3), N).scale(6) + z_series((3,), N)
        assert lhs.agrees_with(rhs)


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == F(-1, 2)
        assert bernoulli(2) == F(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(4) == F(-1, 30)

    def test_odd_vanish(self):
        assert all(bernoulli(i) == 0 for i in range(3, 16, 2))

    def test_recurrence_oracle(self):
        # sum_{j<m} C(m, j) B_j = 0 for m >= 2 (B_1 = -1/2 convention)
        from math import comb
        for m in range(2, 12):
            assert sum(comb(m, j) * bernoulli(j) for j in range(m)) == 0


class TestEisenstein:
    def test_g2(self):
        N = 40
        assert eisenstein(2, N).agrees_with(z_series((2,), N) + F(-1, 24))

    def test_g4_true_conversion(self):
        # the verified conversion; the printed display swaps the coefficients
        N = 40
        rhs = z_series((2,), N).scale(F(1, 6)) + z_series((4,), N) + F(1, 1440)
        assert eisenstein(4, N).agrees_with(rhs)

    def test_g6(self):
        N = 40
        rhs = z_series((2,), N).scale(F(1, 120)) \
            + z_series((4,), N).scale(F(1, 4)) + z_series((6,), N) + F(-1, 60480)
        assert eisenstein(6, N).agrees_with(rhs)

    def test_rejects_odd_weight(self):
        with pytest.raises(ValueError):
            eisenstein(3, 5)

    @staticmethod
    def fraction_sieve(weight, order):
        """The former implementation: a Fraction sieve through the coercing constructor."""
        fact = F(1, factorial(weight - 1))
        coeffs = [-bernoulli(weight) / (2 * weight) * fact]
        sigma = [F(0)] * (order + 1)
        for d in range(1, order + 1):
            for n in range(d, order + 1, d):
                sigma[n] += F(d ** (weight - 1))
        return QSeries(coeffs + [sigma[n] * fact for n in range(1, order + 1)], order=order)

    def test_integer_sieve_matches_fraction_sieve(self):
        for weight in range(2, 17, 2):
            for order in range(41):
                got, want = eisenstein(weight, order), self.fraction_sieve(weight, order)
                assert got == want and got.coeffs == want.coeffs, (weight, order)


class TestNestedSums:
    def test_h11_0_golden(self):
        got = eval_named("h11_0", 7)
        assert list(got.coeffs) == [F(c) for c in H0_GOLDEN]

    def test_single_free_index_is_bracket_two(self):
        spec = NestedSumSpec(1, "free", [SumTerm([
            SumFactor(LinearForm([1]), LinearForm([1]),
                      poly=IndexPoly([(1, (1,))]))])])
        assert eval_nested_sum(spec, 30).agrees_with(bracket((2,), 30))

    def test_chain_double_sum_vs_cubic_pole(self):
        N = 40
        chain = NestedSumSpec(2, "chain", [SumTerm([
            SumFactor(LinearForm([1, 0]), LinearForm([1, 0]), 2),
            SumFactor(LinearForm([0, 0]), LinearForm([0, 1]))])])
        single = NestedSumSpec(1, "free", [SumTerm([
            SumFactor(LinearForm([2]), LinearForm([1]), 3)])])
        assert eval_nested_sum(chain, N).agrees_with(eval_nested_sum(single, N))

    def test_h_component_proportionality(self):
        # forced by the defining sums (confirmed against brute-force traces):
        # h2 = -(5/4) h0 and h4 = (1/4) h0
        N = 30
        h0 = eval_named("h11_0", N)
        assert eval_named("h11_2", N).agrees_with(h0.scale(F(-5, 4)))
        assert eval_named("h11_4", N).agrees_with(h0.scale(F(1, 4)))

    def test_termination_check_free_unbounded(self):
        with pytest.raises(ValueError, match="index 1"):
            NestedSumSpec(2, "free", [SumTerm([
                SumFactor(LinearForm([1, 0]), LinearForm([1, 0]))])])

    def test_termination_check_chain_bounded(self):
        # second index has no exponent weight but is chain-bounded
        NestedSumSpec(2, "chain", [SumTerm([
            SumFactor(LinearForm([1, 0]), LinearForm([1, 0])),
            SumFactor(LinearForm([0, 0]), LinearForm([0, 1]))])])

    @pytest.mark.parametrize("constraint, exponent, unbounded", [
        ("chain", (0, 1, 0), 0), ("chain", (0, 0, 1), 0), ("chain", (1, 0, 0), None),
        (("equal_sum", (0, 1), (2, 3)), (1, 1, 0, 0), None),
        (("equal_sum", (0, 1), (2, 3)), (1, 0, 0, 0), 1),
        (("equal_sum", (2,), (0, 1)), (0, 0, 1), None),
        (("equal_sum", (2,), (0, 1)), (1, 1, 0), 2),
        (("equal_sum", (1, 2), (0,)), (0, 0, 1), 0)], ids=str)
    def test_termination_check_constraint(self, constraint, exponent, unbounded):
        # an index is bounded by the order through a positive exponent, or by
        # its upper bound over bounded indices: the index before it in a chain,
        # the A sum for an equal-sum B index; the lowest unbounded one is named
        k = len(exponent)
        terms = [SumTerm([SumFactor(LinearForm(exponent), LinearForm([1] * k))])]
        if unbounded is None:
            NestedSumSpec(k, constraint, terms)
        else:
            with pytest.raises(ValueError, match=f"index {unbounded} is unbounded"):
                NestedSumSpec(k, constraint, terms)

    def test_equal_sum_constraint_matches_direct_loop(self):
        # sum_{i+j=k+l} q^(i+j) / ((1-q^i)(1-q^j)(1-q^k)(1-q^l)) at low order
        N = 14
        spec = NestedSumSpec(4, ("equal_sum", (0, 1), (2, 3)), [SumTerm([
            SumFactor(LinearForm([1, 1, 0, 0]), LinearForm([1, 0, 0, 0])),
            SumFactor(LinearForm([0, 0, 0, 0]), LinearForm([0, 1, 0, 0])),
            SumFactor(LinearForm([0, 0, 0, 0]), LinearForm([0, 0, 1, 0])),
            SumFactor(LinearForm([0, 0, 0, 0]), LinearForm([0, 0, 0, 1]))])])
        got = eval_nested_sum(spec, N)
        geo = lambda n: lambert_term(0, n, 1, order=N)
        want = QSeries.zero(N)
        for s in range(2, N + 1):
            mono = QSeries([0] * s + [1], N)
            for i in range(1, s):
                for k in range(1, s):
                    want = want + mono * geo(i) * geo(s - i) * geo(k) * geo(s - k)
        assert got.agrees_with(want)

    def test_malformed_specs_raise(self):
        lf = LinearForm
        for numer in [(), (0, 1), (F(3, 2),), (1.5,)]:
            with pytest.raises(ValueError, match="numerator polynomial"):
                SumFactor(lf([1]), lf([1]), numer=numer)
        with pytest.raises(ValueError, match="denominator form"):
            eval_nested_sum(NestedSumSpec(2, "free", [SumTerm([
                SumFactor(lf([1, 1]), lf([1, -1]))])]), 5)
        with pytest.raises(ValueError, match="nonnegative"):
            eval_nested_sum(NestedSumSpec(2, "free", [SumTerm([
                SumFactor(lf([1, -1]), lf([1, 0])),
                SumFactor(lf([0, 2]), lf([0, 1]))])]), 5)
        # the remaining cases are refused when the spec is built, before any evaluation
        with pytest.raises(ValueError, match="partition"):
            NestedSumSpec(3, ("equal_sum", (0, 1), (1, 2)), [SumTerm([
                SumFactor(lf([1, 1, 0]), lf([1, 0, 0])),
                SumFactor(lf([0, 0, 0]), lf([0, 1, 0])),
                SumFactor(lf([0, 0, 0]), lf([0, 0, 1]))])])
        # sum over A == 0 has no solution with indices >= 1: not a free sum
        with pytest.raises(ValueError, match="partition"):
            NestedSumSpec(2, ("equal_sum", (0, 1), ()), [SumTerm([
                SumFactor(lf([1, 1]), lf([1, 0])), SumFactor(lf([0, 0]), lf([0, 1]))])])
        for constraint in ["cycle", ("equal_sum", (0,)), ("equal_sums", (0,), (1,)),
                           ["equal_sum", (0,), (1,)]]:
            with pytest.raises(ValueError, match="unknown constraint"):
                NestedSumSpec(2, constraint, [SumTerm([SumFactor(lf([1, 1]), lf([1, 1]))])])
        for nindices in (0, -1):
            with pytest.raises(ValueError, match="at least one index"):
                NestedSumSpec(nindices, "free", [])
        for factor in [SumFactor(lf([1]), lf([1, 0])), SumFactor(lf([1, 1]), lf([1, 0, 0])),
                       SumFactor(lf([1, 1]), lf([1, 1]), poly=IndexPoly([(1, (1,))]))]:
            with pytest.raises(ValueError, match="must read 2 indices"):
                NestedSumSpec(2, "free", [SumTerm([factor])])

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            eval_named("nope", 5)

    def test_catalog_keys(self):
        assert set(builtin_sums()) == {
            "h11_0", "h11_2", "h11_4", "thm_sum1", "thm_sum2", "thm_sum3"}


# -- independent oracles: direct enumeration, no evaluator --------------------

ORACLE_ORDER = 10


def _expand(shift, pole, power, order):
    """q^shift / (1 - q^pole)^power as a coefficient list, by the binomial series."""
    out = [0] * (order + 1)
    for j, k in enumerate(range(shift, order + 1, pole)):
        out[k] = comb(j + power - 1, power - 1)
    return out


def _times(a, b):
    order = len(a) - 1
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(order + 1)]


def _form(form, values):
    return sum(c * v for c, v in zip(form.coeffs, values)) + form.const


def _index_tuples(spec, order):
    """Every admissible index tuple with entries small enough to reach q^order."""
    k, mode = spec.nindices, spec.constraint
    # a negative numerator constant lets an index exceed the order
    top = order + max(0, -min(spec._total_exponent(t).const for t in spec.terms))
    if mode == "free":
        yield from product(range(1, top + 1), repeat=k)
    elif mode == "chain":
        yield from combinations(range(top, 0, -1), k)
    else:
        _, group_a, group_b = mode
        for head in product(range(1, top + 1), repeat=len(group_a)):
            for tail in product(range(1, sum(head) + 1), repeat=len(group_b)):
                if sum(tail) == sum(head):
                    values = [0] * k
                    for i, v in zip(list(group_a) + list(group_b), head + tail):
                        values[i] = v
                    yield tuple(values)


def nested_sum_oracle(spec, order):
    """The sum of a NestedSumSpec over its lattice points, term by term in Fractions."""
    total = [F(0)] * (order + 1)
    for values in _index_tuples(spec, order):
        for term in spec.terms:
            series, coeff = [1] + [0] * order, spec.scale * term.scale
            for f in term.factors:
                num, den = _form(f.num, values), _form(f.den, values)
                # P(q^den) q^num / (1 - q^den)^power, one expansion per term of P
                expanded = [0] * (order + 1)
                for j, c in enumerate(f.numer):
                    expanded = [a + c * b for a, b in
                                zip(expanded, _expand(num + j * den, den, f.power, order))]
                series = _times(series, expanded)
                if f.poly is not None:
                    coeff *= sum(c * prod(v ** e for v, e in zip(values, exps))
                                 for c, exps in f.poly.terms)
            total = [t + coeff * x for t, x in zip(total, series)]
    return total


def chain_oracle(factor, indices, order):
    """sum over n_1 > ... > n_l >= 1 of prod factor(s_i, n_i), factor a coefficient list."""
    total = [F(0)] * (order + 1)
    for chain in combinations(range(order, 0, -1), len(indices)):
        series = [F(1)] + [F(0)] * order
        for s, n in zip(indices, chain):
            series = _times(series, factor(s, n, order))
        total = [t + x for t, x in zip(total, series)]
    return total


def bracket_factor(s, n, order):
    """sum_{d >= 1} d^(s-1)/(s-1)! q^(n d): the divisor-sum definition."""
    out = [F(0)] * (order + 1)
    for d in range(1, order // n + 1):
        out[n * d] = F(d ** (s - 1), factorial(s - 1))
    return out


def zeta_factor(s, n, order):
    """q^(n s/2)/(1-q^n)^s for even s, (q^(n(s-1)/2) + q^(n(s+1)/2))/(1-q^n)^s for odd s."""
    if s % 2 == 0:
        return _expand(n * s // 2, n, s, order)
    low = _expand(n * (s - 1) // 2, n, s, order)
    high = _expand(n * (s + 1) // 2, n, s, order)
    return [a + b for a, b in zip(low, high)]


def _lf(*coeffs, const=0):
    return LinearForm(coeffs, const)


# free, chain and equal-sum sums with powers >= 2, numerator constants,
# numerator polynomials P and IndexPolys with non-integer Fraction coefficients
ORACLE_SPECS = {
    "free_fraction_poly": NestedSumSpec(2, "free", [
        SumTerm([SumFactor(_lf(1, 2, const=1), _lf(1, 1), 2,
                           poly=IndexPoly([(F(1, 2), (1, 0)), (F(-2, 3), (0, 2)),
                                           (F(5, 7), (1, 1))])),
                 SumFactor(_lf(0, 0), _lf(0, 1), 3)], scale=F(3, 5)),
        SumTerm([SumFactor(_lf(2, 1), _lf(1, 0)),
                 SumFactor(_lf(0, 0), _lf(1, 1), 2, poly=IndexPoly([(F(7, 4), (0, 1))]))]),
    ], scale=F(-2, 9)),
    "chain_three": NestedSumSpec(3, "chain", [
        SumTerm([SumFactor(_lf(1, 0, 0), _lf(1, 0, 0), 3,
                           poly=IndexPoly([(F(1, 6), (1, 0, 1)), (F(-3, 2), (0, 2, 0))])),
                 SumFactor(_lf(0, 1, 0), _lf(0, 1, 0), 2),
                 SumFactor(_lf(0, 0, 0), _lf(0, 1, 1))]),
        SumTerm([SumFactor(_lf(2, 0, 0), _lf(1, 0, 0), 2),
                 SumFactor(_lf(0, 0, 0), _lf(0, 0, 1), 2,
                           poly=IndexPoly([(F(2, 5), (0, 0, 1))]))], scale=F(-1, 3)),
    ]),
    "equal_sum_two_two": NestedSumSpec(4, ("equal_sum", (0, 1), (2, 3)), [
        SumTerm([SumFactor(_lf(1, 1, 0, 0), _lf(1, 0, 0, 0), 2,
                           poly=IndexPoly([(F(1, 3), (1, 0, 0, 1)), (F(1, 2), (0, 0, 2, 0))])),
                 SumFactor(_lf(0, 0, 0, 0), _lf(0, 1, 0, 0)),
                 SumFactor(_lf(0, 0, 0, 0), _lf(0, 0, 1, 0), 2),
                 SumFactor(_lf(0, 0, 0, 0), _lf(0, 0, 1, 1))], scale=F(5, 2)),
    ]),
    "equal_sum_one_two": NestedSumSpec(3, ("equal_sum", (0,), (1, 2)), [
        SumTerm([SumFactor(_lf(2, 0, 0), _lf(1, 0, 0), 2,
                           poly=IndexPoly([(F(3, 4), (0, 1, 1))])),
                 SumFactor(_lf(0, 0, 0), _lf(0, 1, 0), 3),
                 SumFactor(_lf(0, 0, 0), _lf(0, 0, 1))]),
    ]),
    # no factor completing after the first level references index 0, so the
    # subtrees below it differ only through the running equal-sum constraint
    "equal_sum_one_index_factors": NestedSumSpec(4, ("equal_sum", (0, 1), (2, 3)), [
        SumTerm([SumFactor(_lf(1, 0, 0, 0), _lf(1, 0, 0, 0)),
                 SumFactor(_lf(0, 1, 0, 0), _lf(0, 1, 0, 0)),
                 SumFactor(_lf(0, 0, 0, 0), _lf(0, 0, 1, 0), 2,
                           poly=IndexPoly([(F(1, 2), (0, 0, 2, 0))])),
                 SumFactor(_lf(0, 0, 0, 0), _lf(0, 0, 0, 1))]),
    ]),
    # the first level's shift, i - 2, is negative at i = 1; the total i + j - 2 is not
    "free_negative_constant": NestedSumSpec(2, "free", [
        SumTerm([SumFactor(_lf(1, 1, const=-2), _lf(1, 0), 2,
                           poly=IndexPoly([(F(1, 2), (1, 1))])),
                 SumFactor(_lf(0, 0), _lf(0, 1))]),
    ]),
    # q^n P(t)/(1-t)^2 with P(t) = 2 - t + 3t^2 and t = q^(m+l), not q^n
    "chain_numer_poly": NestedSumSpec(3, "chain", [
        SumTerm([SumFactor(_lf(0, 0, 0), _lf(1, 0, 0), poly=IndexPoly([(F(1, 2), (1, 0, 0))])),
                 SumFactor(_lf(1, 0, 0), _lf(0, 1, 1), 2, numer=(2, -1, 3),
                           poly=IndexPoly([(F(-1, 3), (0, 1, 1))])),
                 SumFactor(_lf(0, 0, 0), _lf(0, 0, 1))], scale=F(3, 2)),
    ]),
    "equal_sum_three_one": NestedSumSpec(4, ("equal_sum", (0, 1, 2), (3,)), [
        SumTerm([SumFactor(_lf(1, 0, 0, 0), _lf(1, 0, 0, 0), 2),
                 SumFactor(_lf(0, 2, 0, 0), _lf(0, 1, 0, 0)),
                 SumFactor(_lf(0, 0, 1, 0), _lf(0, 0, 1, 0)),
                 SumFactor(_lf(0, 0, 0, 0), _lf(0, 0, 0, 1), 2,
                           poly=IndexPoly([(F(1, 3), (0, 0, 0, 1))]))]),
    ]),
}


class TestIndependentOracles:
    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_nested_sum_matches_lattice_enumeration(self, name):
        spec = ORACLE_SPECS[name]
        want = nested_sum_oracle(spec, ORACLE_ORDER)
        assert any(want)
        for order in range(ORACLE_ORDER + 1):
            assert list(eval_nested_sum(spec, order).coeffs) == want[: order + 1], order

    @pytest.mark.parametrize("name", sorted(builtin_sums()))
    def test_catalog_matches_lattice_enumeration(self, name):
        want = [F(0)] * (ORACLE_ORDER + 1)
        for spec in builtin_sums()[name]:
            want = [a + b for a, b in zip(want, nested_sum_oracle(spec, ORACLE_ORDER))]
        for order in range(ORACLE_ORDER + 1):
            assert list(eval_named(name, order).coeffs) == want[: order + 1], order

    @pytest.mark.parametrize("indices", [
        t for w in range(2, 8) for length in (2, 3)
        for t in product(range(1, w), repeat=length) if sum(t) == w], ids=str)
    def test_bracket_matches_chain_enumeration(self, indices):
        want = chain_oracle(bracket_factor, indices, ORACLE_ORDER)
        for order in range(ORACLE_ORDER + 1):
            assert list(bracket(indices, order).coeffs) == want[: order + 1], order

    @pytest.mark.parametrize("indices", [
        (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 5), (5, 3),
        (2, 2, 2), (3, 2, 2), (2, 3, 4)], ids=str)
    def test_z_series_matches_chain_enumeration(self, indices):
        want = chain_oracle(zeta_factor, indices, ORACLE_ORDER)
        assert any(want)
        for order in range(ORACLE_ORDER + 1):
            assert list(z_series(indices, order).coeffs) == want[: order + 1], order


def test_order_sweep_grows_no_cache():
    # every memo of the evaluators and every Bernoulli table lives for one
    # call, so a sweep over rising orders and indices leaves no memory behind
    def sweep(orders):
        for order in orders:
            for name in builtin_sums():
                eval_named(name, order)
            z_series((2, 3), order)
            bracket((1, 2), order)
            eisenstein(2 * order, order)
            bernoulli(4 * order)

    sweep([4])
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sweep(range(4, 13))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    # a cache keyed by the order or the index would hold tens of kilobytes
    assert held < 4096, held
