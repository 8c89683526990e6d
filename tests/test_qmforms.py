"""Quasi-modular basis construction and exact decomposition."""
import random
from fractions import Fraction
from math import gcd

import pytest

from qzeta.ring import QSeries
from qzeta.zeta import bracket, eval_named, z_series
from qzeta.qmforms import (SOLVE_MARGIN, NotInSpan, QMBasis, QMDecomposition,
                           _eliminate, basis_monomials, basis_size, decompose,
                           decompose_mpoly, monomial_name, monomial_weight)
from qzeta.fock import SurfaceModel
from qzeta.pipeline import ch1ch1_reduced

F = Fraction

H0_COEFFS = {(2, 0, 0): F(1), (0, 1, 0): F(1), (3, 0, 0): F(-8, 3),
             (1, 1, 0): F(4), (0, 0, 1): F(14, 3)}


class TestBasis:
    def test_weight6_has_seven_monomials(self):
        monos = basis_monomials(6)
        assert len(monos) == 7
        assert set(monos) == {(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0),
                              (3, 0, 0), (1, 1, 0), (0, 0, 1)}

    def test_weight0(self):
        assert basis_monomials(0) == [(0, 0, 0)]

    def test_weight4(self):
        assert set(basis_monomials(4)) == {(0, 0, 0), (1, 0, 0),
                                           (2, 0, 0), (0, 1, 0)}

    def test_order_precondition(self):
        with pytest.raises(ValueError):
            QMBasis(6, 10)  # needs >= 7 + margin

    def test_rejects_odd_weight(self):
        with pytest.raises(ValueError):
            basis_monomials(3)

    def test_size_counts_the_monomials(self):
        for weight in range(0, 61, 2):
            assert basis_size(weight) == len(basis_monomials(weight)), weight
        for weight in (-2, 3):
            with pytest.raises(ValueError, match="nonnegative even"):
                basis_size(weight)

    def test_large_weight_refused_before_listing(self):
        # the basis of weight 10^6 has about 3.5e15 monomials: listing them
        # first would never return
        need = basis_size(10 ** 6) + 10
        with pytest.raises(ValueError, match=f"order 20 too small .* need at least {need}$"):
            QMBasis(10 ** 6, 20)


def reference_power_product(m, order):
    """Z(2)^a Z(4)^b Z(6)^c as a product of whole generator powers, built apart
    from the basis, which multiplies each monomial's parent by one generator."""
    a, b, c = m
    s = QSeries.one(order)
    if a:
        s = s * z_series((2,), order) ** a
    if b:
        s = s * z_series((4,), order) ** b
    if c:
        s = s * z_series((6,), order) ** c
    return s


class TestBasisSeries:
    @pytest.mark.parametrize("weight", range(0, 13, 2))
    def test_matches_generator_powers(self, weight):
        for order in range(basis_size(weight) + SOLVE_MARGIN, 61):
            basis = QMBasis(weight, order)
            assert basis.monomials == basis_monomials(weight)
            want = [reference_power_product(m, order) for m in basis.monomials]
            assert basis.series == want, order

    def test_reconstruct_reads_the_same_series(self):
        coeffs = {(0, 0, 0): F(2), (1, 1, 0): F(-3, 7), (0, 0, 2): F(5)}
        dec = QMDecomposition(coeffs, 12, 40)
        want = sum((reference_power_product(m, 40).scale(c) for m, c in coeffs.items()),
                   QSeries.zero(40))
        assert dec.reconstruct(40) == want


class TestDecompose:
    def test_h11_0(self):
        N = 30
        dec = decompose(eval_named("h11_0", N), 6, N)
        assert isinstance(dec, QMDecomposition)
        assert dec.coeffs == H0_COEFFS
        assert dec.weight == 6

    def test_zero_series(self):
        dec = decompose(QSeries.zero(30), 6, 30)
        assert dec.coeffs == {}
        assert dec.weight == 0

    def test_bracket_one_not_in_span(self):
        res = decompose(bracket((1,), 30), 6, 30)
        assert isinstance(res, NotInSpan)
        assert not res
        assert res.first_failing_degree <= 30

    def test_basis_delta_recovery(self):
        N = 30
        basis = QMBasis(6, N)
        for mono, series in zip(basis.monomials, basis.series):
            dec = decompose(series, 6, N)
            assert dec.coeffs == {mono: F(1)} or (mono == (0, 0, 0)
                                                  and dec.coeffs == {(0, 0, 0): F(1)})

    def test_linearity(self):
        N = 30
        rng = random.Random(11)
        f = eval_named("h11_0", N)
        g = (z_series((2,), N) * z_series((4,), N)).scale(3) + z_series((2,), N)
        for _ in range(5):
            a = F(rng.randint(-6, 6), rng.randint(1, 5))
            b = F(rng.randint(-6, 6), rng.randint(1, 5))
            dec = decompose(f.scale(a) + g.scale(b), 6, N)
            df, dg = decompose(f, 6, N), decompose(g, 6, N)
            want = {}
            for m, c in df.coeffs.items():
                want[m] = want.get(m, F(0)) + a * c
            for m, c in dg.coeffs.items():
                want[m] = want.get(m, F(0)) + b * c
            want = {m: c for m, c in want.items() if c}
            assert dec.coeffs == want

    def test_reconstruction(self):
        N = 30
        f = eval_named("h11_2", N)
        dec = decompose(f, 6, N)
        assert dec.reconstruct(N).agrees_with(f)

    def test_monomial_names(self):
        assert monomial_name((0, 0, 0)) == "1"
        assert monomial_name((2, 1, 0)) == "Z(2)^2*Z(4)"
        assert monomial_weight((1, 1, 1)) == 12

    def test_order_above_series_rejected(self):
        f = z_series((2,), 20)
        with pytest.raises(ValueError):
            decompose(f, 6, 25)

    def test_mpoly_series_rejected_by_decompose(self):
        surf = SurfaceModel()
        f = QSeries([surf.ring.one], order=30, ring=surf.ring)
        with pytest.raises(ValueError):
            decompose(f, 6, 30)


class TestDecomposeMPoly:
    def test_constant_slice(self):
        surf = SurfaceModel()
        R = surf.ring
        c = R.const(F(5, 3))
        f = QSeries([c], order=30, ring=R)
        out = decompose_mpoly(f, 6, 30)
        zero_exps = (0,) * R.arity
        assert set(out) == {zero_exps}
        assert out[zero_exps].coeffs == {(0, 0, 0): F(5, 3)}

    def test_two_point_slices_k_trivial(self):
        # chi-slice and <L1,L2>-slice of the K-trivial two-point series
        N = 20
        surf = SurfaceModel(K_trivial=True)
        series = ch1ch1_reduced(surf, N)
        out = decompose_mpoly(series, 6, N)
        R = surf.ring
        chi_exps = tuple(1 if s == "chi" else 0 for s in R.symbols)
        l1l2_exps = tuple(1 if s == "L1L2" else 0 for s in R.symbols)
        assert set(out) == {chi_exps, l1l2_exps}
        # <L1,L2>-slice: q d/dq Z(2) = Z(2) + 5 Z(4) - 2 Z(2)^2
        assert out[l1l2_exps].coeffs == {(1, 0, 0): F(1), (0, 1, 0): F(5),
                                         (2, 0, 0): F(-2)}
        # chi-slice: h2 = -(5/4) h0 combination
        want = {m: c * F(-5, 4) for m, c in H0_COEFFS.items()}
        assert out[chi_exps].coeffs == want

    @pytest.mark.parametrize("k_trivial", [False, True])
    def test_one_elimination_equals_per_slice_decompose(self, k_trivial):
        N = 17
        series = ch1ch1_reduced(SurfaceModel(K_trivial=k_trivial), N)
        out = decompose_mpoly(series, 6, N)
        slices = series.by_monomial()
        assert list(out) == list(slices) and len(out) > 1
        for exps, sliced in slices.items():
            want = decompose(sliced, 6, N)
            got = out[exps]
            assert type(got) is type(want)
            if want:
                assert got == want
            else:
                assert got.first_failing_degree == want.first_failing_degree


# -- the integer solver against a Fraction reference ------------------------


def reference_solve(rows, rhs):
    """Gauss-Jordan over Fraction with least-degree pivoting; None if rank < n."""
    m, n = len(rows), len(rows[0])
    a = [[F(x) for x in r] + [F(v)] for r, v in zip(rows, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, m) if a[i][c]), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(m):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [a[i][n] for i in range(n)]


def reference_result(columns, target, b, order):
    """The solution as Fractions, or the first failing degree, as decompose had it."""
    matrix = [[col[d] for col in columns] for d in range(order + 1)]
    sol = reference_solve(matrix[:b], target[:b]) or reference_solve(matrix, target)
    if sol is None:
        return None
    for d, row in enumerate(matrix):
        if sum(x * y for x, y in zip(sol, row)) != target[d]:
            return d
    return sol


def solved(columns, targets):
    delta, out = _eliminate(columns, targets)
    return [xs if isinstance(xs, int) else [F(x, delta) for x in xs] for xs in out]


def random_system(rng, b, order, zero_rows=()):
    columns = [[0 if d in zero_rows else rng.randint(-30, 30) for d in range(order + 1)]
               for _ in range(b)]
    x = [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(b)]
    den = 1
    for v in x:
        den = den * v.denominator // gcd(den, v.denominator)
    in_span = [int(sum(v * den * col[d] for v, col in zip(x, columns)))
               for d in range(order + 1)]
    return columns, in_span


class TestEliminate:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_fraction_reference(self, seed):
        rng = random.Random(seed)
        b = rng.randint(1, 9)
        order = b + rng.randint(0, 8)
        columns, in_span = random_system(rng, b, order)
        noise = [rng.randint(-5, 5) for _ in range(order + 1)]
        perturbed = [x + (d == order) for d, x in enumerate(in_span)]
        targets = [in_span, noise, perturbed, [0] * (order + 1)]
        got = solved(columns, targets)
        assert got == [reference_result(columns, t, b, order) for t in targets]
        assert not isinstance(got[0], int) and got[2] == order

    @pytest.mark.parametrize("seed", range(4))
    def test_singular_leading_block_takes_all_rows(self, seed):
        # a zero row inside the leading block makes it singular; least-degree
        # pivoting over every row still solves, and the zero row is checked
        rng = random.Random(100 + seed)
        b = rng.randint(2, 7)
        order = b + 6
        zero = rng.randrange(b)
        columns, in_span = random_system(rng, b, order, zero_rows=(zero,))
        assert reference_solve([[c[d] for c in columns] for d in range(b)], in_span[:b]) is None
        off = [x + (d == zero) for d, x in enumerate(in_span)]
        noise = [rng.randint(-5, 5) for _ in range(order + 1)]
        targets = [in_span, off, noise]
        got = solved(columns, targets)
        assert got == [reference_result(columns, t, b, order) for t in targets]
        assert not isinstance(got[0], int) and got[1] == zero

    def test_every_degree_is_checked(self):
        # a target off the span at degree d alone fails at d, for every d;
        # d never pivots because every column vanishes there
        rng = random.Random(7)
        b, order = 4, 12
        for d in range(order + 1):
            columns, in_span = random_system(rng, b, order, zero_rows=(d,))
            off = [x + 3 * (e == d) for e, x in enumerate(in_span)]
            assert solved(columns, [in_span, off])[1] == d

    def test_rank_deficient_raises(self):
        rng = random.Random(3)
        columns, in_span = random_system(rng, 3, 9)
        columns[2] = [2 * x - y for x, y in zip(columns[0], columns[1])]
        with pytest.raises(ValueError, match="underdetermined system: increase the order"):
            _eliminate(columns, [in_span])

    @pytest.mark.parametrize("weight", [2, 4, 6, 8, 10])
    def test_decompose_matches_fraction_reference(self, weight):
        rng = random.Random(weight)
        order = len(basis_monomials(weight)) + 10 + rng.randint(0, 3)
        basis = QMBasis(weight, order)
        columns = [list(s.coeffs) for s in basis.series]
        extras = [QSeries.zero(order), bracket((1,), order), z_series((2,), order) ** (order - 1)]
        for extra in extras:
            f = extra.scale(F(rng.randint(1, 9), rng.randint(1, 4)))
            for s in rng.sample(basis.series, min(3, len(basis))):
                f = f + s.scale(F(rng.randint(-9, 9), rng.randint(1, 7)))
            want = reference_result(columns, list(f.coeffs), len(basis), order)
            got = decompose(f, weight, order)
            if isinstance(want, int):
                assert isinstance(got, NotInSpan) and got.first_failing_degree == want
            else:
                assert got.coeffs == {m: c for m, c in zip(basis.monomials, want) if c}
