"""The integer-slice series kernel against schoolbook Fraction/MPoly references."""
import contextlib
import hashlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qzeta.cli import main
from qzeta.ring import MPoly, MPolyRing, QSeries, _divide, lambert_term, series_to_json

F = Fraction
R = MPolyRing(("x", "y"))
SETTINGS = settings(max_examples=60, deadline=None)

# -- schoolbook references on coefficient lists ---------------------------------


def ref_mul(a, b, zero):
    n = min(len(a), len(b))
    out = [zero] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] = out[i + j] + a[i] * b[j]
    return out


def ref_inverse(a, zero, one):
    c0 = a[0] if isinstance(a[0], Fraction) else a[0].constant_value()
    inv0 = 1 / c0
    g = [one * inv0]
    for n in range(1, len(a)):
        acc = zero
        for k in range(1, n + 1):
            acc = acc + a[k] * g[n - k]
        g.append(acc * (-inv0))
    return g


# -- strategies ---------------------------------------------------------------------

# mixed denominators, large numerators and denominators, zeros and negatives
fractions = st.one_of(
    st.just(F(0)),
    st.integers(-5, 5).map(F),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.builds(F, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 25)),
)
exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(exps, fractions, max_size=3).map(lambda t: MPoly(R, t))


def rational_series(min_order=0, max_order=8):
    return st.lists(fractions, min_size=min_order + 1, max_size=max_order + 1).map(QSeries)


def mpoly_series(max_order=6):
    return st.lists(polys, min_size=1, max_size=max_order + 1).map(
        lambda cs: QSeries(cs, ring=R))


any_series = st.one_of(rational_series(), mpoly_series())


def pairs():
    """Two series over the same coefficient ring, of possibly unequal orders."""
    return st.one_of(st.tuples(rational_series(), rational_series()),
                     st.tuples(mpoly_series(), mpoly_series()))


def zero_of(s):
    return F(0) if s.ring is None else s.ring.zero


def one_of(s):
    return F(1) if s.ring is None else s.ring.one


def n_min(a, b):
    return min(a.order, b.order) + 1


# -- operations against the references --------------------------------------------


class TestKernelOracle:
    @SETTINGS
    @given(pairs())
    def test_mul(self, ab):
        a, b = ab
        got = a * b
        assert got.order == min(a.order, b.order)
        assert list(got.coeffs) == ref_mul(a.coeffs, b.coeffs, zero_of(a))

    @SETTINGS
    @given(any_series, st.integers(0, 4))
    def test_pow(self, a, k):
        want = [one_of(a)] + [zero_of(a)] * a.order
        for _ in range(k):
            want = ref_mul(want, a.coeffs, zero_of(a))
        assert list((a ** k).coeffs) == want

    @SETTINGS
    @given(pairs())
    def test_add_sub(self, ab):
        a, b = ab
        n = n_min(a, b)
        assert list((a + b).coeffs) == [x + y for x, y in zip(a.coeffs[:n], b.coeffs[:n])]
        assert list((a - b).coeffs) == [x - y for x, y in zip(a.coeffs[:n], b.coeffs[:n])]
        assert (a - a).is_zero()

    @SETTINGS
    @given(rational_series(), fractions)
    def test_scale_by_fraction(self, a, c):
        assert list(a.scale(c).coeffs) == [x * c for x in a.coeffs]
        assert list(a.lift(R).scale(c).coeffs) == [R.const(x * c) for x in a.coeffs]

    @SETTINGS
    @given(mpoly_series(), polys)
    def test_scale_by_mpoly(self, a, p):
        assert list(a.scale(p).coeffs) == [x * p for x in a.coeffs]
        assert list((a * p).coeffs) == [x * p for x in a.coeffs]

    @SETTINGS
    @given(st.one_of(rational_series(), mpoly_series()),
           st.builds(F, st.integers(1, 10 ** 12), st.integers(1, 10 ** 9)) | st.just(F(-3, 7)))
    def test_inverse(self, a, c0):
        a = a + (c0 - a.coeffs[0] if a.ring is None
                 else R.const(c0) - a.coeffs[0])  # invertible scalar constant term
        want = ref_inverse(a.coeffs, zero_of(a), one_of(a))
        got = a.inverse()
        assert list(got.coeffs) == want
        assert (a * got).agrees_with(QSeries.one(a.order))

    def test_inverse_refuses_noninvertible_constant(self):
        with pytest.raises(ZeroDivisionError):
            QSeries([0, 1]).inverse()
        with pytest.raises(ZeroDivisionError):
            QSeries([R.gen("x"), 1], ring=R).inverse()

    @SETTINGS
    @given(any_series)
    def test_q_derivative(self, a):
        assert list(a.q_derivative().coeffs) == [x * n for n, x in enumerate(a.coeffs)]

    @SETTINGS
    @given(rational_series())
    def test_lift(self, a):
        lifted = a.lift(R)
        assert lifted.ring is R
        assert list(lifted.coeffs) == [R.const(x) for x in a.coeffs]
        assert lifted.agrees_with(a) and a.agrees_with(lifted)

    @SETTINGS
    @given(any_series, st.integers(0, 9))
    def test_truncate(self, a, k):
        got = a.truncate(k)
        assert got.order == min(k, a.order)
        assert got.coeffs == a.coeffs[: k + 1]
        # truncation can drop the entries that kept a denominator: still canonical
        assert got == QSeries(a.coeffs[: k + 1], ring=a.ring)

    @SETTINGS
    @given(any_series)
    def test_by_monomial_reassembles(self, a):
        total = QSeries.zero(a.order, R)
        for e, s in (a.lift(R) if a.ring is None else a).by_monomial().items():
            total = total + s.lift(R).scale(R.monomial(e))
        assert total.agrees_with(a)


class TestKernelEquality:
    @SETTINGS
    @given(pairs())
    def test_equal_series_by_different_routes(self, ab):
        a, b = ab
        n = n_min(a, b) - 1
        routes = [
            a.truncate(n) + b.truncate(n),
            b + a,
            QSeries([x + y for x, y in zip(a.coeffs, b.coeffs)], order=n, ring=a.ring),
            (a + b) * QSeries.one(n, a.ring),
            ((a + b).scale(F(7, 3))).scale(F(3, 7)),
        ]
        for s in routes:
            assert s == routes[0]
            assert hash(s) == hash(routes[0])

    def test_order_and_ring_distinguish(self):
        a = QSeries([1, F(1, 2)])
        assert a != QSeries([1, F(1, 2), 0])
        assert a != a.lift(R)
        assert a.lift(R) == QSeries([1, F(1, 2)], ring=R)

    def test_coeffs_view_is_cached(self):
        s = QSeries([F(1, 3), 2]) * QSeries([3, F(5, 7)])
        assert s.coeffs is s.coeffs
        assert s.coeffs == (F(1), F(5, 21) + 6)


class TestDivide:
    # (size, n): n * n < size takes running sums per residue class, the rest
    # block adds; n >= size leaves the list as it is
    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("size, n", [(20, 1), (20, 3), (20, 4), (20, 5), (20, 7),
                                         (9, 3), (6, 9)])
    def test_equals_product_with_lambert_term(self, size, n, p):
        rng = random.Random(100 * size + 10 * n + p)
        nums = [rng.randint(-50, 50) for _ in range(size)]
        want = QSeries([F(x) for x in nums])
        if p:
            want = want * lambert_term(0, n, p, order=size - 1)
        assert [F(x) for x in _divide(list(nums), n, p)] == list(want.coeffs)


def ref_series_json(s):
    """series_to_json built from the Fraction/MPoly coefficient view."""
    def pair(c):
        return [str(c.numerator), str(c.denominator)]
    if s.ring is None:
        coeffs = [pair(c) for c in s.coeffs]
    else:
        coeffs = [[{"coef": pair(c), "exps": list(e)} for e, c in p.sorted_terms()]
                  for p in s.coeffs]
    return {"var": "q", "order": s.order, "coeffs": coeffs}


class TestSeriesJson:
    @SETTINGS
    @given(any_series)
    def test_equals_coefficient_view(self, s):
        assert series_to_json(s) == ref_series_json(s)

    def test_zero_negative_and_unreduced(self):
        # one slice 2/6, -4/6, 3/6, 0: canonical as a whole, not per coefficient
        s = QSeries.from_numerators([2, -4, 3, 0], 6, 3)
        assert series_to_json(s)["coeffs"] == [
            ["1", "3"], ["-2", "3"], ["1", "2"], ["0", "1"]]
        p = s.lift(R).scale(R.gen("x") - R.gen("y") * F(1, 2))
        for series in (s, p, QSeries.zero(4), QSeries.zero(4, R), QSeries.zero(0, R)):
            assert series_to_json(series) == ref_series_json(series)


class TestFloatsRefused:
    def test_constructor(self):
        with pytest.raises(TypeError):
            QSeries([0.5])
        with pytest.raises(TypeError):
            QSeries([0.5], ring=R)

    def test_scale(self):
        with pytest.raises(TypeError):
            QSeries([1, 2]).scale(0.5)
        with pytest.raises(TypeError):
            QSeries([1, 2], ring=R).scale(0.5)

    def test_lambert_term(self):
        with pytest.raises(TypeError):
            lambert_term(1, 1, 1, scale=0.5, order=4)
        with pytest.raises(TypeError):
            lambert_term(1, 1, 1, scale=0.5, order=4, ring=R)


# -- CLI JSON bytes, pinned from the Fraction-backed kernel --------------------------

# the six `trace` word families of the benchmark session, general and
# K-trivial, one `expand` per divisor-sum kind, and one `decompose`
PINNED = [
    (('trace', 'a[-2](L1) * a[2](L2)', '--order', '30', '--json'),
     757, "08acadc1a30cf1543818acfcdf0788dd2397f734a368a6216773fd5e93b716de"),
    (('trace', 'a[-2](L1) * a[2](L2)', '--order', '30', '--K-trivial', '--json'),
     757, "08acadc1a30cf1543818acfcdf0788dd2397f734a368a6216773fd5e93b716de"),
    (('trace', 'a[2](L1) * a[-2](L2)', '--order', '30', '--json'),
     799, "4f07a5f807f88c0b46f553ea2868c764dcc0025fdf25431d4de354682ee7996d"),
    (('trace', 'a[2](L1) * a[-2](L2)', '--order', '30', '--K-trivial', '--json'),
     799, "4f07a5f807f88c0b46f553ea2868c764dcc0025fdf25431d4de354682ee7996d"),
    (('trace', 'a[-2,2](1X)', '--order', '30', '--json'),
     757, "706423177d51e82b19f4ea25eab9453e65f55c18d0309235f4fd6cebc32cb3e9"),
    (('trace', 'a[-2,2](1X)', '--order', '30', '--K-trivial', '--json'),
     757, "706423177d51e82b19f4ea25eab9453e65f55c18d0309235f4fd6cebc32cb3e9"),
    (('trace', 'a[-2,3](1X) * a[-3,2](1X)', '--order', '30', '--json'),
     1297, "d1810dc053dbd4d41ebc6e49e89da17240a555a2aa99422a3dc7e218db80b7d9"),
    (('trace', 'a[-2,3](1X) * a[-3,2](1X)', '--order', '30', '--K-trivial', '--json'),
     1297, "d1810dc053dbd4d41ebc6e49e89da17240a555a2aa99422a3dc7e218db80b7d9"),
    (('trace', 'a[2,1](1X) * a[-1,-2](1X)', '--order', '30', '--json'),
     1421, "44035485a0c45f2d425d18a51c1e143464d29b443bd400f97702e2b0f12e2656"),
    (('trace', 'a[2,1](1X) * a[-1,-2](1X)', '--order', '30', '--K-trivial', '--json'),
     1421, "44035485a0c45f2d425d18a51c1e143464d29b443bd400f97702e2b0f12e2656"),
    (('trace', 'a[-1,-2](1X) * a[2,1](1X)', '--order', '30', '--json'),
     1295, "55a0f5b40daaba0b0b9da0dfb29747324eb2494e2fc7f83e8b2edd907647b853"),
    (('trace', 'a[-1,-2](1X) * a[2,1](1X)', '--order', '30', '--K-trivial', '--json'),
     1295, "55a0f5b40daaba0b0b9da0dfb29747324eb2494e2fc7f83e8b2edd907647b853"),
    (('expand', 'B[3]', '--order', '30', '--json'),
     389, "f829b7f266b323af55a592553123a589f2cbad2da167219708c05246c46bad40"),
    (('expand', 'D(Z(2))', '--order', '30', '--json'),
     400, "e0003f2cf7dc9500e00b35dd33ffba8ed532d595eea30f72cda49b2bd5a63044"),
    (('expand', 'G(4)', '--order', '30', '--json'),
     418, "e55f499ab793fed6688513e25aa1f2713e5456630df8f265f9f9a4f1059c7606"),
    (('expand', 'Z(4)', '--order', '30', '--json'),
     406, "e7ebcf69b6ccc75a60b721b8600948ed6f9cd8d3d1294f35a5d51cab5e82debd"),
    (('decompose', '-7/2*Z(2)^2 + 5/3*Z(4) + 1/6*Z(2)*Z(4)', '--weight', '6', '--order', '30', '--json'),
     166, "f378ab67b754b9ffb36cc26958cd6a8388a2f23a14ae918fb806a016166d5a6f"),
]


@pytest.mark.parametrize("argv, size, digest", PINNED)
def test_json_bytes_pinned(argv, size, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    data = out.getvalue().encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)
