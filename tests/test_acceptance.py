"""Acceptance criteria: one test per criterion, exact equality at stated orders.

Each test prints a single pass line with its runtime.  Expected values marked
"corrected" follow the verified errata recorded in the project notes: the
displayed component formulas for the weight-6 pieces carry flipped signs, the
displayed closed form of the degree-0 two-point lemma disagrees with its own
derivation, and the proportionality chain between the equivariant components
is misprinted; every corrected value here was frozen from an independent
oracle (brute-force Fock traces, Ramanujan's derivative identity, or direct
coefficient arithmetic).
"""
import random
import time
from fractions import Fraction
from itertools import product as iproduct

import pytest

from qzeta.ring import MPolyRing, QSeries, euler_pow, lambert_term
from qzeta.zeta import bracket, eisenstein, eval_named, z_series
from qzeta.qmforms import NotInSpan, QMBasis, decompose, decompose_mpoly
from qzeta.fock import (DecoratedOp, SurfaceModel, equiv_chern_op, equiv_trace,
                        fock_trace_bruteforce, gamma_trace)
from qzeta.pipeline import (FSeriesSpec, ch1ch1_reduced, equiv_ch1ch1,
                            f00_expected, f10_expected, f11_expected,
                            f_series_reduced, run_checks)

F = Fraction


def report(name, t0):
    print(f"\nPASS {name} ({time.time() - t0:.1f}s)")


# frozen from the printed expansions through q^7
GOLDEN = {
    "Z(2)": [0, 1, 3, 4, 7, 6, 12, 8],
    "Z(2)^2": [0, 0, 1, 6, 17, 38, 70, 116],
    "Z(4)": [0, 0, 1, 4, 11, 20, 40, 56],
    "Z(2)^3": [0, 0, 0, 1, 9, 39, 120, 300],
    "Z(2)*Z(4)": [0, 0, 0, 1, 7, 27, 76, 178],
    "Z(6)": [0, 0, 0, 1, 6, 21, 57, 126],
}
H0_GOLDEN = [0, 0, 2, 16, 60, 160, 360, 672]
H0_DECOMP = {(2, 0, 0): F(1), (0, 1, 0): F(1), (3, 0, 0): F(-8, 3),
             (1, 1, 0): F(4), (0, 0, 1): F(14, 3)}


def test_criterion_1_series_golden_files():
    t0 = time.time()
    z2 = z_series((2,), 7)
    z4 = z_series((4,), 7)
    z6 = z_series((6,), 7)
    got = {
        "Z(2)": z2, "Z(2)^2": z2 * z2, "Z(4)": z4,
        "Z(2)^3": z2 * z2 * z2, "Z(2)*Z(4)": z2 * z4, "Z(6)": z6,
    }
    for name, want in GOLDEN.items():
        assert list(got[name].coeffs) == [F(c) for c in want], name
    assert time.time() - t0 < 1.0
    report("criterion 1: series golden files through q^7", t0)


def test_criterion_2_h0_direct_sum_and_decomposition():
    t0 = time.time()
    h0 = eval_named("h11_0", 30)
    assert [h0.coeffs[n] for n in range(8)] == [F(c) for c in H0_GOLDEN]
    dec = decompose(h0, 6, 30)
    assert dec and dec.coeffs == H0_DECOMP
    assert time.time() - t0 < 30.0
    report("criterion 2: h0 direct sum matches and decomposes exactly", t0)


def test_criterion_3_h2_h4_decompositions_and_discrepancy():
    t0 = time.time()
    h2 = decompose(eval_named("h11_2", 30), 6, 30)
    h4 = decompose(eval_named("h11_4", 30), 6, 30)
    # corrected signs (oracle: brute-force Fock traces force h2 = -(5/4) h0,
    # h4 = +(1/4) h0; the printed component formulas have the opposite sign)
    assert h2 and h2.coeffs == {m: c * F(-5, 4) for m, c in H0_DECOMP.items()}
    assert h4 and h4.coeffs == {m: c * F(1, 4) for m, c in H0_DECOMP.items()}
    rep = run_checks(["corollary_h11024_discrepancy"])[0]
    assert rep.passed
    assert "true chain: h0 = -(4/5) h2 = 4 h4" in rep.detail
    # the printed corollary chain and the proposition-implied chain both fail
    assert rep.detail.count("holds: False") == 2
    assert time.time() - t0 < 60.0
    report("criterion 3: component decompositions (corrected signs) and "
           "discrepancy report", t0)


def test_criterion_4_identity_suite():
    t0 = time.time()
    results = run_checks(["bra1cor4", "dz3", "bk3_2_6",
                          "eisenstein_conversion", "qiqj"])
    for r in results:
        assert r.passed, r
    orders = {r.name: r.order for r in results}
    assert orders == {"bra1cor4": 50, "dz3": 40, "bk3_2_6": 40,
                      "eisenstein_conversion": 40, "qiqj": 40}
    assert time.time() - t0 < 30.0
    report("criterion 4: identity suite at stated orders", t0)


def _all_words(parts, length):
    return iproduct(parts, repeat=length)


def _balanced(word):
    from collections import Counter
    c = Counter(word)
    return all(c[n] == c[-n] for n in c)


def test_criterion_5_oracle_equivalence():
    t0 = time.time()
    N = 15
    reducer = euler_pow(1, N)
    parts = (-3, -2, -1, 1, 2, 3)

    def agree(word):
        a = equiv_trace(word, N)
        b = fock_trace_bruteforce(word, N) * reducer
        assert a.agrees_with(b), word

    # exhaustive for lengths <= 5
    for length in range(1, 6):
        for word in _all_words(parts, length):
            agree(word)
    # length 6: all balanced words exhaustively, plus a seeded sample of
    # unbalanced words (both engines are zero there; see the project notes)
    rng = random.Random(20240817)
    unbalanced = []
    for word in _all_words(parts, 6):
        if _balanced(word):
            agree(word)
        else:
            unbalanced.append(word)
    for word in rng.sample(unbalanced, 1000):
        agree(word)

    # the scalar closed forms at order 20 via both engines
    r = run_checks(["trala_suite"])[0]
    assert r.passed and r.order == 20
    assert time.time() - t0 < 120.0
    report("criterion 5: dual-engine agreement (|parts| <= 3, length <= 6, "
           "order 15) and closed forms", t0)


def test_criterion_6_equivariant_pipeline():
    t0 = time.time()
    N = 15
    h0 = eval_named("h11_0", N)
    h2 = eval_named("h11_2", N)
    h4 = eval_named("h11_4", N)
    for m in (0, 1, 2):
        got = equiv_ch1ch1(m, N)
        want = h4.scale(F(m ** 4)) + h2.scale(F(m ** 2)) + h0
        assert got.agrees_with(want), m
    # single odd-index operator traces vanish
    ops = equiv_chern_op(1, N)
    for m in (0, 1, 2):
        acc = QSeries.zero(N)
        for c, p in ops:
            t = gamma_trace(m, (p,), N)
            if not t.is_zero():
                acc = acc + t.scale(c)
        assert acc.is_zero(), m
    assert time.time() - t0 < 120.0
    report("criterion 6: equivariant two-point series and odd vanishing", t0)


def test_criterion_7_surface_pipeline():
    t0 = time.time()
    surf = SurfaceModel()

    f00 = f_series_reduced(FSeriesSpec(
        ((0, surf.divisor("L1")), (0, surf.divisor("L2"))), surf, 25))
    assert f00.agrees_with(f00_expected(surf, 25))

    f10 = f_series_reduced(FSeriesSpec(
        ((1, surf.one()), (0, surf.divisor("L1"))), surf, 20))
    assert f10.agrees_with(f10_expected(surf, "L1", 20))

    f11 = f_series_reduced(FSeriesSpec(((1, surf.one()), (1, surf.one())),
                                       surf, 12))
    assert f11.agrees_with(f11_expected(surf, 12))

    for name, order in (("theorem_main", 40), ("theorem_K_trivial", 60)):
        r = run_checks([name])[0]
        assert r.passed and r.order == order, r

    # exact rational coefficients of the K-trivial series (corrected display)
    ksurf = SurfaceModel(K_trivial=True)
    series = ch1ch1_reduced(ksurf, 20)
    slices = decompose_mpoly(series, 6, 20)
    ring = ksurf.ring
    chi_exps = tuple(1 if s == "chi" else 0 for s in ring.symbols)
    l1l2_exps = tuple(1 if s == "L1L2" else 0 for s in ring.symbols)
    assert set(slices) == {chi_exps, l1l2_exps}
    assert slices[l1l2_exps].coeffs == {(1, 0, 0): F(1), (0, 1, 0): F(5),
                                        (2, 0, 0): F(-2)}
    assert slices[chi_exps].coeffs == {m: c * F(-5, 4)
                                       for m, c in H0_DECOMP.items()}
    assert time.time() - t0 < 300.0
    report("criterion 7: surface pipeline lemmas and theorems "
           "(corrected displays)", t0)


def test_criterion_8_property_suites():
    t0 = time.time()
    rng = random.Random(7)

    def rand_series(order=20):
        return QSeries([F(rng.randint(-5, 5), rng.randint(1, 4))
                        for _ in range(order + 1)], order=order)

    # ring axioms and the derivation rule on random series
    for _ in range(40):
        f, g, h = rand_series(), rand_series(), rand_series()
        assert ((f * g) * h - f * (g * h)).is_zero()
        assert (f * (g + h) - (f * g + f * h)).is_zero()
        assert (f * g - g * f).is_zero()
        d = (f * g).q_derivative() - (f.q_derivative() * g + f * g.q_derivative())
        assert d.is_zero()

    # partition-number oracle to n = 50
    p = [1] + [0] * 50
    for part in range(1, 51):
        for s in range(part, 51):
            p[s] += p[s - part]
    assert list(euler_pow(-1, 50).coeffs) == [F(c) for c in p]

    # decompose linearity and basis-delta recovery
    basis = QMBasis(6, 30)
    for mono, series in zip(basis.monomials, basis.series):
        dec = decompose(series, 6, 30)
        assert dec and dec.coeffs == {mono: F(1)}
    f = eval_named("h11_0", 30)
    g = basis.series[3]
    a, b = F(3, 2), F(-7, 5)
    dec = decompose(f.scale(a) + g.scale(b), 6, 30)
    want = {m: a * c for m, c in H0_DECOMP.items()}
    want[basis.monomials[3]] = want.get(basis.monomials[3], F(0)) + b
    assert dec and dec.coeffs == {m: c for m, c in want.items() if c}

    # parser round-trip corpus
    from qzeta.cli import parse, print_expr
    from tests.test_cli import random_ast
    rng2 = random.Random(424242)
    for _ in range(1000):
        ast = random_ast(rng2)
        assert parse(print_expr(ast)) == ast

    assert time.time() - t0 < 60.0
    report("criterion 8: property suites", t0)
