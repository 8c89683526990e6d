"""Assembled series, registry checks, and cross-route consistency."""
import json
from fractions import Fraction
from pathlib import Path

import pytest

from qzeta.ring import MPoly, QSeries, euler_pow, series_to_json
from qzeta.zeta import eval_named, z_series
from qzeta.fock import (DecoratedOp, SurfaceModel, SurfaceTraceEngine, chern_op,
                        equiv_chern_op, gamma_trace, gamma_trace_sum, vertex_trace)
from qzeta.pipeline import (CHECKS, FSeriesSpec, ch1ch1_reduced, equiv_ch1ch1,
                            f00_expected, f10_expected, f111_component_check,
                            f_series_reduced, h_component_closed_form,
                            run_checks)

F = Fraction
GOLDEN_LOWEST_ORDER = Path(__file__).with_name("golden_lowest_order.json")
GOLDEN_WALKER = Path(__file__).with_name("golden_walker.json")


def swap_l1_l2(series):
    """Relabel the two auxiliary divisors in every coefficient."""
    ring = series.ring
    perm = []
    for s in ring.symbols:
        s2 = (s.replace("L1", "@").replace("L2", "L1").replace("@", "L2"))
        if s2 == "L2L1":
            s2 = "L1L2"
        perm.append(ring.symbols.index(s2))
    out = []
    for c in series.coeffs:
        terms = {}
        for exps, v in c.terms.items():
            new = tuple(exps[perm[i]] for i in range(len(perm)))
            terms[new] = v
        out.append(MPoly(ring, terms))
    return QSeries(out, order=series.order, ring=ring)


class TestFSeries:
    def test_empty_spec_is_one(self):
        surf = SurfaceModel()
        got = f_series_reduced(FSeriesSpec((), surf, 10))
        assert got.agrees_with(QSeries.one(10, surf.ring))

    def test_f00_lemma_order_15(self):
        surf = SurfaceModel()
        spec = FSeriesSpec(((0, surf.divisor("L1")), (0, surf.divisor("L2"))),
                           surf, 15)
        assert f_series_reduced(spec).agrees_with(f00_expected(surf, 15))

    def test_f10_lemma_order_15(self):
        surf = SurfaceModel()
        spec = FSeriesSpec(((1, surf.one()), (0, surf.divisor("L1"))), surf, 15)
        assert f_series_reduced(spec).agrees_with(f10_expected(surf, "L1", 15))

    def test_f10_touches_only_k_pairings(self):
        # every symbol monomial is K^2*<K,L1> or <K,L1>
        surf = SurfaceModel()
        spec = FSeriesSpec(((1, surf.one()), (0, surf.divisor("L1"))), surf, 12)
        series = f_series_reduced(spec)
        ring = surf.ring
        k2 = ring.symbols.index("K2")
        kl1 = ring.symbols.index("KL1")
        allowed = set()
        for c in series.coeffs:
            allowed.update(c.terms)
        for exps in allowed:
            assert exps[kl1] == 1
            assert all(e == 0 for i, e in enumerate(exps) if i not in (k2, kl1))

    def test_rejects_higher_index(self):
        surf = SurfaceModel()
        with pytest.raises(ValueError):
            FSeriesSpec(((2, surf.one()),), surf, 5)

    def test_f00_l1l2_slice_three_routes(self):
        # engine slice == direct Lambert sum == q d/dq of the weight-2 series
        from qzeta.ring import lambert_term
        N = 20
        surf = SurfaceModel()
        spec = FSeriesSpec(((0, surf.divisor("L1")), (0, surf.divisor("L2"))),
                           surf, N)
        series = f_series_reduced(spec)
        ring = surf.ring
        idx = ring.symbols.index("L1L2")
        exps = tuple(1 if i == idx else 0 for i in range(ring.arity))
        slice_ = QSeries([c.terms.get(exps, F(0)) for c in series.coeffs],
                         order=N)
        direct = QSeries.zero(N)
        for n in range(1, N + 1):
            direct = direct + (lambert_term(n, n, 3, order=N)
                               + lambert_term(2 * n, n, 3, order=N)).scale(n)
        assert slice_.agrees_with(direct)
        assert slice_.agrees_with(z_series((2,), N).q_derivative())


def explicit_term_sum(spec):
    """Sum of c_1...c_k vertex_trace(word) over one term per Chern expansion."""
    surface, order = spec.surface, spec.order
    total = QSeries.zero(order, surface.ring)
    words = [(F(1), [])]
    for k, klass in spec.entries:
        words = [(c * c2, word + [op]) for c, word in words
                 for c2, op in chern_op(k, klass, surface, order)]
    for c, word in words:
        total = total + vertex_trace(word, surface, order).scale(c)
    return total


def walker_golden_cases():
    """name -> series JSON of the walker's series, two to four expansions a walk."""
    out = {}
    for K_trivial, order in ((False, 8), (True, 17)):
        surf = SurfaceModel(K_trivial=K_trivial)
        one, l1, l2 = surf.one(), surf.divisor("L1"), surf.divisor("L2")
        for label, entries in (("11", ((1, one), (1, one))),
                               ("10L1", ((1, one), (0, l1))),
                               ("10L2", ((1, one), (0, l2))),
                               ("00", ((0, l1), (0, l2)))):
            out[f"f{label} K_trivial={K_trivial} order {order}"] = series_to_json(
                f_series_reduced(FSeriesSpec(entries, surf, order)))
    surf = SurfaceModel()
    entries = ((1, surf.one()), (0, surf.divisor("L1")), (1, surf.canonical()))
    out["f1,0L1,1K order 5"] = series_to_json(
        f_series_reduced(FSeriesSpec(entries, surf, 5)))
    for K_trivial in (False, True):
        out[f"ch1ch1 K_trivial={K_trivial} order 12"] = series_to_json(
            ch1ch1_reduced(SurfaceModel(K_trivial=K_trivial), 12))
    for m in range(4):
        out[f"equiv_ch1ch1 m={m} order 10"] = series_to_json(equiv_ch1ch1(m, 10))
    # wider groups: four and five parts, repeated parts, n and -n in one group
    for ks, order in (((2, 2), 8), ((1, 3), 8), ((1, 1, 1, 1), 6)):
        ops = {k: equiv_chern_op(k, order) for k in set(ks)}
        out[f"gamma_trace_sum m=3 ks={ks} order {order}"] = series_to_json(
            gamma_trace_sum(3, [ops[k] for k in ks], order))
    for K_trivial in (False, True):
        surf = SurfaceModel(K_trivial=K_trivial)
        for i, word in enumerate(WIDE_WORDS):
            ops = [DecoratedOp(parts, surf.class_by_name(name)) for parts, name in word]
            out[f"vertex_trace word {i} K_trivial={K_trivial} order 8"] = series_to_json(
                vertex_trace(ops, surf, 8))
    return out


# zero-weight words with a group of four or five parts that repeats a part and
# holds n and -n, drawn from random.Random(17) and kept because they trace to
# nonzero series on both surfaces
WIDE_WORDS = (
    (((3, 1, -1, 1, 3), "1X"), ((-2, -3, -3, 2), "e"), ((1, -2), "e")),
    (((-3, 1, -3, 3, 2), "1X"), ((3, -1), "L1"), ((-1, 1, -2), "L1")),
    (((3, -2, -2), "1X"), ((-3, -2, 3, 3), "e")),
)


class TestContractionTables:
    """The contracted F-series equals the per-word vertex traces, exactly."""

    @pytest.mark.parametrize("K_trivial", [False, True])
    def test_two_point_specs_match_explicit_sum(self, K_trivial):
        order = 7
        surf = SurfaceModel(K_trivial=K_trivial)
        one, l1, l2 = surf.one(), surf.divisor("L1"), surf.divisor("L2")
        for entries in (((1, one), (1, one)), ((1, one), (0, l1)),
                        ((1, one), (0, l2)), ((0, l1), (0, l2))):
            spec = FSeriesSpec(entries, surf, order)
            assert f_series_reduced(spec) == explicit_term_sum(spec), entries

    def test_three_entry_spec_matches_explicit_sum(self):
        surf = SurfaceModel()
        one, l1 = surf.one(), surf.divisor("L1")
        spec = FSeriesSpec(((1, one), (0, l1), (1, surf.canonical())), surf, 5)
        got = f_series_reduced(spec)
        assert not got.is_zero()
        assert got == explicit_term_sum(spec)

    def test_one_table_per_distinct_expansion(self, monkeypatch):
        # a table runs _group_removals once per term of its expansion
        import qzeta.fock as fock
        groups = []
        real = fock._group_removals
        monkeypatch.setattr(fock, "_group_removals",
                            lambda parts, order: groups.append(parts) or real(parts, order))
        surf, order = SurfaceModel(), 6
        g1 = chern_op(1, surf.one(), surf, order)
        g0 = chern_op(0, surf.divisor("L1"), surf, order)
        # equal classes built by different routes share one expansion
        f_series_reduced(FSeriesSpec(((1, surf.one()), (1, surf.one())), surf, order))
        assert len(groups) == len(g1)
        f_series_reduced(FSeriesSpec(((1, surf.one()), (0, surf.divisor("L1"))),
                                     surf, order))
        assert len(groups) == 2 * len(g1) + len(g0)
        del groups[:]
        equiv_ch1ch1(2, order)
        assert len(groups) == len(equiv_chern_op(1, order))
        # the two-point series builds one table per ch1(L_i) expansion
        del groups[:]
        ch1ch1_reduced(surf, order)
        assert len(groups) == 2 * len(g1) + 2 * len(g0)

    def test_words_whose_grades_cannot_balance_are_not_traced(self, monkeypatch):
        from tests.test_fock import grade_sums
        surf, order = SurfaceModel(K_trivial=True), 10
        real, words = SurfaceTraceEngine.trace, []

        def spy(engine, word):
            # the engine reads (parts, class id) groups
            words.append([DecoratedOp(parts, surf._classes[cid]) for parts, cid in word])
            return real(engine, word)

        monkeypatch.setattr(SurfaceTraceEngine, "trace", spy)
        f_series_reduced(FSeriesSpec(((1, surf.one()), (1, surf.one())), surf, order))
        # 486 words reach the engine when every leftover word is traced
        assert len(words) < 486
        assert all(0 in grade_sums(word) for word in words)

    @pytest.mark.parametrize("K_trivial", [False, True])
    def test_words_with_an_unpaired_mode_are_not_traced(self, monkeypatch, K_trivial):
        # the walker sums each tuple's mode imbalance; one that leaves some
        # mode n without a -n traces to zero and must not reach the engine
        surf, order = SurfaceModel(K_trivial=K_trivial), 5
        real, words = SurfaceTraceEngine.trace, []

        def spy(engine, word):
            words.append([p for parts, _ in word for p in parts])
            return real(engine, word)

        monkeypatch.setattr(SurfaceTraceEngine, "trace", spy)
        one, l1 = surf.one(), surf.divisor("L1")
        f_series_reduced(FSeriesSpec(((1, one), (0, l1), (1, one)), surf, order))
        assert words
        for parts in words:
            assert sorted(p for p in parts if p > 0) == sorted(-p for p in parts if p < 0)

    def test_walker_golden(self):
        # every series the removal walker gives here, pinned byte for byte
        golden = json.loads(GOLDEN_WALKER.read_text())
        got = walker_golden_cases()
        assert [g["name"] for g in golden] == list(got)
        for want in golden:
            assert got[want["name"]] == want["series"], want["name"]

    def test_word_of_nonzero_weight_traces_to_zero(self):
        surf = SurfaceModel()
        word = [DecoratedOp((-2, 1, 1), surf.one()),
                DecoratedOp((-1, -1, 3), surf.divisor("L1"))]
        got = vertex_trace(word, surf, 8)
        assert got.is_zero() and got.order == 8


class TestCh1Ch1:
    def test_symmetric_under_divisor_swap(self):
        surf = SurfaceModel()
        series = ch1ch1_reduced(surf, 10)
        assert series.agrees_with(swap_l1_l2(series))

    def test_trivial_divisors_leave_chi_part(self):
        # with K trivial and all L-pairings zero only the chi-slice remains
        surf = SurfaceModel(K_trivial=True)
        series = ch1ch1_reduced(surf, 12)
        ring = surf.ring
        chi_idx = ring.symbols.index("chi")
        h2 = h_component_closed_form(2, 12)
        for n, c in enumerate(series.coeffs):
            chi_exps = tuple(1 if i == chi_idx else 0 for i in range(ring.arity))
            assert c.terms.get(chi_exps, F(0)) == h2.coeffs[n]

    def test_k_trivial_l1l2_coefficient(self):
        surf = SurfaceModel(K_trivial=True)
        series = ch1ch1_reduced(surf, 14)
        ring = surf.ring
        idx = ring.symbols.index("L1L2")
        exps = tuple(1 if i == idx else 0 for i in range(ring.arity))
        slice_ = QSeries([c.terms.get(exps, F(0)) for c in series.coeffs],
                         order=series.order)
        assert slice_.agrees_with(z_series((2,), 14).q_derivative())


class TestEquivPipeline:
    def test_matches_h_polynomial(self):
        N = 10
        h0 = eval_named("h11_0", N)
        h2 = eval_named("h11_2", N)
        h4 = eval_named("h11_4", N)
        for m in (0, 1, 2):
            got = equiv_ch1ch1(m, N)
            want = h4.scale(F(m ** 4)) + h2.scale(F(m ** 2)) + h0
            assert got.agrees_with(want), m

    def test_even_in_m(self):
        for m in (1, 2, 3):
            assert equiv_ch1ch1(m, 8).agrees_with(equiv_ch1ch1(-m, 8))

    def test_vanishes_at_m_one_and_two(self):
        # the components satisfy h0(m^2-1)(m^2-4)/4, so these vanish exactly
        assert equiv_ch1ch1(1, 10).is_zero()
        assert equiv_ch1ch1(2, 10).is_zero()

    def test_components_by_interpolation_in_m_squared(self):
        # the m = 0, 1, 2 values determine all three components exactly
        N = 10
        v0 = equiv_ch1ch1(0, N)
        v1 = equiv_ch1ch1(1, N)
        v4 = equiv_ch1ch1(2, N)
        twelfth = F(1, 12)
        h4 = (v4 - v1.scale(4) + v0.scale(3)).scale(twelfth)
        h2 = (v1.scale(16) - v4 - v0.scale(15)).scale(twelfth)
        h0 = v0
        assert h0.agrees_with(eval_named("h11_0", N))
        assert h2.agrees_with(eval_named("h11_2", N))
        assert h4.agrees_with(eval_named("h11_4", N))


class TestGammaWalker:
    """The removal walker in the equivariant setting, against explicit sums."""

    def test_equiv_ch1ch1_matches_brute_force_oracle(self):
        from tests.test_fock import brute_gamma_trace
        N = 6
        ops = equiv_chern_op(1, N)
        for m in range(4):
            want = QSeries.zero(N)
            for c1, p1 in ops:
                for c2, p2 in ops:
                    want = want + brute_gamma_trace(m, (p1, p2), N).scale(c1 * c2)
            want = want * euler_pow(1 - m * m, N)
            assert equiv_ch1ch1(m, N) == want, m

    def test_three_entry_sum_matches_explicit_gamma_traces(self):
        N = 5
        expansions = [equiv_chern_op(1, N), equiv_chern_op(0, N),
                      equiv_chern_op(1, N)]
        for m in (0, 3):  # the sum vanishes at m = 1 and m = 2
            want = QSeries.zero(N)
            for c1, p1 in expansions[0]:
                for c2, p2 in expansions[1]:
                    for c3, p3 in expansions[2]:
                        want = want + gamma_trace(m, (p1, p2, p3), N).scale(
                            c1 * c2 * c3)
            got = gamma_trace_sum(m, expansions, N)
            assert not got.is_zero()
            assert got == want, m


class TestRegistry:
    def test_all_names_present(self):
        assert set(CHECKS) == {
            "euler_partition_oracle", "bracket_defs", "okounkov_defs",
            "bk3_2_6", "eisenstein_conversion", "dz3", "bra1cor4", "qiqj",
            "trala_suite", "tracei1Xj1X", "trij1Xij1X", "gamma_comm",
            "str_gk_k1", "equiv_kodd_vanishing", "h11_direct_vs_decomp",
            "prop_h11024", "corollary_h11024_discrepancy", "lemma_f00",
            "lemma_f101", "lemma_f111", "theorem_main", "theorem_K_trivial"}

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            run_checks(["not_a_check"])

    def test_fast_subset_passes(self):
        names = ["bk3_2_6", "dz3", "qiqj", "str_gk_k1"]
        results = run_checks(names, order=None)
        assert all(r.passed for r in results)
        assert [r.name for r in results] == names

    def test_every_check_passes_at_its_lowest_order(self):
        # the golden reports pin each detail, including order-dependent notes
        golden = json.loads(GOLDEN_LOWEST_ORDER.read_text())
        assert [g["name"] for g in golden] == list(CHECKS)
        for want, (name, (_, default_order, min_order)) in zip(golden, CHECKS.items()):
            assert min_order <= default_order, name
            r = run_checks([name], order=min_order)[0]
            assert r.passed and r.order == min_order, name
            assert r.to_json_dict() == want, name
            with pytest.raises(ValueError, match=name):
                run_checks([name], order=min_order - 1)

    def test_order_override(self):
        r = run_checks(["bk3_2_6"], order=12)[0]
        assert r.order == 12 and r.passed

    def test_discrepancy_report(self):
        r = run_checks(["corollary_h11024_discrepancy"], order=20)[0]
        assert r.passed
        assert "true chain: h0 = -(4/5) h2 = 4 h4" in r.detail
        assert "holds: False" in r.detail

    def test_f111_component_check(self):
        r = f111_component_check(10)
        assert r.passed

    def test_check_result_json(self):
        r = run_checks(["qiqj"], order=15)[0]
        d = r.to_json_dict()
        assert d["name"] == "qiqj" and d["status"] == "pass" and d["order"] == 15

    def test_checks_leave_no_engine_alive(self):
        # a long-lived process that sweeps orders must not keep every
        # surface and its engines
        import gc

        def live_engines():
            gc.collect()
            return sum(isinstance(o, SurfaceTraceEngine) for o in gc.get_objects())

        before = live_engines()
        for order in range(4, 8):
            results = run_checks(["lemma_f00", "theorem_K_trivial"], order=order)
            assert all(r.passed for r in results), results
        assert live_engines() <= before
