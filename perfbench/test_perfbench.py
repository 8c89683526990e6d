"""Tests of the benchmark's references, inputs, checks and scaling.

Run from the root of the repository with

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The references are pinned to printed values.  Every workload check is run
once on a real program output with the right reference, where it must pass,
and once with a perturbed reference, where it must fail, so that no check can
pass vacuously.  The harness tests pin how times are scaled to the reference
speed and that every per-layer metric in BENCHMARK.json is measured.
"""
from __future__ import annotations

import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import refs  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def perturbed(coeffs, n=3):
    out = list(coeffs)
    out[n] += 1
    return out


class ReferenceValues(unittest.TestCase):
    def test_single_index_zeta_through_q7(self):
        self.assertEqual(refs.z_single(2, 7), [0, 1, 3, 4, 7, 6, 12, 8])
        self.assertEqual(refs.z_single(4, 7), [0, 0, 1, 4, 11, 20, 40, 56])
        self.assertEqual(refs.z_single(6, 7), [0, 0, 0, 1, 6, 21, 57, 126])

    def test_h0_direct_sum(self):
        self.assertEqual(refs.h0_direct(7), [0, 0, 2, 16, 60, 160, 360, 672])

    def test_divisor_sums(self):
        self.assertEqual(refs.n_sigma1(6), [0, 1, 6, 12, 28, 30, 72])
        self.assertEqual(refs.divisor_series(3, 4), [0, 1, 9, 28, 73])
        self.assertEqual(refs.z_single(2, 12), refs.divisor_series(1, 12))

    def test_partitions_and_euler_product(self):
        p = refs.partition_numbers(10)
        self.assertEqual(p, [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42])
        self.assertEqual(refs.euler_product(7), [1, -1, -1, 0, 0, 1, 0, 1])
        self.assertEqual(refs.mul(p, refs.euler_product(10)), [1] + [0] * 10)

    def test_eisenstein_constant_terms(self):
        self.assertEqual(refs.eisenstein_single(2, 3), [Fraction(-1, 24), 1, 3, 4])
        self.assertEqual(refs.eisenstein_single(4, 2)[0], Fraction(1, 1440))
        self.assertEqual(refs.eisenstein_single(6, 2)[0], Fraction(-1, 60480))
        self.assertEqual(refs.eisenstein_single(4, 2)[2], Fraction(9, 6))

    def test_weight_relations_between_references(self):
        # Z(4) = [4] - (1/6)[2] and Z(3) = 2[3]
        order = 12
        self.assertEqual(refs.z_single(4, order),
                         refs.add(refs.bracket_single(4, order),
                                  refs.scale(refs.bracket_single(2, order), Fraction(-1, 6))))
        self.assertEqual(refs.z_single(3, order), refs.scale(refs.bracket_single(3, order), 2))

    def test_geometric_product(self):
        # 1/((1-q)(1-q^2)) counts partitions into parts 1 and 2
        self.assertEqual(refs.geometric_product(0, (1, 2), 5), [1, 1, 2, 2, 3, 3])
        self.assertEqual(refs.geometric_product(2, (2,), 5), [0, 0, 1, 0, 1, 0])


class SurfaceChecks(unittest.TestCase):
    ORDER = 4

    def fseries(self, spec, K_trivial):
        from qzeta.fock import SurfaceModel
        from qzeta.pipeline import FSeriesSpec, f_series_reduced
        s = SurfaceModel(K_trivial=K_trivial)
        one, l1, l2 = s.one(), s.divisor("L1"), s.divisor("L2")
        entries = {"11": ((1, one), (1, one)), "10L1": ((1, one), (0, l1)),
                   "00": ((0, l1), (0, l2))}[spec]
        return f_series_reduced(FSeriesSpec(entries, s, self.ORDER))

    def test_fseries_checks_pass_and_catch_perturbations(self):
        for K_trivial in (False, True):
            for spec in ("11", "10L1", "00"):
                series = self.fseries(spec, K_trivial)
                slices = wl._surface_slices(spec, K_trivial, self.ORDER)
                self.assertIsNone(wl.check_mpoly_series(series, slices, self.ORDER, spec))
                for mono in slices:
                    bad = {**slices, mono: perturbed(slices[mono])}
                    verdict = wl.check_mpoly_series(series, bad, self.ORDER, spec)
                    self.assertEqual(verdict[0], "wrong", (spec, K_trivial, mono))
                extra = {**slices, (("L2L2", 1),): perturbed(refs.zeros(self.ORDER))}
                self.assertEqual(wl.check_mpoly_series(series, extra, self.ORDER, spec)[0],
                                 "wrong")

    def test_decomposition_check(self):
        from qzeta.fock import SurfaceModel
        from qzeta.qmforms import decompose_mpoly
        from qzeta.ring import QSeries
        order = 17
        ring = SurfaceModel(K_trivial=True).ring
        chi, l1l2 = ring.gen("chi"), ring.gen("L1L2")
        chi_part = [c * Fraction(-5, 4) for c in refs.h0_direct(order)]
        total = (QSeries(chi_part).lift(ring).scale(chi)
                 + QSeries(refs.n_sigma1(order)).lift(ring).scale(l1l2))
        result = decompose_mpoly(total, 6, order)
        expected = {(("chi", 1),): refs.CHI_DECOMPOSITION,
                    (("L1L2", 1),): refs.L1L2_DECOMPOSITION}
        self.assertIsNone(wl.check_decomposition(result, expected, ring.symbols, "sum"))
        for mono, dec in expected.items():
            bad_dec = dict(dec)
            bad_dec[(2, 0, 0)] += 1
            bad = {**expected, mono: bad_dec}
            self.assertEqual(wl.check_decomposition(result, bad, ring.symbols, "sum")[0],
                             "wrong")
        fewer = {(("chi", 1),): refs.CHI_DECOMPOSITION}
        self.assertEqual(wl.check_decomposition(result, fewer, ring.symbols, "sum")[0], "wrong")


class EquivariantChecks(unittest.TestCase):
    def test_two_point_check(self):
        from qzeta.pipeline import equiv_ch1ch1
        order = 6
        h0 = refs.h0_direct(order)
        for m in (0, 3):
            series = equiv_ch1ch1(m, order)
            self.assertIsNone(wl.check_equiv_ch1ch1(series, h0, m))
            self.assertEqual(wl.check_equiv_ch1ch1(series, perturbed(h0), m)[0], "wrong")
        # at m = 2 the series vanishes; a reference that does not is caught
        self.assertEqual(wl.check_equiv_ch1ch1(equiv_ch1ch1(2, order), h0, 3)[0], "wrong")

    def test_word_check(self):
        from random import Random
        from qzeta.fock import equiv_trace, fock_trace_bruteforce
        order = 8
        p = refs.partition_numbers(order)
        for word in wl.balanced_words(Random(5), 6):
            rec, brute = equiv_trace(word, order), fock_trace_bruteforce(word, order)
            self.assertIsNone(wl.check_word(rec, brute, p, word))
            self.assertEqual(wl.check_word(rec, brute, perturbed(p), word)[0], "wrong")

    def test_gamma_check(self):
        from qzeta.fock import gamma_commutation_check
        self.assertIsNone(wl.check_gamma(gamma_commutation_check(2, 2, 3), 2))
        self.assertEqual(wl.check_gamma(False, 2)[0], "wrong")

    def test_words_are_balanced_and_seeded(self):
        from random import Random
        a = wl.balanced_words(Random(3), 30)
        self.assertEqual(a, wl.balanced_words(Random(3), 30))
        self.assertNotEqual(a, wl.balanced_words(Random(4), 30))
        self.assertEqual([len(w) for w in a], [len(w) for w in wl.balanced_words(Random(4), 30)])
        for w in a:
            self.assertEqual(sorted(w), sorted(-x for x in w))


class SessionChecks(unittest.TestCase):
    def test_rational_series_check(self):
        out = wl.cli_request(("expand", "D(Z(2))", "--order", "8", "--json"))
        want = refs.n_sigma1(8)
        self.assertIsNone(wl.check_rational_series(out, want, "D(Z(2))"))
        self.assertEqual(wl.check_rational_series(out, perturbed(want), "x")[0], "wrong")
        out = wl.cli_request(("expand", "EulerPow(1)^-1", "--order", "8", "--json"))
        self.assertIsNone(wl.check_rational_series(out, refs.partition_numbers(8), "p"))
        self.assertEqual(
            wl.check_rational_series(out, perturbed(refs.partition_numbers(8)), "p")[0], "wrong")
        out = wl.cli_request(("expand", "Z(3) - 2*B[3]", "--order", "8", "--json"))
        self.assertIsNone(wl.check_rational_series(out, refs.zeros(8), "zero"))
        self.assertEqual(wl.check_rational_series(out, perturbed(refs.zeros(8)), "z")[0], "wrong")

    def test_trace_check(self):
        from random import Random
        rng = Random(11)
        for kind in range(12):
            word, want = wl._trace_request(rng, 10, kind % 6)
            out = wl.cli_request(("trace", word, "--order", "10", "--json"))
            self.assertIsNone(wl.check_poly_series(out, want, word), word)
            (exps, coeffs), = want.items()
            bad = {exps: perturbed(coeffs, 5)}
            self.assertEqual(wl.check_poly_series(out, bad, word)[0], "wrong", word)

    def test_decompose_check(self):
        from random import Random
        rng = Random(2)
        for weight in (4, 6):
            text, coeffs = wl._decompose_request(rng, weight)
            out = wl.cli_request(("decompose", text, "--weight", str(weight),
                                  "--order", "18", "--json"))
            self.assertIsNone(wl.check_decompose_output(out, coeffs, text))
            name = next(iter(coeffs))
            bad = {**coeffs, name: coeffs[name] + 1}
            self.assertEqual(wl.check_decompose_output(out, bad, text)[0], "wrong")

    def test_verify_and_malformed_checks(self):
        out = wl.cli_request(("verify", "--check", "dz3", "--order", "10", "--json"))
        self.assertIsNone(wl.check_verify_output(out, "dz3", 10, "dz3"))
        self.assertEqual(wl.check_verify_output(out, "dz3", 11, "dz3")[0], "wrong")
        self.assertEqual(wl.check_malformed(out, "dz3")[0], "failed")
        refused = wl.cli_request(("expand", "Z(1)", "--order", "5"))
        self.assertIsNone(wl.check_malformed(refused, "Z(1)"))
        self.assertEqual(wl.check_rational_series(refused, refs.zeros(5), "Z(1)")[0], "failed")

    def test_session_outputs_are_right(self):
        for op in wl.build_session(0):
            try:
                verdict = op.check(op.run())
            except Exception:  # a program fault on a malformed request
                verdict = ("failed", op.name)
            if op.name.startswith("malformed:"):
                self.assertTrue(verdict is None or verdict[0] == "failed", op.name)
            else:
                self.assertIsNone(verdict, op.name)


class Inputs(unittest.TestCase):
    def test_seed_fixes_inputs_but_not_the_mix(self):
        for name in ("equivariant_twopoint", "qseries_session", "surface_twopoint"):
            a, b = wl.build(name, 1), wl.build(name, 2)
            self.assertEqual(sorted(op.name for op in a), sorted(op.name for op in b), name)
            self.assertEqual([op.name for op in a], [op.name for op in wl.build(name, 1)])


class Harness(unittest.TestCase):
    def test_each_operation_is_scaled_by_the_samples_around_it(self):
        ref = run.REFERENCE_S
        payload = {"ops": [("a", 0.5, "ok"), ("b", 0.5, "ok")],
                   "op_at_s": [(0.0, 0.5), (2.0, 2.5)],
                   "cal_at_s": [0.1, 0.3, 2.2, 2.4], "cal_s": [ref, ref, 2 * ref, 4 * ref]}
        a, b = run.scaled_ops(payload)
        self.assertAlmostEqual(a, 0.5)
        self.assertAlmostEqual(b, 0.5 / 3)
        self.assertAlmostEqual(run.speed(payload), 0.5)

    def test_every_per_layer_metric_is_measured(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        measured = Tracer().layer_metrics()
        self.assertEqual(len(measured), 2 * len(LAYERS))
        for m in spec["per_layer"]:
            name, unit = m["name"], m["unit"]
            if name == "trace.overhead_s":
                continue
            self.assertIn(name, measured)
            self.assertEqual(unit, "count" if name.endswith(".calls") else "s", name)


if __name__ == "__main__":
    unittest.main()
