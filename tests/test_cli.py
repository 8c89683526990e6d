"""Expression language, round-tripping, and the command-line surface."""
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qzeta.cli import (BinOp, DOp, EulerPowGen, GGen, Lit, Neg, ParseError,
                       SumRef, ZGen, BGen, build_arg_parser, eval_text, main,
                       parse, print_expr)
from qzeta.pipeline import CHECKS
from qzeta.ring import QSeries, euler_pow
from qzeta.zeta import bracket, z_series

F = Fraction
ENV = {**os.environ, "PYTHONPATH": "src"}


def run_cli(*args, env=None):
    return subprocess.run([sys.executable, "-m", "qzeta.cli", *args],
                          capture_output=True, text=True, cwd=os.path.dirname(
                              os.path.dirname(os.path.abspath(__file__))),
                          env=env or ENV)


class TestParser:
    def test_precedence(self):
        node = parse("Z(2)^2 + 7/2*Z(4)")
        assert isinstance(node, BinOp) and node.op == "+"
        assert node.left == BinOp("^", ZGen((2,)), Lit(2))
        assert node.right == BinOp("*", BinOp("/", Lit(7), Lit(2)), ZGen((4,)))

    def test_generators(self):
        assert parse("B[3,2]") == BGen((3, 2))
        assert parse("G(6)") == GGen(6)
        assert parse("EulerPow(-1)") == EulerPowGen(-1)
        assert parse('sum("h11_0")') == SumRef("h11_0")
        assert parse("D(Z(3))") == DOp(ZGen((3,)))

    def test_z_index_validation(self):
        with pytest.raises(ParseError, match=">= 2"):
            parse("Z(1)")

    def test_bracket_index_validation(self):
        with pytest.raises(ParseError):
            parse("B[0]")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(Z(2) + Z(4)")

    def test_lexical_error_position(self):
        with pytest.raises(ParseError, match="column 8"):
            parse("Z(2) + $")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("Z(2) Z(4)")


def random_ast(rng, depth=0):
    leaves = [
        lambda: Lit(rng.randint(0, 9)),
        lambda: ZGen(tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 3)))),
        lambda: BGen(tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 2)))),
        lambda: GGen(rng.choice([2, 4, 6])),
        lambda: EulerPowGen(rng.randint(-3, 3)),
        lambda: SumRef(rng.choice(["h11_0", "thm_sum1"])),
    ]
    if depth >= 4 or rng.random() < 0.35:
        return rng.choice(leaves)()
    op = rng.choice(["+", "-", "*", "/", "^", "D", "neg"])
    if op == "^":
        return BinOp("^", random_ast(rng, depth + 1), Lit(rng.randint(0, 3)))
    if op == "D":
        return DOp(random_ast(rng, depth + 1))
    if op == "neg":
        return Neg(random_ast(rng, depth + 1))
    return BinOp(op, random_ast(rng, depth + 1), random_ast(rng, depth + 1))


class TestRoundTrip:
    def test_corpus_of_1000(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            ast = random_ast(rng)
            text = print_expr(ast)
            again = parse(text)
            assert again == ast, text

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_round_trip_hypothesis_seeds(self, seed):
        ast = random_ast(random.Random(seed))
        assert parse(print_expr(ast)) == ast


class TestEval:
    def test_bracket_two_is_z_two(self):
        assert eval_text("B[2]", 12).agrees_with(z_series((2,), 12))

    def test_euler_pow_partitions(self):
        got = eval_text("EulerPow(-1)", 10)
        assert got.agrees_with(euler_pow(-1, 10))

    def test_g2_shift(self):
        got = eval_text("G(2) + 1/24", 12)
        assert got.agrees_with(z_series((2,), 12))

    def test_dz3_combination_vanishes(self):
        got = eval_text("D(Z(3)) - 5*Z(5) + 4*Z(3,2) + 6*Z(2,3) - Z(3)", 40)
        assert got.is_zero()

    def test_division_by_nonunit_rejected(self):
        with pytest.raises(ZeroDivisionError):
            eval_text("1/Z(2)", 8)

    def test_eval_distributes(self):
        rng = random.Random(4)
        done = 0
        while done < 25:
            a, b = random_ast(rng, depth=3), random_ast(rng, depth=3)
            try:
                lhs = eval_text(print_expr(BinOp("+", a, b)), 8)
                rhs = eval_text(print_expr(a), 8) + eval_text(print_expr(b), 8)
            except ZeroDivisionError:
                continue  # random division by a series with zero constant term
            assert lhs.agrees_with(rhs)
            done += 1


# `trace --json` output: the six word families of the `qseries_session`
# benchmark workload at orders 14 and 38 on the general and the K-trivial
# surface, four longer words with K, e and pt at chi = 5, every cyclic
# rotation of eight seeded three-group words at order 16 on both surfaces,
# and six shape families at order 16 on both surfaces (the last 30 entries):
# each family's words differ only in their mode values, chosen so that some
# q-shifts land at the order and some at order + 1
GOLDEN_TRACE = Path(__file__).with_name("golden_trace.json")
# `decompose --json` output: seeded rational combinations of basis monomials
# at weights 2-12 near the least order each weight allows, the same perturbed
# by a series outside the span (B[1], EulerPow(1), Z(3), a power of Z(2) past
# the weight, B[2,1], and Z(2)^e for an e past the leading rows, which fails
# at degree e), the three h11 components, D(Z(2)) and G(4)*G(6)
GOLDEN_DECOMPOSE = Path(__file__).with_name("golden_decompose.json")


class TestMainInProcess:
    def run_main(self, *argv):
        out = io.StringIO()
        old = sys.stdout
        sys.stdout = out
        try:
            code = main(list(argv))
        finally:
            sys.stdout = old
        return code, out.getvalue()

    def test_expand_golden(self):
        code, out = self.run_main("expand", "Z(2)", "--order", "7")
        assert code == 0
        values = [line.split("\t")[1] for line in out.strip().splitlines()]
        assert values == ["0", "1", "3", "4", "7", "6", "12", "8"]

    def test_expand_parse_error_exit_2(self):
        code, _ = self.run_main("expand", "Z(1)")
        assert code == 2

    def test_decompose_golden(self):
        code, out = self.run_main("decompose", 'sum("h11_0")',
                                  "--weight", "6", "--order", "30")
        assert code == 0
        table = dict(line.split("\t") for line in out.strip().splitlines())
        assert table["Z(2)^2"] == "1"
        assert table["Z(4)"] == "1"
        assert table["Z(2)^3"] == "-8/3"
        assert table["Z(2)*Z(4)"] == "4"
        assert table["Z(6)"] == "14/3"

    def test_decompose_not_in_span(self):
        code, out = self.run_main("decompose", "B[1]", "--weight", "6",
                                  "--order", "30")
        assert code == 0
        assert "not in span" in out

    def test_verify_pass_exit_0(self):
        code, out = self.run_main("verify", "--check", "bk3_2_6,qiqj")
        assert code == 0
        assert out.count("pass") == 2

    def test_verify_unknown_check_exit_2(self):
        code, _ = self.run_main("verify", "--check", "bogus")
        assert code == 2

    def test_trace_bad_word_exit_2(self):
        code, _ = self.run_main("trace", "a[1,2](1X) + a[-3](K)", "--order", "5")
        assert code == 2
        code, _ = self.run_main("trace", "a[1,0](1X)", "--order", "5")
        assert code == 2  # zero mode rejected

    def test_trace_unknown_class_exit_2(self):
        code, _ = self.run_main("trace", "a[-1,1](Q7)", "--order", "5")
        assert code == 2

    def test_trace_json(self):
        code, out = self.run_main("trace", "a[-1,1](1X)", "--order", "5",
                                  "--chi", "24", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 5
        # reduced trace of the grouped pair: -chi q/(1-q) with chi = 24
        coeffs = data["coeffs"]
        assert coeffs[1] == [{"coef": ["-24", "1"], "exps": [0] * 7}]

    def test_trace_golden(self):
        for entry in json.loads(GOLDEN_TRACE.read_text()):
            code, out = self.run_main(*entry["argv"])
            assert code == 0
            want = json.dumps(entry["output"], sort_keys=True, separators=(",", ":"))
            assert out == want + "\n", entry["argv"]

    def test_decompose_golden_corpus(self):
        golden = json.loads(GOLDEN_DECOMPOSE.read_text())
        assert sum(entry["output"]["coeffs"] is None for entry in golden) >= 30
        for entry in golden:
            code, out = self.run_main(*entry["argv"])
            assert code == 0
            want = json.dumps(entry["output"], sort_keys=True, separators=(",", ":"))
            assert out == want + "\n", entry["argv"]

    def test_json_byte_stable(self):
        args = ("expand", 'sum("h11_0")', "--order", "9", "--json")
        _, out1 = self.run_main(*args)
        _, out2 = self.run_main(*args)
        assert out1 == out2

    def test_trace_normalization_suffix(self):
        # the suffix divides the first factor by its symmetry factorial, 2 in
        # both words: a[1,-2,1] repeats the part 1 apart, so its factorial is
        # 2 only once the parts are read as a multiset.  Both zero series
        # would be useless, so each word has a nonzero trace (one loop, b = 1)
        for word in ("a[-2,1,1](1X) * a[-1](1X) * a[-1,2](1X)",
                     "a[1,-2,1](1X) * a[-1](1X) * a[2,-1](1X)"):
            series = []
            for text in (word, word.replace("(1X)", "(1X)/!", 1)):
                code, out = self.run_main("trace", text, "--order", "8", "--chi", "1")
                assert code == 0
                series.append([Fraction(line.split("\t")[1]) for line in out.splitlines()])
            plain, halved = series
            assert any(plain), word
            assert [2 * c for c in halved] == plain, word

    def test_decompose_reads_expression_file(self, tmp_path):
        path = tmp_path / "expr.txt"
        path.write_text("Z(2)^2 + Z(4)\n")
        code, out = self.run_main("decompose", str(path),
                                  "--weight", "6", "--order", "30")
        assert code == 0
        table = dict(line.split("\t") for line in out.strip().splitlines())
        assert table["Z(2)^2"] == "1" and table["Z(4)"] == "1"
        assert table["weight"] == "4"

    @pytest.mark.parametrize("text", ["3", "-2"])
    def test_decompose_reads_bare_number_file_as_expression(self, tmp_path, text):
        path = tmp_path / "number.txt"
        path.write_text(text + "\n")
        got = self.run_main("decompose", str(path), "--weight", "2", "--order", "12")
        assert got == self.run_main("decompose", text, "--weight", "2", "--order", "12")
        assert got == (0, f"1\t{text}\nweight\t0\nverified_to\t12\n")

    def test_decompose_reads_series_json(self, tmp_path):
        from qzeta.ring import series_to_json
        from qzeta.zeta import eval_named
        path = tmp_path / "series.json"
        path.write_text(json.dumps(series_to_json(eval_named("h11_0", 30))))
        code, out = self.run_main("decompose", str(path),
                                  "--weight", "6", "--order", "30")
        assert code == 0
        assert "Z(6)\t14/3" in out


class TestFailureModes:
    def run_main(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.err

    def test_verify_order_below_check_minimum_exit_2(self, capsys):
        # at order -1 the check would compare no coefficient and pass
        code, err = self.run_main(capsys, "verify", "--check", "str_gk_k1",
                                  "--order", "-1")
        assert code == 2
        assert len(err.splitlines()) == 1 and "str_gk_k1" in err

    def test_verify_order_0_is_a_usage_error(self, capsys):
        code, err = self.run_main(capsys, "verify", "--check",
                                  "h11_direct_vs_decomp", "--order", "0")
        assert code == 2
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("data", [
        {"var": "q", "order": 5, "coeffs": [["1", "1"]]},
        {"var": "q", "order": 1, "coeffs": [["1", "1"], ["0", "1"], ["2", "1"]]},
        {"var": "q", "order": 1, "coeffs": [["1", "1", "7"], ["0", "1"]]},
        [["1", "1"], ["0", "1"]],
        "Z(2)",
        {"var": "q", "order": 1, "coeffs": {"0": ["1", "1"]}},
        {"var": "q", "order": 1, "coeffs": [1, 0]},
        {"var": "q", "order": "1", "coeffs": [["1", "1"], ["0", "1"]]},
    ], ids=["short coeffs", "long coeffs", "three-element pair", "top-level list",
            "top-level string", "coeffs not a list", "bare-int coefficients",
            "string order"])
    def test_decompose_malformed_series_json_exit_2(self, capsys, tmp_path, data):
        path = tmp_path / "series.json"
        path.write_text(json.dumps(data))
        code, err = self.run_main(capsys, "decompose", str(path), "--order", "1")
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: series JSON")

    @pytest.mark.parametrize("argv", [
        ("verify", "--check", "nope"),
        ("expand", 'sum("nope")', "--order", "5"),
    ], ids=["unknown check", "unknown named sum"])
    def test_unknown_name_message_is_not_quoted(self, capsys, argv):
        # a KeyError's message prints as written, not as its repr
        code, err = self.run_main(capsys, *argv)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error: unknown") and '"' not in err

    def test_decompose_directory_exit_2(self, capsys, tmp_path):
        code, err = self.run_main(capsys, "decompose", str(tmp_path), "--order", "1")
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot read")

    def test_deeply_nested_expression_exit_2(self, capsys):
        text = "(" * 2000 + "1" + ")" * 2000
        code, err = self.run_main(capsys, "expand", text)
        assert code == 2
        assert err == "error: expression nested too deeply\n"

    def test_trace_requests_leave_no_engine_alive(self, capsys):
        import gc
        from qzeta.fock import SurfaceTraceEngine

        def live_engines():
            return [o for o in gc.get_objects() if isinstance(o, SurfaceTraceEngine)]

        gc.collect()
        before = live_engines()
        for _ in range(20):
            assert main(["trace", "a[-1,3](1X) * a[-3,1](1X)", "--order", "14"]) == 0
        capsys.readouterr()
        gc.collect()
        new = [e for e in live_engines() if not any(e is b for b in before)]
        assert new == []

    def test_trace_bad_chi_exit_2(self, capsys):
        code, err = self.run_main(capsys, "trace", "a[1](1X) * a[-1](1X)", "--chi", "1.5")
        assert code == 2
        assert err == "error: bad --chi '1.5': expected 'sym' or an integer\n"

    def test_bad_default_order_env_exit_2(self, capsys, monkeypatch):
        # exit 1 would claim that a check failed
        monkeypatch.setenv("QZETA_DEFAULT_ORDER", "abc")
        code, err = self.run_main(capsys, "expand", "Z(2)")
        assert code == 2
        assert err == "error: bad QZETA_DEFAULT_ORDER: 'abc'\n"

    @pytest.mark.parametrize("argv", [
        ["expand", "B[1]"], ["decompose", "Z(2)"], ["trace", "a[-1,1](1X)"],
        ["verify", "--check", "dz3"]])
    def test_order_too_large_to_index_exit_2(self, capsys, argv):
        # an uncaught OverflowError before; verify logged it and exited 3
        huge = "99999999999999999999"
        code, err = self.run_main(capsys, *argv, "--order", huge)
        assert code == 2
        assert err == f"error: order {huge} is too large\n"

    def test_default_order_env_too_large_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("QZETA_DEFAULT_ORDER", str(sys.maxsize))
        code, err = self.run_main(capsys, "expand", "Z(2)")
        assert code == 2
        assert err == f"error: bad QZETA_DEFAULT_ORDER: '{sys.maxsize}'\n"

    def test_crashing_check_is_an_error_and_the_run_goes_on(self, capsys,
                                                            monkeypatch):
        from qzeta.pipeline import CHECKS

        def crash(order):
            raise ValueError("boom\nsecond line")

        monkeypatch.setitem(CHECKS, "dz3", (crash, 40, 1))
        code = main(["verify", "--check", "dz3,bk3_2_6", "--order", "10",
                     "--json"])
        out = capsys.readouterr().out
        assert code == 3
        data = json.loads(out)
        assert [d["status"] for d in data] == ["error", "pass"]
        assert data[0]["detail"] == "ValueError: boom second line"
        assert data[0]["order"] == 10

    def test_crashing_check_logs_its_traceback_in_a_fresh_process(self):
        # -S keeps site hooks from loading logging first; the process reports
        # whether logging is loaded after import, after a clean run, and after
        # a crashing one, whose traceback reaches stderr through logging
        script = (
            "import sys\n"
            "from qzeta.cli import main\n"
            "from qzeta.pipeline import CHECKS\n"
            "def crash(order):\n"
            "    raise ValueError('boom\\nsecond line')\n"
            "seen = ['logging' in sys.modules]\n"
            "main(['verify', '--check', 'bk3_2_6', '--order', '10'])\n"
            "seen.append('logging' in sys.modules)\n"
            "CHECKS['dz3'] = (crash, 40, 1)\n"
            "code = main(['verify', '--check', 'dz3,bk3_2_6', '--order', '10', '--json'])\n"
            "seen.append('logging' in sys.modules)\n"
            "print(seen)\n"
            "sys.exit(code)\n")
        done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                              text=True, cwd=Path(__file__).resolve().parent.parent,
                              env=ENV, timeout=120)
        assert done.returncode == 3
        *results, seen = done.stdout.splitlines()
        assert seen == "[False, False, True]"
        data = json.loads(results[-1])
        assert [d["status"] for d in data] == ["error", "pass"]
        assert data[0]["detail"] == "ValueError: boom second line"
        assert done.stderr.startswith(
            "check dz3 raised\nTraceback (most recent call last):\n")
        assert "in run_checks\n    results.append(fn(check_order))" in done.stderr
        assert ", in crash\nValueError: boom\nsecond line\n" in done.stderr

    def test_failing_check_reports_its_case_and_the_run_goes_on(self, capsys,
                                                                monkeypatch):
        import qzeta.pipeline as pipeline
        monkeypatch.setattr(pipeline, "CHECKS", dict(pipeline.CHECKS))

        @pipeline.registered("dz3", 40, 1, "pass detail")
        def differs_at_q3(order):
            z2 = z_series((2,), order)
            yield "first case", z2, z2
            yield "second case", z2, z2 + QSeries([0, 0, 0, 1], order=order)
            yield "third case", z2, -z2

        code = main(["verify", "--check", "dz3,bk3_2_6", "--order", "10",
                     "--json"])
        out = capsys.readouterr().out
        assert code == 1
        data = json.loads(out)
        assert [d["status"] for d in data] == ["fail", "pass"]
        assert data[0]["detail"] == "second case"
        assert data[0]["mismatch"]["degree"] == 3

    @pytest.mark.parametrize("argv", [
        ["expand", "Z(2)"], ["decompose", "Z(2)"], ["trace", "a[-1,1](1X)"]])
    def test_order_too_large_to_allocate_exit_2(self, capsys, argv):
        # 2**62 fails while sizing the first coefficient list: nothing is
        # allocated, and before it escaped as a MemoryError traceback
        order = str(2 ** 62)
        code, err = self.run_main(capsys, *argv, "--order", order)
        assert code == 2
        assert err == f"error: order {order} is too large to allocate\n"

    def test_order_too_large_to_allocate_is_a_check_error(self, capsys):
        code = main(["verify", "--check", "dz3", "--order", str(2 ** 62)])
        out = capsys.readouterr().out
        assert code == 3
        assert out.startswith("ERROR\tdz3\t")

    def test_chern_expansion_order_too_large_is_a_check_error(self):
        # chern_op lists one term per mode up to the order; at 2**62 it must
        # fail before listing any.  The child's address space is capped and
        # its peak memory read back, so a regression fails here instead of
        # filling the machine.
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from qzeta.cli import main\n"
            "code = main(['verify', '--check', 'theorem_main,lemma_f00', '--order',"
            " str(2 ** 62)])\n"
            "with open('/proc/self/status') as status:\n"
            "    print([line.split()[1] for line in status if line.startswith('VmHWM')][0])\n"
            "sys.exit(code)\n")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, cwd=Path(__file__).resolve().parent.parent,
                              env=ENV, timeout=120)
        assert done.returncode == 3, done.stderr[-2000:]
        *lines, peak_kb = done.stdout.splitlines()
        assert [line.split("\t") for line in lines] == [
            ["ERROR", name, f"order={2 ** 62}", "MemoryError:"]
            for name in ("theorem_main", "lemma_f00")]
        assert int(peak_kb) < 256 * 1024


class TestParserReuse:
    REQUESTS = (["expand", "Z(2)", "--order", "5"],  # valid
                ["expand"],                          # usage error: exit 2
                ["--help"],
                ["verify", "--help"])

    def run_all(self, capsys):
        out = []
        for argv in self.REQUESTS:
            code = main(list(argv))
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    def test_parser_built_once_and_output_unchanged(self, capsys, monkeypatch):
        import qzeta.cli as cli

        built = []

        def counting_build():
            built.append(1)
            return build_arg_parser()

        cli._arg_parser.cache_clear()
        monkeypatch.setattr(cli, "build_arg_parser", counting_build)
        try:
            first = self.run_all(capsys)
            second = self.run_all(capsys)
        finally:
            cli._arg_parser.cache_clear()
        assert len(built) == 1
        assert first == second
        (code, out, err), (ucode, uout, uerr), (hcode, hout, herr), \
            (vcode, vout, verr) = first
        assert code == 0 and len(out.splitlines()) == 6 and err == ""
        assert ucode == 2 and uout == "" and "usage: qzeta expand" in uerr
        assert hcode == 0 and herr == "" and hout.startswith("usage: qzeta")
        fresh = io.StringIO()
        build_arg_parser().print_help(fresh)
        assert fresh.getvalue() == hout
        assert vcode == 0 and all(name in " ".join(vout.split()) for name in CHECKS)


class TestSubprocess:
    def test_env_default_order(self):
        env = {**ENV, "QZETA_DEFAULT_ORDER": "4"}
        res = run_cli("expand", "Z(2)", env=env)
        assert res.returncode == 0
        assert len(res.stdout.strip().splitlines()) == 5

    def test_verify_json(self):
        res = run_cli("verify", "--check", "dz3", "--json")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data[0]["name"] == "dz3" and data[0]["status"] == "pass"

    def test_usage_error(self):
        res = run_cli("expand")  # missing expression
        assert res.returncode == 2

    def test_high_weight_eisenstein_is_fast(self):
        # B_200 comes from the Bernoulli recurrence; inverting the series of
        # (e^t - 1)/t, whose denominators are factorials, took over 30 s
        start = time.perf_counter()
        res = run_cli("expand", "G(200)", "--order", "3")
        elapsed = time.perf_counter() - start
        assert res.returncode == 0, res.stderr
        values = [F(line.split("\t")[1]) for line in res.stdout.strip().splitlines()]
        # sigma_199(n)/199! for n = 1, 2, 3
        assert values[1:] == [F(s, factorial(199)) for s in (1, 1 + 2 ** 199, 1 + 3 ** 199)]
        assert elapsed < 5, elapsed
