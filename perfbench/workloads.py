"""The three benchmark workloads: seeded inputs, operations and their checks.

`build(name, seed)` returns the workload's fixed list of operations.  Each
operation is a call into the program (`run`) and a check of its output
(`check`) against the values in `refs`, which are computed apart from the
program, or against a property the method must have.  A check returns None
when the output is right, or one of

    ("failed", detail)   the request was not served: an uncaught exception,
                         a well-formed request refused, or a malformed
                         request not refused with exit 2 and one line;
    ("wrong", detail)    the request was served with a wrong answer.

The inputs depend only on the seed.  A seed changes parameters and the order
of operations, never the number or the kind of operations, so every seed
attempts the same amount of work.
"""
from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from random import Random

import refs

WORKLOADS = ("surface_twopoint", "equivariant_twopoint", "qseries_session")

SURFACE_GENERAL_ORDERS = (5, 6, 7, 8)
SURFACE_KTRIVIAL_ORDER = 17  # decompose at weight 6 needs order >= 7 + 10
EQUIV_ORDER = 10
WORD_ORDER = 18
WORD_COUNT = 96
GAMMA_ORDER = 4
GAMMA_WINDOW = 6
GAMMA_PAIRING = 2


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _series_mismatch(got, want, what):
    """First degree where a coefficient list differs from the reference."""
    if len(got) != len(want):
        return ("wrong", f"{what}: order {len(got) - 1}, expected {len(want) - 1}")
    for n, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return ("wrong", f"{what}: q^{n} coefficient {a}, expected {b}")
    return None


# -- surface_twopoint ------------------------------------------------------------------


def _surface_slices(spec, K_trivial, order):
    """{symbol monomial: coefficient list} of one reduced F-series.

    A symbol monomial is a tuple of (symbol, power) pairs.  The closed forms
    are the paper's two-point lemmas, with h2 = -(5/4) h0 and h4 = (1/4) h0.
    """
    chi = (("chi", 1),)
    if spec == "00":
        out = {(("L1L2", 1),): refs.n_sigma1(order)}
        if not K_trivial:
            z2 = refs.z_single(2, order)
            out[(("KL1", 1), ("KL2", 1))] = refs.mul(z2, z2)
        return out
    if spec == "11":
        h0 = refs.h0_direct(order)
        out = {chi: refs.scale(h0, Fraction(-5, 4))}
        if not K_trivial:
            z3m2 = refs.add(refs.z_single(3, order), refs.scale(refs.z_single(2, order), -1))
            out[(("K2", 2),)] = refs.scale(refs.mul(z3m2, z3m2), Fraction(1, 4))
            out[(("K2", 1),)] = refs.add(refs.theorem_sums(order),
                                         refs.scale(h0, Fraction(-1, 4)))
        return out
    # spec "10L1" / "10L2": index-(1, 0) lemma, all of it K-dependent
    if K_trivial:
        return {}
    pair = "K" + spec[2:]
    z2 = refs.z_single(2, order)
    z3m2 = refs.add(refs.z_single(3, order), refs.scale(z2, -1))
    return {(("K2", 1), (pair, 1)): refs.scale(refs.mul(z3m2, z2), Fraction(1, 2)),
            ((pair, 1),): refs.scale(refs.q_derivative(z3m2), Fraction(1, 2))}


def _exps(symbols, monomial):
    powers = dict(monomial)
    return tuple(powers.get(s, 0) for s in symbols)


def check_mpoly_series(series, slices, order, what):
    """Every q-coefficient of a polynomial-coefficient series, slice by slice."""
    if series.order != order:
        return ("wrong", f"{what}: order {series.order}, expected {order}")
    symbols = series.ring.symbols
    want_by_exps = {_exps(symbols, mono): coeffs for mono, coeffs in slices.items()}
    for n, poly in enumerate(series.coeffs):
        want = {e: c[n] for e, c in want_by_exps.items() if c[n]}
        if poly.terms != want:
            return ("wrong", f"{what}: q^{n} coefficient {poly!r}, expected "
                             f"{ {_symbols_text(symbols, e): c for e, c in want.items()} }")
    return None


def _symbols_text(symbols, exps):
    return "*".join(f"{s}^{e}" if e > 1 else s for s, e in zip(symbols, exps) if e) or "1"


def check_decomposition(result, expected, symbols, what):
    """decompose_mpoly output against {symbol monomial: {(a, b, c): coefficient}}."""
    want = {_exps(symbols, mono): dec for mono, dec in expected.items()}
    if set(result) != set(want):
        return ("wrong", f"{what}: slices {sorted(result)}, expected {sorted(want)}")
    for exps, dec in want.items():
        got = result[exps]
        if not got or got.coeffs != dec:
            return ("wrong", f"{what}: slice {_symbols_text(symbols, exps)} is {got!r}")
    return None


def build_surface(seed):
    """Four F-series per surface and order, then the K-trivial decomposition.

    The general surface runs at a sweep of orders, the K-trivial one at the
    lowest order that decomposition at weight 6 accepts.  The seed orders the
    (surface, order) blocks and the two (1, 0) series inside each block; a
    block shares no cache with another, and L1 and L2 are symmetric, so every
    seed does the same work.
    """
    # the program's functions are looked up when called, so that a tracer
    # installed after set-up sees the calls
    from qzeta import fock, pipeline, qmforms

    rng = Random(seed)
    ktrivial_series = {}
    blocks = [(False, n) for n in SURFACE_GENERAL_ORDERS] + [(True, SURFACE_KTRIVIAL_ORDER)]
    rng.shuffle(blocks)
    ops = []
    for K_trivial, order in blocks:
        first, second = rng.sample(("L1", "L2"), 2)
        for spec in ("11", "10" + first, "10" + second, "00"):
            slices = _surface_slices(spec, K_trivial, order)

            def run(K_trivial=K_trivial, spec=spec, order=order):
                surface = fock.SurfaceModel(K_trivial=K_trivial)
                one = surface.one()
                entries = {"11": ((1, one), (1, one)),
                           "10L1": ((1, one), (0, surface.divisor("L1"))),
                           "10L2": ((1, one), (0, surface.divisor("L2"))),
                           "00": ((0, surface.divisor("L1")), (0, surface.divisor("L2")))}
                series = pipeline.f_series_reduced(
                    pipeline.FSeriesSpec(entries[spec], surface, order))
                if K_trivial:
                    ktrivial_series[spec] = series
                return series

            label = f"f{spec}:{'ktrivial' if K_trivial else 'general'}@{order}"
            ops.append(Op(label, run, lambda s, slices=slices, order=order, label=label:
                          check_mpoly_series(s, slices, order, label)))

    expected = {(("chi", 1),): refs.CHI_DECOMPOSITION,
                (("L1L2", 1),): refs.L1L2_DECOMPOSITION}

    def decompose_sum():
        total = None
        for s in ktrivial_series.values():
            total = s if total is None else total + s
        return total.ring.symbols, qmforms.decompose_mpoly(total, 6, SURFACE_KTRIVIAL_ORDER)

    ops.append(Op("decompose:ktrivial", decompose_sum,
                  lambda out: check_decomposition(out[1], expected, out[0],
                                                  "K-trivial two-point sum")))
    return ops


# -- equivariant_twopoint ------------------------------------------------------------------


def balanced_words(rng, count, max_part=3):
    """Words of scalar operators in which every mode n occurs as often as -n.

    Word i has 2 + (i mod 3) creation/annihilation pairs, so every seed draws
    the same mix of lengths; the modes and the arrangement are seeded.
    """
    words = []
    for i in range(count):
        modes = [rng.randint(1, max_part) for _ in range(2 + i % 3)]
        word = modes + [-n for n in modes]
        rng.shuffle(word)
        words.append(tuple(word))
    return words


def check_equiv_ch1ch1(series, h0, m):
    """equiv_ch1ch1(m) = h0 (m^2 - 1)(m^2 - 4) / 4."""
    want = refs.scale(h0, Fraction((m * m - 1) * (m * m - 4), 4))
    return _series_mismatch(list(series.coeffs), want, f"equiv_ch1ch1 m={m}")


def check_word(recursive, brute, partitions, word):
    """The brute-force trace is the reduced trace times sum p(n) q^n."""
    return _series_mismatch(list(brute.coeffs),
                            refs.mul(list(recursive.coeffs), partitions),
                            f"word {word}: brute force vs recursive")


def check_gamma(ok, pairing):
    if ok is True:
        return None
    return ("wrong", f"gamma_commutation_check({pairing}) returned {ok!r}")


def build_equivariant(seed):
    from qzeta import fock, pipeline

    rng = Random(seed)
    h0 = refs.h0_direct(EQUIV_ORDER)
    partitions = refs.partition_numbers(WORD_ORDER)
    ops = [Op(f"equiv_ch1ch1:m={m}", lambda m=m: pipeline.equiv_ch1ch1(m, EQUIV_ORDER),
              lambda s, m=m: check_equiv_ch1ch1(s, h0, m))
           for m in range(4)]
    for word in balanced_words(rng, WORD_COUNT):
        ops.append(Op(f"word:len={len(word)}",
                      lambda word=word: (fock.equiv_trace(word, WORD_ORDER),
                                         fock.fock_trace_bruteforce(word, WORD_ORDER)),
                      lambda out, word=word: check_word(*out, partitions, word)))
    ops.append(Op("gamma_comm",
                  lambda: fock.gamma_commutation_check(GAMMA_PAIRING, GAMMA_ORDER,
                                                       GAMMA_WINDOW),
                  lambda ok: check_gamma(ok, GAMMA_PAIRING)))
    rng.shuffle(ops)
    return ops


# -- qseries_session ------------------------------------------------------------------

# The trace command's polynomial coefficients list exponents in this symbol
# order: the Euler characteristic, then the pairings of K, L1, L2.
TRACE_SYMBOLS = ("chi", "K2", "KL1", "KL2", "L1L1", "L1L2", "L2L2")

# One phase per order of the sweep, which rises, then revisits orders out of
# turn: the vanishing identity, the cheap registry check (with its order), and
# the decomposition weight used at that order.
H11_4 = 'sum("h11_4") - 1/4*sum("h11_0")'
H11_2 = 'sum("h11_2") + 5/4*sum("h11_0")'
DZ3 = "D(Z(3)) - 5*Z(5) + 4*Z(3,2) + 6*Z(2,3) - Z(3)"
G2 = "G(2) + 1/24 - Z(2)"
G4 = "G(4) - 1/1440 - 1/6*Z(2) - Z(4)"
G6 = "G(6) + 1/60480 - 1/120*Z(2) - 1/4*Z(4) - Z(6)"
BK4 = "B[4] - 1/6*B[2] - Z(4)"
BK3 = "Z(3) - 2*B[3]"
EULER = "EulerPow(1)*EulerPow(-1) - 1"
SESSION_PHASES = (
    (14, H11_4, ("str_gk_k1", 6), 4),
    (18, H11_2, ("bk3_2_6", 12), 6),
    (22, DZ3, ("qiqj", 10), 6),
    (26, G4, ("dz3", 12), 6),
    (30, BK4, ("okounkov_defs", 12), 6),
    (34, G6, ("tracei1Xj1X", 10), 6),
    (38, BK3, ("euler_partition_oracle", 20), 6),
    (22, G2, ("eisenstein_conversion", 16), 6),
    (18, EULER, ("bracket_defs", 10), 6),
    (30, DZ3, ("trala_suite", 6), 6),
    (14, H11_2, ("equiv_kodd_vanishing", 6), 4),
    (26, G6, ("qiqj", 12), 6),
    (34, G4, ("bk3_2_6", 16), 6),
    (18, BK4, ("dz3", 10), 6),
    (38, G2, ("okounkov_defs", 10), 6),
    (22, BK3, ("trij1Xij1X", 8), 6),
)

# Each `trace` request builds a SurfaceTraceEngine, which the program keeps
# alive for the life of the process.  Enough of them make the engines' share
# of the session's peak memory large enough for peak_rss_mb to show it.
TRACES_PER_PHASE = 9

# The three malformed requests, by phase.  Each should exit 2 with one line on
# stderr and no traceback.
MALFORMED = {
    0: ("deep_parens", ("expand", "(" * 2000 + "1" + ")" * 2000)),
    5: ("order_0", ("verify", "--check", "h11_direct_vs_decomp", "--order", "0")),
    10: ("order_-1", ("verify", "--check", "str_gk_k1", "--order", "-1")),
}


class CliOutcome:
    __slots__ = ("code", "out", "err")

    def __init__(self, code, out, err):
        self.code, self.out, self.err = code, out, err


def cli_request(argv):
    """One in-process `qzeta` request; an uncaught exception propagates."""
    from qzeta import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return CliOutcome(code, out.getvalue(), err.getvalue())


def _served(outcome, what):
    if outcome.code != 0:
        return ("failed", f"{what}: exit {outcome.code}: {outcome.err.strip()[:200]}")
    return None


def check_rational_series(outcome, want, what):
    bad = _served(outcome, what)
    if bad:
        return bad
    data = json.loads(outcome.out)
    got = [Fraction(int(n), int(d)) for n, d in data["coeffs"]]
    return _series_mismatch(got, want, what)


def check_poly_series(outcome, want, what):
    """want: {exponent tuple: coefficient list} over TRACE_SYMBOLS."""
    bad = _served(outcome, what)
    if bad:
        return bad
    data = json.loads(outcome.out)
    order = data["order"]
    if order != len(next(iter(want.values()))) - 1:
        return ("wrong", f"{what}: order {order}")
    for n, entry in enumerate(data["coeffs"]):
        got = {tuple(r["exps"]): Fraction(int(r["coef"][0]), int(r["coef"][1]))
               for r in entry}
        exp = {e: c[n] for e, c in want.items() if c[n]}
        if got != exp:
            return ("wrong", f"{what}: q^{n} coefficient {got}, expected {exp}")
    return None


def check_decompose_output(outcome, want, what):
    """want: {basis monomial name: Fraction}; every other coefficient is zero."""
    bad = _served(outcome, what)
    if bad:
        return bad
    data = json.loads(outcome.out)
    if data.get("coeffs") is None:
        return ("wrong", f"{what}: not in span at degree {data.get('not_in_span_at_degree')}")
    got = {name: Fraction(int(n), int(d))
           for name, (n, d) in zip(data["basis"], data["coeffs"]) if int(n)}
    if got != want:
        return ("wrong", f"{what}: coefficients {got}, expected {want}")
    return None


def check_verify_output(outcome, name, order, what):
    if outcome.code not in (0, 1):
        return ("failed", f"{what}: exit {outcome.code}: {outcome.err.strip()[:200]}")
    data = json.loads(outcome.out)
    want = [(name, "pass", order)]
    got = [(r["name"], r["status"], r["order"]) for r in data]
    if got != want:
        return ("wrong", f"{what}: {got}")
    return None


def check_malformed(outcome, what):
    """Exit 2, exactly one line on stderr, and no traceback."""
    lines = outcome.err.splitlines()
    if outcome.code != 2 or len(lines) != 1 or "Traceback" in outcome.err:
        return ("failed", f"{what}: exit {outcome.code}, {len(lines)} stderr lines, "
                          "expected exit 2 and one line")
    return None


def _rational_text(c):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _monomial_text(a, b, c):
    bits = []
    for gen, e in (("Z(2)", a), ("Z(4)", b), ("Z(6)", c)):
        if e:
            bits.append(gen if e == 1 else f"{gen}^{e}")
    return "*".join(bits) or "1"


def _divisor_request(rng, order, kind):
    """A divisor-sum series of the given kind; the seed picks its index."""
    if kind == 0:
        s = rng.randint(1, 4)
        return f"B[{s}]", refs.bracket_single(s, order)
    if kind == 1:
        return "D(Z(2))", refs.n_sigma1(order)
    if kind == 2:
        w = rng.choice((2, 4, 6))
        return f"G({w})", refs.eisenstein_single(w, order)
    s = rng.choice((2, 4, 6))
    return f"Z({s})", refs.z_single(s, order)


def _trace_request(rng, order, kind):
    """A short trace word of the given family and its closed form over TRACE_SYMBOLS."""
    i, j = rng.randint(1, 3), rng.randint(1, 3)
    chi = _exps(TRACE_SYMBOLS, (("chi", 1),))
    l1l2 = _exps(TRACE_SYMBOLS, (("L1L2", 1),))
    d = 1 if i == j else 0
    if kind == 0:
        word = f"a[-{i}](L1) * a[{i}](L2)"
        want = {l1l2: refs.scale(refs.geometric_product(i, (i,), order), -i)}
    elif kind == 1:
        word = f"a[{i}](L1) * a[-{i}](L2)"
        want = {l1l2: refs.scale(refs.geometric_product(0, (i,), order), -i)}
    elif kind == 2:
        word = f"a[-{i},{i}](1X)"
        want = {chi: refs.scale(refs.geometric_product(i, (i,), order), -i)}
    elif kind == 3:
        word = f"a[-{i},{i + j}](1X) * a[-{i + j},{i}](1X)"
        want = {chi: refs.scale(refs.geometric_product(i, (i, i + j), order), i * (i + j))}
    elif kind == 4:
        word = f"a[{i},{j}](1X) * a[-{j},-{i}](1X)"
        want = {chi: refs.scale(refs.geometric_product(0, (i, j), order), (1 + d) * i * j)}
    else:
        word = f"a[-{j},-{i}](1X) * a[{i},{j}](1X)"
        want = {chi: refs.scale(refs.geometric_product(i + j, (i, j), order),
                                (1 + d) * i * j)}
    return word, want


def _decompose_request(rng, weight):
    from itertools import product

    monomials = [(a, b, c) for a, b, c in product(range(4), range(2), range(2))
                 if 0 < 2 * a + 4 * b + 6 * c <= weight]
    chosen = rng.sample(monomials, 3)
    coeffs = {}
    for m in chosen:
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
        coeffs[_monomial_text(*m)] = c
    text = " + ".join(f"{_rational_text(c)}*{name}" for name, c in coeffs.items())
    return text, coeffs


def build_session(seed):
    rng = Random(seed)
    ops = []
    for phase, (order, identity, (check, check_order), weight) in enumerate(SESSION_PHASES):
        o = str(order)
        batch = []

        def request(label, argv, check_fn):
            batch.append(Op(label, lambda argv=tuple(argv): cli_request(argv), check_fn))

        # request kinds are fixed by phase and slot, so that seeds differ in
        # parameters and order of requests but not in the kind of work
        for slot in range(2):
            expr, want = _divisor_request(rng, order, (2 * phase + slot) % 4)
            request("expand:divisor", ("expand", expr, "--order", o, "--json"),
                    lambda out, want=want, expr=expr: check_rational_series(out, want, expr))
        expr = rng.choice(("EulerPow(-1)", "EulerPow(1)^-1", "1/EulerPow(1)"))
        request("expand:partitions", ("expand", expr, "--order", o, "--json"),
                lambda out, want=refs.partition_numbers(order), expr=expr:
                check_rational_series(out, want, expr))
        request("expand:identity", ("expand", identity, "--order", o, "--json"),
                lambda out, want=refs.zeros(order), expr=identity:
                check_rational_series(out, want, expr))
        text, coeffs = _decompose_request(rng, weight)
        request("decompose", ("decompose", text, "--weight", str(weight), "--order", o,
                              "--json"),
                lambda out, want=coeffs, text=text: check_decompose_output(out, want, text))
        for slot in range(TRACES_PER_PHASE):
            word, want = _trace_request(rng, order, (TRACES_PER_PHASE * phase + slot) % 6)
            argv = ("trace", word, "--order", o, "--json")
            if rng.random() < 0.5:
                argv += ("--K-trivial",)
            request("trace", argv,
                    lambda out, want=want, word=word: check_poly_series(out, want, word))
        request("verify", ("verify", "--check", check, "--order", str(check_order), "--json"),
                lambda out, check=check, check_order=check_order:
                check_verify_output(out, check, check_order, f"verify {check}"))
        rng.shuffle(batch)
        if phase in MALFORMED:
            label, argv = MALFORMED[phase]
            batch.append(Op(f"malformed:{label}", lambda argv=argv: cli_request(argv),
                            lambda out, argv=argv: check_malformed(
                                out, " ".join(a[:40] for a in argv))))
        ops.extend(batch)
    return ops


BUILDERS = {"surface_twopoint": build_surface,
            "equivariant_twopoint": build_equivariant,
            "qseries_session": build_session}


def build(name, seed):
    return BUILDERS[name](seed)
