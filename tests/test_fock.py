"""Trace engines: closed forms, oracle agreement, operator structure."""
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial, prod
from pathlib import Path

import pytest

import qzeta.fock as fock
from qzeta.ring import QSeries, euler_pow, lambert_term
from qzeta.fock import (CohClass, DecoratedOp, SurfaceModel, chern_op, commutator,
                        equiv_chern_coefficient, equiv_chern_op, equiv_trace,
                        fock_trace_bruteforce, gamma_commutation_check, gamma_trace,
                        gamma_trace_sum, trace_product, vertex_trace, vertex_trace_sum,
                        _symmetry_factorial, _zero_weight_partitions)

F = Fraction


def multiplicity_factorial(parts):
    return prod(factorial(m) for m in Counter(parts).values())


class TestSymmetryFactorial:
    def test_product_of_multiplicity_factorials(self):
        assert _symmetry_factorial((-2, -2, 1, 3)) == 2
        values = [p for p in range(-3, 4) if p]
        for length in range(6):
            for parts in combinations_with_replacement(values, length):
                assert _symmetry_factorial(parts) == multiplicity_factorial(parts), parts


class TestSurfaceModel:
    def test_pairings(self):
        surf = SurfaceModel()
        K, L1, L2 = surf.canonical(), surf.divisor("L1"), surf.divisor("L2")
        assert K.pair(L1) == surf.ring.gen("KL1")
        assert K.pair(K) == surf.ring.gen("K2")
        assert L1.pair(L2) == surf.ring.gen("L1L2")
        assert surf.one().pair(surf.point()) == surf.ring.one
        assert surf.one().pair(surf.euler()) == surf.chi

    def test_k_trivial_kills_k_pairings(self):
        surf = SurfaceModel(K_trivial=True)
        K, L1 = surf.canonical(), surf.divisor("L1")
        assert K.pair(L1).is_zero()
        assert K.pair(K).is_zero()
        assert not L1.pair(surf.divisor("L2")).is_zero()

    def test_grading_cap(self):
        surf = SurfaceModel()
        K = surf.canonical()
        cube = K * K * K
        assert cube.is_zero()

    def test_integer_chi(self):
        surf = SurfaceModel(chi=24)
        assert surf.chi == surf.ring.const(24)
        assert surf.one().pair(surf.euler()) == surf.ring.const(24)


class TestCommutator:
    def setup_method(self):
        self.surf = SurfaceModel()

    def test_singletons(self):
        one = self.surf.one()
        L1, L2 = self.surf.divisor("L1"), self.surf.divisor("L2")
        out = commutator(DecoratedOp((3,), L1), DecoratedOp((-3,), L2))
        assert len(out) == 1
        c, op = out[0]
        assert c == -3 and op.parts == ()
        assert op.klass.integral() == L1.pair(L2)

    def test_no_match(self):
        one = self.surf.one()
        assert commutator(DecoratedOp((2,), one), DecoratedOp((3,), one)) == []

    def test_spec_merge_example(self):
        one = self.surf.one()
        i, j = 2, 3
        out = commutator(DecoratedOp((-i, i + j), one),
                         DecoratedOp((-i - j, i), one))
        got = {op.parts: c for c, op in out}
        assert got == {(-i - j, i + j): F(i), (-i, i): F(-(i + j))}

    def test_self_commutator_cancels(self):
        one = self.surf.one()
        out = commutator(DecoratedOp((-1, 1), one), DecoratedOp((-1, 1), one))
        total = Counter()
        for c, op in out:
            total[tuple(sorted(op.parts))] += c
        assert all(v == 0 for v in total.values())

    def test_antisymmetry_as_multiset_sums(self):
        # coefficients match with opposite signs when merged groups are
        # compared as generalized partitions (all decorations even-degree)
        one = self.surf.one()
        rng = random.Random(3)
        for _ in range(40):
            a = DecoratedOp(tuple(rng.choice([-3, -2, -1, 1, 2, 3])
                                  for _ in range(rng.randint(1, 3))), one)
            b = DecoratedOp(tuple(rng.choice([-3, -2, -1, 1, 2, 3])
                                  for _ in range(rng.randint(1, 3))), one)
            fwd = Counter()
            for c, op in commutator(a, b):
                fwd[tuple(sorted(op.parts))] += c
            bwd = Counter()
            for c, op in commutator(b, a):
                bwd[tuple(sorted(op.parts))] += c
            keys = set(fwd) | set(bwd)
            assert all(fwd.get(k, 0) == -bwd.get(k, 0) for k in keys)


class TestSurfaceTraces:
    def setup_method(self):
        self.N = 15
        self.surf = SurfaceModel()
        self.R = self.surf.ring

    def lam(self, a, m, p):
        return lambert_term(a, m, p, order=self.N).lift(self.R)

    def test_two_point_with_classes(self):
        surf, N = self.surf, self.N
        L1, L2 = surf.divisor("L1"), surf.divisor("L2")
        for i in (1, 2, 3):
            got = trace_product([DecoratedOp((-i,), L1), DecoratedOp((i,), L2)],
                                surf, N)
            want = self.lam(i, i, 1).scale(L1.pair(L2) * F(-i))
            assert got.agrees_with(want), i

    def test_grouped_pair_trace(self):
        surf, N = self.surf, self.N
        one = surf.one()
        chi = surf.chi
        for i, j in ((1, 1), (1, 2), (2, 3)):
            d = 1 if i == j else 0
            got = trace_product([DecoratedOp((-j, -i), one),
                                 DecoratedOp((i, j), one)], surf, N)
            want = (self.lam(i, i, 1) * self.lam(j, j, 1)).scale(
                chi * F((1 + d) * i * j))
            assert got.agrees_with(want), (i, j)

    def test_unbalanced_word_vanishes(self):
        got = trace_product([DecoratedOp((-2,), self.surf.canonical())],
                            self.surf, self.N)
        assert got.is_zero()

    def test_multiplicity_filter(self):
        # parts 2 and -3 cannot balance
        got = trace_product([DecoratedOp((-3, 1), self.surf.one()),
                             DecoratedOp((2,), self.surf.one())],
                            self.surf, self.N)
        assert got.is_zero()

    def test_bidegree_filter_randomized(self):
        surf, N = self.surf, 10
        classes = [surf.one(), surf.canonical(), surf.divisor("L1"),
                   surf.point(), surf.euler()]
        degree = [0, 2, 2, 4, 4]
        rng = random.Random(5)
        checked = 0
        for _ in range(200):
            word = []
            bideg = 0
            weight = 0
            for _ in range(rng.randint(1, 3)):
                parts = tuple(rng.choice([-2, -1, 1, 2])
                              for _ in range(rng.randint(1, 3)))
                ci = rng.randrange(len(classes))
                word.append(DecoratedOp(parts, classes[ci]))
                bideg += 2 * (len(parts) - 2) + degree[ci]
                weight += sum(parts)
            if weight != 0 or bideg != 0:
                got = trace_product(word, surf, N)
                assert got.is_zero(), word
                checked += 1
        assert checked > 100

    def test_empty_word(self):
        got = trace_product([], self.surf, self.N)
        assert got.agrees_with(QSeries.one(self.N, self.R))

    def test_empty_partition_convention(self):
        # a group with no parts integrates its class
        e = self.surf.euler()
        got = trace_product([DecoratedOp((), e)], self.surf, self.N)
        assert got.agrees_with(QSeries.one(self.N, self.R).scale(self.surf.chi))


class TestSurfaceAgainstScalarOracle:
    """Single-part surface words against the scalar brute-force walk.

    With every part decorated by L1, each commutator is -n <L1, L1> where the
    scalar one is +n, so a word of 2k parts traces to (-<L1, L1>)^k times the
    reduced scalar trace, here taken from `fock_trace_bruteforce`, which
    uses no trace engine.  Multi-part groups are not covered here; the
    golden words of `TestSurfaceWordsGolden` pin them.
    """

    @pytest.mark.parametrize("K_trivial", (False, True))
    def test_single_part_words(self, K_trivial):
        surf, N = SurfaceModel(K_trivial=K_trivial), 10
        L1 = surf.divisor("L1")
        reducer = euler_pow(1, N)
        rng = random.Random(37)
        mismatches, nonzero = [], 0
        for _ in range(100):
            modes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
            parts = modes + [-n for n in modes]
            rng.shuffle(parts)
            got = trace_product([DecoratedOp((p,), L1) for p in parts], surf, N)
            scalar = (fock_trace_bruteforce(parts, N) * reducer).lift(surf.ring)
            want = scalar.scale((-L1.pair(L1)) ** len(modes))
            nonzero += not got.is_zero()
            if got != want:
                mismatches.append(parts)
        assert not mismatches, mismatches
        assert nonzero >= 50, nonzero


class TestShapeTables:
    """The surface engine's tables: Wick graphs per shape, classes per (shape, ids).

    A shape is a word's parts with its modes relabelled 1, 2, ... in order of
    first appearance; the mode values enter only when a word is evaluated.
    """

    N = 12

    def test_one_enumeration_per_shape(self, monkeypatch):
        calls = Counter()
        wick = fock._wick_graphs

        def counted(shape, *rest):
            calls[shape] += 1
            return wick(shape, *rest)

        monkeypatch.setattr(fock, "_wick_graphs", counted)
        surf, N = SurfaceModel(), self.N
        one, chi = surf.one().id(), surf.chi
        engine = fock.SurfaceTraceEngine(surf, N)
        lam = lambda a, m: lambert_term(a, m, 1, order=N).lift(surf.ring)
        pairs = [(m, mp) for m in range(1, 7) for mp in range(1, 7) if m != mp]
        for m, mp in pairs:
            # each group is a one-loop component, integrating 1X e = chi, and
            # each pair, its a_-n first, gives -n q^n/(1 - q^n)
            got = engine.trace([((-m, m), one), ((-mp, mp), one)])
            assert got.agrees_with((lam(m, m) * lam(mp, mp)).scale(chi * chi * m * mp))
            # one component with one loop; the pair of mp has its a_mp first
            got = engine.trace([((-m, mp), one), ((-mp, m), one)])
            assert got.agrees_with((lam(m, m) * lam(0, mp)).scale(chi * m * mp))
        assert sorted(calls.values()) == [1, 1], calls

    def test_same_shape_other_class_ids(self):
        surf, N = SurfaceModel(), self.N
        K, L1, L2 = (surf.class_by_name(name).id() for name in ("K", "L1", "L2"))
        engine = fock.SurfaceTraceEngine(surf, N)
        first = engine.trace([((-2,), L1), ((2,), L2)])
        assert first.agrees_with(lambert_term(2, 2, 1, order=N).lift(surf.ring)
                                 .scale(-2 * surf.ring.gen("L1L2")))
        got = engine.trace([((-3,), K), ((3,), L2)])
        assert got.agrees_with(lambert_term(3, 3, 1, order=N).lift(surf.ring)
                               .scale(-3 * surf.ring.gen("KL2")))

    @pytest.mark.parametrize("K_trivial", (False, True))
    def test_vanishing_classes_then_same_shape(self, K_trivial):
        surf, N = SurfaceModel(K_trivial=K_trivial), self.N
        one, pt, L1, L2 = (surf.class_by_name(name).id() for name in ("1X", "pt", "L1", "L2"))
        engine = fock.SurfaceTraceEngine(surf, N)
        assert engine.trace([((-4,), pt), ((-1,), pt), ((4, 1), one)]).is_zero()
        # one component, no loop, integrating L1 L2; both pairs have their a_-n first
        got = engine.trace([((-5,), L1), ((-2,), L2), ((5, 2), one)])
        want = (lambert_term(5, 5, 1, order=N) * lambert_term(2, 2, 1, order=N)).lift(surf.ring)
        assert got.agrees_with(want.scale(10 * surf.ring.gen("L1L2")))
        assert not got.is_zero()


GOLDEN_SURFACE_WORDS = Path(__file__).with_name("golden_surface_words.json")


class TestSurfaceWordsGolden:
    """Seeded words with nonzero traces, pinned as the cyclicity recursion traced them.

    Each entry names its surface (K_trivial, chi), its order, its groups as
    [parts, class] with the class a '+'-joined sum of 1X, K, L1, L2, pt and e,
    and the trace as [exponent vector, denominator, numerators] slices.
    """

    def test_words_match_golden(self):
        golden = json.loads(GOLDEN_SURFACE_WORDS.read_text())
        surfaces = {}
        for entry in golden:
            key = entry["K_trivial"], entry["chi"]
            surf = surfaces.get(key)
            if surf is None:
                surf = surfaces[key] = SurfaceModel(K_trivial=key[0], chi=key[1])
            word = []
            for parts, spec in entry["word"]:
                klass = surf.zero_class()
                for name in spec.split("+"):
                    klass = klass + surf.class_by_name(name)
                word.append(DecoratedOp(parts, klass))
            got = trace_product(word, surf, entry["order"])
            want = {tuple(exps): [F(x, den) for x in nums]
                    for exps, den, nums in entry["slices"]}
            assert {exps: list(s.coeffs) for exps, s in got.by_monomial().items()} == want, \
                entry["word"]
        # the shapes the pinned words cover
        words = [[parts for parts, _ in entry["word"]] for entry in golden]
        assert len(golden) >= 120
        assert {(e["K_trivial"], e["chi"]) for e in golden} == {
            (False, None), (False, 3), (True, None), (True, 3)}
        assert {e["order"] for e in golden} == {6, 7, 8, 9}
        assert sum(all(sum(g) == 0 for g in w) for w in words) >= 40
        assert sum(any(-p in g for g in w for p in g) for w in words) >= 40
        assert sum(len(w) >= 4 for w in words) >= 20
        assert any(not g for w in words for g in w)
        assert all(e["slices"] for e in golden)


class TestEquivEngines:
    def test_trala_both_engines(self):
        N = 20
        reducer = euler_pow(1, N)
        lam = lambda a, m, p: lambert_term(a, m, p, order=N)
        for i in (1, 2, 3, 4):
            want = lam(i, i, 1).scale(i)
            assert equiv_trace((-i, i), N).agrees_with(want)
            brute = fock_trace_bruteforce((-i, i), N) * reducer
            assert brute.agrees_with(want)

    def test_six_operator_closed_form(self):
        N = 18
        lam = lambda a, m, p: lambert_term(a, m, p, order=N)
        for i, j in ((1, 2), (2, 2)):
            d = 1 if i == j else 0
            parts = (-i, -j, i + j, -i - j, i, j)
            want = (lam(i, i, 1) * lam(j, j, 1) * lam(0, i + j, 1)).scale(
                (1 + d) * i * j * (i + j))
            assert equiv_trace(parts, N).agrees_with(want)
            assert (fock_trace_bruteforce(parts, N) * euler_pow(1, N)).agrees_with(want)

    def test_empty_trace_is_partition_function(self):
        N = 25
        got = fock_trace_bruteforce((), N)
        assert got.agrees_with(euler_pow(-1, N))

    def test_random_words_agree(self):
        rng = random.Random(99)
        N = 12
        reducer = euler_pow(1, N)
        for _ in range(120):
            parts = tuple(rng.choice([-3, -2, -1, 1, 2, 3])
                          for _ in range(rng.randint(1, 6)))
            a = equiv_trace(parts, N)
            b = fock_trace_bruteforce(parts, N) * reducer
            assert a.agrees_with(b), parts

    def test_zero_part_rejected(self):
        for parts in ((0,), (2, 0, -2)):
            with pytest.raises(ValueError, match="parts must be nonzero integers"):
                equiv_trace(parts, 5)

    def test_mode_product_matches_oracle_at_every_order(self):
        # the per-mode product against the brute-force oracle: seeded balanced
        # words, unbalanced ones, the empty word, and one mode of 1-4 pairs
        rng = random.Random(7)
        words = [(), (1,), (-2,), (1, 1, -1), (2, -1, -2, 1, -1)]
        for pairs in range(1, 5):
            for _ in range(3):
                word = [2] * pairs + [-2] * pairs
                rng.shuffle(word)
                words.append(tuple(word))
        for _ in range(40):
            modes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
            word = modes + [-n for n in modes]
            if rng.random() < 0.2:
                word.append(rng.choice([-3, -1, 2]))
            rng.shuffle(word)
            words.append(tuple(word))
        nonzero = 0
        for N in range(15):
            reducer = euler_pow(1, N)
            for word in words:
                got = equiv_trace(word, N)
                nonzero += not got.is_zero()
                assert got == fock_trace_bruteforce(word, N) * reducer, (word, N)
        assert nonzero >= 400, nonzero

    def test_order_sweep_keeps_no_engine_alive(self):
        import gc
        from qzeta.pipeline import equiv_ch1ch1

        for N in range(4, 13):
            equiv_ch1ch1(2, N)
        gc.collect()
        assert not [o for o in gc.get_objects() if isinstance(o, fock.EquivTraceEngine)]


def reference_bruteforce(parts, order):
    """The per-state Fraction walk over every partition of size <= order,
    kept as a reference for the integer oracle `fock_trace_bruteforce`."""
    coeffs = [F(0)] * (order + 1)
    rev = tuple(reversed(parts))
    for state in fock.all_partition_states(order):
        current = list(state)
        factor = 1
        dead = False
        for p in rev:
            if p < 0:
                current.append(-p)
            else:
                mult = current.count(p)
                if not mult:
                    dead = True
                    break
                factor *= p * mult
                current.remove(p)
        if dead or len(current) != len(state) or sorted(current) != sorted(state):
            continue
        coeffs[sum(state)] += factor
    return QSeries(coeffs, order=order)


class TestBruteForceOracle:
    """The integer per-mode walk against the per-state reference walk."""

    ORDERS = (0, 1, 5, 12)
    # the benchmark's word order and trala_suite's default
    HIGH_ORDERS = (18, 20)
    LETTERS = (-4, -3, -2, -1, 1, 2, 3, 4)

    def _agree(self, parts, order):
        got = fock_trace_bruteforce(parts, order)
        want = reference_bruteforce(parts, order)
        assert got.order == want.order == order
        assert got == want, (parts, order)
        assert got.coeffs == want.coeffs, (parts, order)
        return got

    def test_every_short_word(self):
        for order in self.ORDERS + self.HIGH_ORDERS:
            for length in range(5 if order in self.ORDERS else 3):
                for parts in product(self.LETTERS, repeat=length):
                    self._agree(parts, order)

    @staticmethod
    def _repeated_size_word(rng, kind):
        """6-10 letters of sizes 1-3, so sizes repeat: each size n paired with
        a -n and shuffled; the same with one sign flipped (unbalanced); or
        a_{-n}^2 ... a_n^2, which kills every state with fewer than two parts
        n, so it is dead below order 2n."""
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(3, 5))]
        word = [p for s in sizes for p in (s, -s)]
        if kind == "dead":
            n = sizes[0]
            word = word[4:]
            rng.shuffle(word)
            return (-n, -n, *word, n, n)
        rng.shuffle(word)
        if kind == "unbalanced":
            i = rng.randrange(len(word))
            word[i] = -word[i]
        return tuple(word)

    def test_seeded_longer_words(self):
        rng = random.Random(5150)
        for _ in range(400):
            parts = tuple(rng.choice(self.LETTERS) for _ in range(rng.randint(5, 8)))
            for order in self.ORDERS:
                self._agree(parts, order)
        rng = random.Random(8128)
        zero, nonzero = set(), set()
        for i in range(36):
            kind = ("balanced", "unbalanced", "dead")[i % 3]
            parts = self._repeated_size_word(rng, kind)
            for order in self.ORDERS + self.HIGH_ORDERS:
                (zero if self._agree(parts, order).is_zero() else nonzero).add(kind)
        # each kind reaches both outcomes, except that unbalanced words never
        # return a state to itself
        assert zero == {"balanced", "unbalanced", "dead"}
        assert nonzero == {"balanced", "dead"}

    def test_empty_unbalanced_and_dead_words(self):
        words = ((), (-1,), (3,), (-2, -2, 2), (1, -1), (2, 2, -2, -2),
                 (4, -4, -4), (1, -2, 2, -1), (3, 3, -3))
        for parts in words:
            for order in self.ORDERS + self.HIGH_ORDERS:
                self._agree(parts, order)
        # unbalanced words never return a state to itself
        assert fock_trace_bruteforce((-2, -2, 2), 12).is_zero()
        # a_{-1} a_1 kills the empty state, and a_1 a_{-1} does not
        assert fock_trace_bruteforce((-1, 1), 0).is_zero()
        assert not fock_trace_bruteforce((1, -1), 0).is_zero()

    def test_bad_arguments_rejected(self):
        for parts in ((0,), (2, 0, -2)):
            with pytest.raises(ValueError, match="parts must be nonzero integers"):
                fock_trace_bruteforce(parts, 5)
        with pytest.raises(ValueError, match="order must be nonnegative"):
            fock_trace_bruteforce((-1, 1), -1)


class TestTraceProperties:
    """Internal consistency laws of the surface trace engine."""

    def setup_method(self):
        self.N = 12
        self.surf = SurfaceModel()

    def _random_word(self, rng, maxlen=3):
        classes = [self.surf.one(), self.surf.canonical(),
                   self.surf.divisor("L1"), self.surf.euler()]
        word = []
        for _ in range(rng.randint(1, maxlen)):
            parts = tuple(rng.choice([-2, -1, 1, 2])
                          for _ in range(rng.randint(1, 3)))
            word.append(DecoratedOp(parts, rng.choice(classes)))
        return word

    def _balanced_word(self, rng, surf):
        """A word of (parts, class id) groups, every mode n paired with a -n."""
        classes = [surf.one(), surf.one_minus_K(), surf.divisor("L1"), surf.euler()]
        groups = [[] for _ in range(rng.randint(2, 4))]
        for _ in range(rng.randint(2, 4)):
            n = rng.randint(1, 3)
            rng.choice(groups).append(n)
            rng.choice(groups).append(-n)
        for parts in groups:
            rng.shuffle(parts)
        return [(tuple(parts), rng.choice(classes).id()) for parts in groups if parts]

    @staticmethod
    def _rotations(word, weight):
        """(prefix weight s, rotation) pairs: Tr word = q^(-s) Tr rotation."""
        s = 0
        for k in range(len(word)):
            yield s, word[k:] + word[:k]
            s += weight(word[k])

    @staticmethod
    def _shift_agrees(whole, rotated, s, N, ring=None):
        """whole = q^(-s) rotated, read in the direction with a nonnegative shift."""
        if s <= 0:
            return whole.agrees_with(QSeries.monomial(-s, N, ring=ring) * rotated)
        return rotated.agrees_with(QSeries.monomial(s, N, ring=ring) * whole)

    def test_cyclic_shift(self):
        # Tr q^n P R = q^(-weight P) Tr q^n R P for every rotation R P.  The
        # engine sums Wick matchings and never rotates a word, so this checks
        # the rotation law itself.
        rng = random.Random(17)
        surf, N = self.surf, self.N
        nonzero = 0
        for _ in range(30):
            word = tuple(self._balanced_word(rng, surf))
            want = fock.SurfaceTraceEngine(surf, N).trace(word)
            nonzero += not want.is_zero()
            for s, rot in self._rotations(word, lambda group: sum(group[0])):
                got = fock.SurfaceTraceEngine(surf, N).trace(rot)
                assert self._shift_agrees(want, got, s, N, surf.ring), (word, rot)
        assert nonzero >= 5, nonzero

    def test_cyclic_shift_equivariant(self):
        rng = random.Random(19)
        N = self.N
        for _ in range(30):
            modes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
            word = modes + [-n for n in modes]
            rng.shuffle(word)
            word = tuple(word)
            want = equiv_trace(word, N)
            assert not want.is_zero(), word
            for s, rot in self._rotations(word, lambda p: p):
                got = equiv_trace(rot, N)
                assert self._shift_agrees(want, got, s, N), rot

    def test_linearity_in_decorations(self):
        rng = random.Random(23)
        surf, N = self.surf, self.N
        one, K, L1 = surf.one(), surf.canonical(), surf.divisor("L1")
        for _ in range(20):
            parts = tuple(rng.choice([-2, -1, 1, 2])
                          for _ in range(rng.randint(1, 3)))
            rest = self._random_word(rng, maxlen=2)
            a, b = rng.choice([one, K, L1]), rng.choice([one, K, surf.euler()])
            both = trace_product([DecoratedOp(parts, a + b)] + rest, surf, N)
            split = trace_product([DecoratedOp(parts, a)] + rest, surf, N) \
                + trace_product([DecoratedOp(parts, b)] + rest, surf, N)
            assert both.agrees_with(split), (parts, rest)


def brute_gamma_trace(m, word, order):
    """Independent oracle: diagonal walk over the partition basis.

    Applies the grouped word right to left, then enumerates removal multisets
    (the annihilation half, weight (-m)^k C(mult, k)) and addition multisets
    (the creation half, weight m^k/(n^k k!)) that return to the start state.
    """
    from itertools import product as iproduct
    from qzeta.fock import all_partition_states
    coeffs = [F(0)] * (order + 1)
    for start in all_partition_states(order):
        vec = {start: F(1)}
        for parts in reversed(list(word)):
            nxt = {}
            for st, c in vec.items():
                cur = list(st)
                f = F(1)
                dead = False
                for p in reversed(parts):
                    if p < 0:
                        cur.append(-p)
                    else:
                        mult = cur.count(p)
                        if not mult:
                            dead = True
                            break
                        f *= p * mult
                        cur.remove(p)
                if dead or sum(cur) > order:
                    continue
                key = tuple(sorted(cur))
                nxt[key] = nxt.get(key, F(0)) + c * f
            vec = nxt
        total = F(0)
        for st, c in vec.items():
            mults = sorted(Counter(st).items())
            for choice in iproduct(*[range(k + 1) for _, k in mults]):
                rem = F(1)
                reduced = dict(mults)
                for (p, k), r in zip(mults, choice):
                    if r:
                        rem *= F((-m) ** r) * comb(k, r)
                        reduced[p] = k - r
                after = []
                for p, k in reduced.items():
                    after += [p] * k
                tmp = list(start)
                ok = True
                for p in after:
                    if p in tmp:
                        tmp.remove(p)
                    else:
                        ok = False
                        break
                if not ok:
                    continue
                addm = Counter(tmp)
                add = F(1)
                for p, k in addm.items():
                    add *= F(m ** k, p ** k * factorial(k))
                total += c * rem * add
        coeffs[sum(start)] += total
    return QSeries(coeffs, order=order)


class TestGammaAgainstBruteForce:
    def test_words_at_m_one_and_two(self):
        N = 7
        words = [((-1, 1),), ((-2, 1, 1),), ((-1, -1, 2), (-2, 1, 1)),
                 ((-1, 1), (-1, 1))]
        for m in (1, 2):
            reducer = euler_pow(1 - m * m, N)
            for word in words:
                got = gamma_trace(m, word, N)
                want = brute_gamma_trace(m, word, N) * reducer
                assert got.agrees_with(want), (m, word)


class TestVertexTrace:
    def setup_method(self):
        self.N = 12
        self.surf = SurfaceModel()
        self.R = self.surf.ring

    def single_op_closed_form(self, parts, alpha):
        """Independent single-operator closed form (with its Euler-class term)."""
        N, surf = self.N, self.surf
        mult = Counter(parts)
        pos = {n: mult.get(n, 0) for n in range(1, N + 1)}
        neg = {n: mult.get(-n, 0) for n in range(1, N + 1)}
        sym = multiplicity_factorial(parts)

        def weights(pos_m, neg_m):
            s = QSeries.one(N)
            scal = F(1)
            for n in range(1, N + 1):
                m, mt = pos_m.get(n, 0), neg_m.get(n, 0)
                if m or mt:
                    scal *= F((-1) ** m, factorial(m) * factorial(mt))
                    s = s * lambert_term(n * m, n, m + mt, order=N)
            return s.lift(self.R).scale(scal)

        total_pos = sum(pos.values())
        main = weights(pos, neg).scale(
            (surf.one_minus_K() ** total_pos).pair(alpha))
        corr = QSeries.zero(N, self.R)
        for n1 in range(1, N + 1):
            if pos.get(n1, 0) and neg.get(n1, 0):
                p2, n2 = dict(pos), dict(neg)
                p2[n1] -= 1
                n2[n1] -= 1
                corr = corr + weights(p2, n2) * lambert_term(
                    n1, n1, 1, order=N).lift(self.R).scale(F(-n1))
        corr = corr.scale(surf.euler().pair(alpha))
        return (main + corr).scale(F(sym))

    def test_single_operator_matches_closed_form(self):
        for parts in ((-1, 1), (-1, -1, 2), (-2, 1, 1), (-2, -1, 1, 2)):
            for alpha in (self.surf.one(), self.surf.divisor("L1")):
                got = vertex_trace([DecoratedOp(parts, alpha)], self.surf, self.N)
                want = self.single_op_closed_form(parts, alpha)
                assert got.agrees_with(want), parts

    def test_imbalanced_word_is_zero(self):
        got = vertex_trace([DecoratedOp((-2, 1), self.surf.one())],
                           self.surf, self.N)
        assert got.is_zero()

    def test_empty_word(self):
        got = vertex_trace([], self.surf, self.N)
        assert got.agrees_with(QSeries.one(self.N, self.R))

    def test_negative_order_rejected(self):
        surf = self.surf
        op = DecoratedOp((-1, 1), surf.one())
        for order in (-1, -3):
            with pytest.raises(ValueError, match="order must be nonnegative"):
                vertex_trace([DecoratedOp((-1,), surf.one())], surf, order)
            with pytest.raises(ValueError, match="order must be nonnegative"):
                vertex_trace_sum([[(1, op)], [(F(1, 2), op)]], surf, order)
            with pytest.raises(ValueError, match="order must be nonnegative"):
                trace_product([op], surf, order)

    def test_chern_factor_order_irrelevant(self):
        # cup products commute, so the engine must not care about factor order
        surf, N = self.surf, 10
        one, L1 = surf.one(), surf.divisor("L1")
        a = QSeries.zero(N, self.R)
        b = QSeries.zero(N, self.R)
        g1 = chern_op(1, one, surf, N)
        g0 = chern_op(0, L1, surf, N)
        for c1, op1 in g1:
            for c2, op2 in g0:
                t = vertex_trace([op1, op2], surf, N)
                if not t.is_zero():
                    a = a + t.scale(c1 * c2)
                t = vertex_trace([op2, op1], surf, N)
                if not t.is_zero():
                    b = b + t.scale(c1 * c2)
        assert a.agrees_with(b)


def brute_group_removals(parts, order):
    """Removal options of a group by position subsets, merged by sub-multiset.

    Each option is (qcost, balance, npos, ncount, binomial factor, kept parts,
    removal series coefficients, kept imbalance, floor, total); the binomial
    factor counts the position subsets that remove the same sub-multiset.
    """
    subsets = Counter()
    for mask in range(1 << len(parts)):
        removed = [p for i, p in enumerate(parts) if mask >> i & 1]
        kept = [p for i, p in enumerate(parts) if not mask >> i & 1]
        if sum(p for p in removed if p > 0) <= order:
            subsets[tuple(sorted(removed)), tuple(sorted(kept))] += 1
    one = QSeries.one(order)
    out = Counter()
    for (removed, kept), binomial in subsets.items():
        series = one
        for p in removed:
            qn = QSeries([int(i == abs(p)) for i in range(order + 1)])
            series = series * (one - qn).inverse() * (qn if p > 0 else one)
        counts = Counter(kept)
        run, runs = 0, [0]
        for p in reversed(kept):
            run += p
            runs.append(run)
        out[(sum(p for p in removed if p > 0), sum(removed),
             sum(p > 0 for p in removed), len(removed), binomial, kept,
             tuple(series.coeffs),
             sum((counts[n] - counts[-n]) * 2 ** (32 * n) for n in set(map(abs, kept))),
             max(runs), sum(kept))] += 1
    return out


class TestGroupRemovals:
    def test_options_match_position_subsets(self):
        rng = random.Random(7)
        seen = Counter()
        for _ in range(400):
            parts = tuple(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
                          for _ in range(rng.randint(0, 6)))
            order = rng.randint(0, 12)
            got = Counter()
            for (qcost, balance, npos, signed, removed, kept, imbalance, floor,
                 total) in fock._group_removals(parts, order):
                got[(qcost, balance, npos, len(removed), signed * (-1) ** npos, kept,
                     tuple(fock._removal_nums(removed, order)), imbalance, floor,
                     total)] += 1
            assert got == brute_group_removals(parts, order), (parts, order)
            seen["repeated"] += len(set(parts)) < len(parts)
            seen["n and -n"] += any(-p in parts for p in parts)
            seen["cut"] += sum(p for p in parts if p > 0) > order
        assert min(seen.values()) > 50, seen


def grade_sums(word):
    """Every sum over the groups of 2(length - 2) + d, d a degree of its class."""
    sums = {0}
    for op in word:
        sums = {s + 2 * (len(op.parts) - 2) + d
                for s in sums for d, _ in op.klass.homogeneous_parts()}
    return sums


class TestDegreeGrading:
    """The walker traces no word whose grades cannot sum to 0: the engine gives 0."""

    @pytest.mark.parametrize("K_trivial", [False, True])
    def test_words_that_cannot_balance_trace_to_zero(self, K_trivial):
        surf, N = SurfaceModel(K_trivial=K_trivial), 8
        bases = [surf.one(), surf.canonical(), surf.divisor("L1"), surf.point(),
                 surf.euler()]
        classes = [(surf.one_minus_K() ** p) * c for c in bases for p in range(3)]
        rng = random.Random(17 + K_trivial)
        rejected = kept_nonzero = 0
        for _ in range(300):
            # pairs n, -n spread over the groups: weight zero and every mode paired
            groups = [[] for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(1, 3)):
                n = rng.randint(1, 3)
                rng.choice(groups).append(n)
                rng.choice(groups).append(-n)
            word = []
            for parts in groups:
                rng.shuffle(parts)
                word.append(DecoratedOp(parts, rng.choice(classes)))
            got = trace_product(word, surf, N)
            if 0 in grade_sums(word):
                kept_nonzero += not got.is_zero()
            else:
                rejected += 1
                assert got.is_zero(), word
        assert rejected >= 1 and kept_nonzero >= 1, (rejected, kept_nonzero)


class TestInternedClasses:
    """Class ids, memoized class products and shared removal tables."""

    def test_equal_classes_share_an_id(self):
        surf = SurfaceModel()
        one, K = surf.one(), surf.canonical()
        routes = [surf.one(), surf.class_by_name("1X"), one * one,
                  (one - K) + K, surf.one_minus_K() + K, one ** 3]
        assert {c.id() for c in routes} == {one.id()}
        assert surf.euler().id() == surf.point().scale(surf.chi).id()
        assert (K * K).id() == surf.point().scale(surf.ring.gen("K2")).id()

    def test_different_classes_have_different_ids(self):
        surf = SurfaceModel()
        classes = [surf.zero_class(), surf.one(), surf.canonical(),
                   surf.divisor("L1"), surf.divisor("L2"), surf.point(),
                   surf.euler(), surf.one_minus_K(), surf.one().scale(2)]
        assert len({c.id() for c in classes}) == len(classes)
        # with K numerically trivial, K^2 is the zero class
        ktriv = SurfaceModel(K_trivial=True)
        K = ktriv.canonical()
        assert (K * K).id() == ktriv.zero_class().id() != K.id()

    def test_memoized_product(self):
        surf = SurfaceModel()
        a, b = surf.one_minus_K(), surf.divisor("L1")
        got = surf._product_id(a.id(), b.id())
        assert surf._classes[got] == a * b
        assert surf._products[a.id(), b.id()] == got
        assert surf._product_id(surf.one_minus_K().id(), surf.divisor("L1").id()) == got
        pt = surf.point()
        assert surf._product_id(pt.id(), b.id()) is None
        assert surf._products[pt.id(), b.id()] is None

    @pytest.mark.parametrize("K_trivial", [False, True])
    def test_repeated_expansion_object_or_copy(self, K_trivial):
        surf = SurfaceModel(K_trivial=K_trivial)
        for order in range(9):
            e = chern_op(1, surf.one(), surf, order)
            shared = vertex_trace_sum([e, e], surf, order)
            copied = vertex_trace_sum([e, list(e)], surf, order)
            assert shared == copied, order
        assert not shared.is_zero()

    def test_gamma_repeated_expansion_object_or_copy(self):
        order = 10
        ops = equiv_chern_op(1, order)
        for m in range(4):
            shared = gamma_trace_sum(m, [ops, ops], order)
            assert shared == gamma_trace_sum(m, [ops, list(ops)], order), m
            assert m in (1, 2) or not shared.is_zero()

    def test_cancelling_terms_trace_to_zero(self):
        surf, order = SurfaceModel(), 8
        op = DecoratedOp((-2, 1, 1), surf.one())
        cancel = [(F(3, 2), op), (F(-3, 2), op)]
        e = chern_op(1, surf.one(), surf, order)
        assert vertex_trace_sum([cancel], surf, order).is_zero()
        assert vertex_trace_sum([e, cancel], surf, order).is_zero()
        parts = (-2, 1, 1)
        assert gamma_trace_sum(2, [[(F(3), parts), (F(-3), parts)]], order).is_zero()

    def test_foreign_surface_classes_rejected(self):
        surf, other = SurfaceModel(), SurfaceModel()
        mine = DecoratedOp((-1, 1), surf.one())
        foreign = DecoratedOp((-1, 1), other.one())
        assert not trace_product([mine], surf, 5).is_zero()
        with pytest.raises(ValueError, match="another surface"):
            trace_product([mine, foreign], surf, 5)
        with pytest.raises(ValueError, match="another surface"):
            vertex_trace_sum([[(1, mine)], [(1, foreign)]], surf, 5)
        with pytest.raises(ValueError, match="another surface"):
            vertex_trace([foreign], surf, 5)


class ReferenceClass:
    """The reference for `CohClass` arithmetic: the former three-slot class,
    a degree-0 coefficient, a divisor -> coefficient map and a degree-4
    coefficient, with its former operations."""

    def __init__(self, surface, unit, divisors, top):
        self.surface, self.unit, self.top = surface, unit, top
        self.divisors = {d: c for d, c in divisors.items() if not c.is_zero()}

    @classmethod
    def named(cls, surface, name):
        zero, one = surface.ring.zero, surface.ring.one
        if name == "1X":
            return cls(surface, one, {}, zero)
        if name in ("pt", "e"):
            return cls(surface, zero, {}, one if name == "pt" else surface.chi)
        return cls(surface, zero, {name: one}, zero)

    def is_zero(self):
        return self.unit.is_zero() and not self.divisors and self.top.is_zero()

    def __add__(self, other):
        divisors = dict(self.divisors)
        for d, c in other.divisors.items():
            divisors[d] = divisors.get(d, self.surface.ring.zero) + c
        return ReferenceClass(self.surface, self.unit + other.unit, divisors,
                              self.top + other.top)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = self.surface.ring.coerce(c)
        return ReferenceClass(self.surface, self.unit * c,
                              {d: v * c for d, v in self.divisors.items()}, self.top * c)

    def __mul__(self, other):
        s = self.surface
        unit = self.unit * other.unit
        divisors, top = {}, s.ring.zero
        for x, y in ((self, other), (other, self)):
            for d, c in y.divisors.items():
                divisors[d] = divisors.get(d, s.ring.zero) + x.unit * c
            top = top + x.unit * y.top
        for d1, c1 in self.divisors.items():
            for d2, c2 in other.divisors.items():
                top = top + c1 * c2 * s.pairing_symbol(d1, d2)
        return ReferenceClass(s, unit, divisors, top)

    def __pow__(self, n):
        out = ReferenceClass.named(self.surface, "1X")
        for _ in range(n):
            out = out * self
        return out

    def pair(self, other):
        return (self * other).top

    def homogeneous_parts(self):
        s, zero = self.surface, self.surface.ring.zero
        parts = [(0, ReferenceClass(s, self.unit, {}, zero)),
                 (2, ReferenceClass(s, zero, self.divisors, zero)),
                 (4, ReferenceClass(s, zero, {}, self.top))]
        return [(d, part) for d, part in parts if not part.is_zero()]

    def key(self):
        return (self.unit.key(), tuple(sorted((d, c.key()) for d, c in self.divisors.items())),
                self.top.key())

    def __repr__(self):
        bits = [f"({self.unit})*1X"] if not self.unit.is_zero() else []
        bits += [f"({c})*{d}" for d, c in sorted(self.divisors.items())]
        bits += [f"({self.top})*pt"] if not self.top.is_zero() else []
        return " + ".join(bits) if bits else "0"


def assert_same_class(klass, ref):
    """`klass` holds the reference's coefficients and prints, integrates and
    splits by degree as the reference does."""
    degrees, zero = klass.surface.degrees, klass.surface.ring.zero
    assert klass.coeffs.get("1X", zero) == ref.unit, (klass, ref)
    assert {n: c for n, c in klass.coeffs.items() if degrees[n] == 2} == ref.divisors
    assert klass.coeffs.get("pt", zero) == ref.top == klass.integral()
    assert repr(klass) == repr(ref)
    assert klass.is_zero() == ref.is_zero()
    assert [(d, repr(part)) for d, part in klass.homogeneous_parts()] == \
        [(d, repr(part)) for d, part in ref.homogeneous_parts()]


class TestClassArithmetic:
    """One coefficient map per class against the three-slot reference."""

    NAMES = ("1X", "K", "L1", "L2", "pt", "e")

    @pytest.mark.parametrize("kwargs", [{}, {"K_trivial": True}, {"chi": 24}],
                             ids=["general", "K-trivial", "chi=24"])
    def test_matches_three_slot_reference(self, kwargs):
        surf = SurfaceModel(**kwargs)
        zero = surf.ring.zero
        rng = random.Random(24)

        def draw():
            klass, ref = surf.zero_class(), ReferenceClass(surf, zero, {}, zero)
            for name in self.NAMES:
                w = rng.choice((0, 0, 1, -1, 2, -3))
                klass = klass + surf.class_by_name(name).scale(w)
                ref = ref + ReferenceClass.named(surf, name).scale(w)
            return klass, ref

        ids, keys = {}, {}

        def check(klass, ref):
            assert_same_class(klass, ref)
            # equal classes get equal ids, and different classes different ids
            assert ids.setdefault(ref.key(), klass.id()) == klass.id(), (klass, ref)
            assert keys.setdefault(klass.id(), ref.key()) == ref.key(), (klass, ref)

        for name in self.NAMES:
            check(surf.class_by_name(name), ReferenceClass.named(surf, name))
        for _ in range(150):
            (a, ra), (b, rb) = draw(), draw()
            c = rng.randint(-3, 3)
            for klass, ref in ((a, ra), (a + b, ra + rb), (b + a, ra + rb),
                               (a - b, ra - rb), ((a - b) + b, ra), (a.scale(c), ra.scale(c)),
                               (a * b, ra * rb), (b * a, ra * rb), (a * c, ra.scale(c))):
                check(klass, ref)
            for p in range(4):
                check(a ** p, ra ** p)
            assert a.pair(b) == ra.pair(rb) == b.pair(a)
        assert len(ids) > 500

    @pytest.mark.parametrize("name", ["1X", "pt", "e"])
    def test_reserved_divisor_names_rejected(self, name):
        with pytest.raises(ValueError, match="reserved"):
            SurfaceModel(divisors=("K", "L1", name))
        with pytest.raises(ValueError):
            SurfaceModel().divisor(name)


def reference_length3_zero_partitions(bound):
    """The reference listing for `chern_op(1)`: the former hand-coded
    canonical 3-part generalized partitions of 0, with symmetry factorials."""
    out = []
    for i in range(1, bound + 1):
        for j in range(i, bound + 1):
            if i + j > bound:
                break
            sym = 2 if i == j else 1
            out.append(((-i - j, i, j), sym))
            out.append(((-j, -i, i + j), sym))
    return out


def reference_chern_op(k, klass, surface, order):
    """The reference for `chern_op`: its former two hand-coded branches."""
    if k == 0:
        return [(F(-1), DecoratedOp((-m, m), klass)) for m in range(1, order + 1)]
    terms = [(F(-1, sym), DecoratedOp(parts, klass))
             for parts, sym in reference_length3_zero_partitions(order)]
    k_klass = surface.canonical() * klass
    if not k_klass.is_zero():
        terms += [(F(1 - n, 2), DecoratedOp((-n, n), k_klass)) for n in range(1, order + 1)]
    return terms


def chern_terms(terms):
    return sorted((c, op.parts, op.klass.id()) for c, op in terms)


class TestChernOps:
    def test_g0_term_count(self):
        surf = SurfaceModel()
        terms = chern_op(0, surf.divisor("L1"), surf, 3)
        assert [op.parts for _, op in terms] == [(-1, 1), (-2, 2), (-3, 3)]
        assert all(c == -1 for c, _ in terms)

    def test_g1_includes_expected_triples(self):
        surf = SurfaceModel()
        terms = chern_op(1, surf.one(), surf, 4)
        coeffs = {op.parts: c for c, op in terms if len(op.parts) == 3}
        assert coeffs[(-2, 1, 1)] == F(-1, 2)
        assert coeffs[(-1, -1, 2)] == F(-1, 2)
        assert coeffs[(-3, 1, 2)] == F(-1)

    def test_g1_k_correction_coefficients(self):
        surf = SurfaceModel()
        terms = chern_op(1, surf.one(), surf, 5)
        # (1 - n)/2 on the K-decorated diagonal pairs
        got = {op.parts: c for c, op in terms if op.klass == surf.canonical()}
        for n in range(1, 6):
            assert got[(-n, n)] == F(1 - n, 2)

    def test_k_trivial_corrections_integrate_to_zero(self):
        surf = SurfaceModel(K_trivial=True)
        N = 8
        with_k = chern_op(1, surf.one(), surf, N)
        k_ops = [(c, op) for c, op in with_k if op.klass == surf.canonical()]
        assert len(k_ops) == N
        for c, op in k_ops[:3]:
            t = trace_product([op], surf, N)
            assert t.is_zero()

    def test_general_k_rejected(self):
        surf = SurfaceModel()
        with pytest.raises(ValueError):
            chern_op(2, surf.one(), surf, 5)

    @pytest.mark.parametrize("k_trivial", [False, True])
    def test_matches_reference_listing(self, k_trivial):
        surf = SurfaceModel(K_trivial=k_trivial)
        for klass in (surf.one(), surf.divisor("L1"), surf.canonical()):
            for k in (0, 1):
                for order in range(41):
                    assert chern_terms(chern_op(k, klass, surf, order)) == \
                        chern_terms(reference_chern_op(k, klass, surf, order)), (k, klass, order)

    def test_ch_terms_negate_equivariant_terms(self):
        # the terms of length k + 2 carry alpha itself, and their coefficients
        # are those of the equivariant operator with the commutator's sign flipped
        surf = SurfaceModel()
        klass = surf.divisor("L1")
        for k in (0, 1):
            for order in range(21):
                terms = [(c, op) for c, op in chern_op(k, klass, surf, order)
                         if len(op.parts) == k + 2]
                assert all(op.klass.id() == klass.id() for _, op in terms)
                want = sorted((parts, -c) for c, parts in equiv_chern_op(k, order)
                              if len(parts) == k + 2)
                assert sorted((op.parts, c) for c, op in terms) == want, (k, order)


def series_chern_coefficient(parts, k):
    """The reference for `equiv_chern_coefficient`: the z^d coefficient,
    d = k - len(parts) + 2, of prod g(-pz) / (g(z) g(-z)), with
    g(w) = (e^w - 1)/w, by series products and one inverse."""
    d = k - len(parts) + 2
    if d < 0:
        return F(0)

    def g(n):
        return QSeries([F(n ** j, factorial(j + 1)) for j in range(d + 1)])

    num = QSeries.one(d)
    for p in parts:
        num = num * g(-p)
    return (num * (g(1) * g(-1)).inverse()).coeffs[d]


class TestEquivChernOps:
    def test_coefficient_matches_series_on_seeded_tuples(self):
        rng = random.Random(20)
        values = [p for p in range(-7, 8) if p]
        for _ in range(1000):
            parts = tuple(rng.choice(values) for _ in range(rng.randint(0, 5)))
            k = rng.randint(0, 7)
            assert equiv_chern_coefficient(parts, k) == series_chern_coefficient(parts, k), \
                (parts, k)

    def test_coefficient_matches_series_on_zero_weight_partitions(self):
        for k in range(6):
            for parts in _zero_weight_partitions(k + 2, 5):
                assert equiv_chern_coefficient(parts, k) == series_chern_coefficient(parts, k), \
                    (parts, k)

    def test_zero_weight_partitions_match_filter(self):
        for max_length in range(6):
            for bound in range(7):
                values = [p for p in range(-bound, bound + 1) if p]
                want = [()] + [parts for length in range(1, max_length + 1)
                               for parts in combinations_with_replacement(values, length)
                               if sum(parts) == 0]
                assert _zero_weight_partitions(max_length, bound) == want, (max_length, bound)

    def test_k1_structure(self):
        ops = dict()
        for c, parts in equiv_chern_op(1, 6):
            ops[parts] = c
        for parts in _zero_weight_partitions(3, 6):
            if len(parts) == 3:
                assert ops[parts] == F(1, multiplicity_factorial(parts))
                assert equiv_chern_coefficient(parts, 1) == 1
            else:
                assert parts not in ops

    def test_k0_pair_coefficient_is_plus_one(self):
        # oracle: both numerator and denominator expand to z^2 (1 + O(z^2))
        # with positive leading coefficient, so the ratio starts at +1
        for m in (1, 2, 3, 5):
            assert equiv_chern_coefficient((-m, m), 0) == 1

    def test_k0_constant_term(self):
        assert equiv_chern_coefficient((), 0) == F(-1, 12)

    def test_parity_vanishing(self):
        for k in range(4):
            for parts in _zero_weight_partitions(k + 2, 3):
                if (len(parts) - k) % 2:
                    assert equiv_chern_coefficient(parts, k) == 0, (k, parts)


class TestGammaTrace:
    def test_empty_word(self):
        for m in (0, 1, 3):
            assert gamma_trace(m, (), 10).agrees_with(QSeries.one(10))

    def test_m_zero_reduces_to_plain_trace(self):
        for parts in ((-1, 1), (-2, 1, 1)):
            got = gamma_trace(0, (parts,), 10)
            want = equiv_trace(parts, 10)
            assert got.agrees_with(want)

    def test_zero_part_rejected(self):
        for parts in ((0,), (0, 1, -1)):
            with pytest.raises(ValueError, match="parts must be nonzero integers"):
                gamma_trace_sum(2, [[(1, parts)]], 4)
            with pytest.raises(ValueError, match="parts must be nonzero integers"):
                gamma_trace(2, [parts], 4)

    def test_even_in_m(self):
        word = ((-2, 1, 1), (-1, -1, 2))
        for m in (1, 2, 3):
            assert gamma_trace(m, word, 10).agrees_with(gamma_trace(-m, word, 10))

    def test_single_diagonal_pair_closed_form(self):
        # Tr against a_{-1}a_1: q/(1-q) - m^2 q/(1-q)^2 (derived by hand from
        # the expansion; validated against the brute-force Fock oracle)
        N = 10
        for m in (0, 1, 2):
            got = gamma_trace(m, ((-1, 1),), N)
            want = lambert_term(1, 1, 1, order=N) \
                - lambert_term(1, 1, 2, order=N).scale(m * m)
            assert got.agrees_with(want), m


class TestGammaCommutation:
    def test_zero_pairing(self):
        assert gamma_commutation_check(0, 6, window=4)

    def test_unit_pairing(self):
        assert gamma_commutation_check(1, 6, window=4)

    def test_pairing_two(self):
        assert gamma_commutation_check(2, 5, window=4)

    def test_negative_pairing(self):
        assert gamma_commutation_check(-1, 5, window=4)

    def test_vacuous_arguments_rejected(self):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            gamma_commutation_check(2, -1)
        for window in (0, -1):
            with pytest.raises(ValueError, match="window must be at least 1"):
                gamma_commutation_check(2, 3, window=window)

    @staticmethod
    def flip_plus_sign(monkeypatch):
        plus = fock._gamma_plus_row
        monkeypatch.setattr(fock, "_gamma_plus_row",
                            lambda state, scale, bmax: plus(state, scale, bmax, sign=1))

    def test_flipped_plus_sign_fails(self, monkeypatch):
        self.flip_plus_sign(monkeypatch)
        assert gamma_commutation_check(0, 5, window=4)
        for pairing in (1, 2, -1):
            assert not gamma_commutation_check(pairing, 5, window=4), pairing

    @staticmethod
    def perturb_minus_entry(monkeypatch):
        minus = fock._gamma_minus_row

        def perturbed(state, budget, table):
            row = minus(state, budget, table)
            if state == (1,):
                target, a, num = row[3]
                row[3] = (target, a, num + 1)
            return row

        monkeypatch.setattr(fock, "_gamma_minus_row", perturbed)

    def test_perturbed_minus_entry_fails(self, monkeypatch):
        self.perturb_minus_entry(monkeypatch)
        for pairing in (0, 1, 2, -1):
            assert not gamma_commutation_check(pairing, 5, window=4), pairing

    @staticmethod
    def registry_cases(monkeypatch):
        """The (label, got, want) cases of one `gamma_comm` registry run at order 5."""
        from qzeta import pipeline
        cases = []
        monkeypatch.setattr(pipeline, "_verdict",
                            lambda name, order, detail, got: cases.extend(got))
        pipeline.CHECKS["gamma_comm"][0](5)
        return cases

    def test_perturbed_minus_entry_fails_every_registry_case(self, monkeypatch):
        # the registry checks [Gamma_-, Gamma_-] once for its four pairings, so
        # a fault there must still fail each pairing's case
        assert self.registry_cases(monkeypatch) == [
            (f"pairing {p}", True, True) for p in (0, 1, 2, -1)]
        self.perturb_minus_entry(monkeypatch)
        assert fock._gamma_commutation(5, 6, (0, 1, 2, -1)) == [False] * 4
        assert self.registry_cases(monkeypatch) == [
            (f"pairing {p}", False, True) for p in (0, 1, 2, -1)]

    def test_flipped_plus_sign_fails_registry_cases_with_nonzero_pairing(self, monkeypatch):
        # each pairing builds its own Gamma_+ rows: a sign fault there shows
        # wherever the pairing is nonzero, and only there
        self.flip_plus_sign(monkeypatch)
        assert self.registry_cases(monkeypatch) == [
            (f"pairing {p}", p == 0, True) for p in (0, 1, 2, -1)]

    def test_one_routine_agrees_with_per_pairing_checks(self):
        pairings = (0, 1, 2, -1)
        for order in range(6):
            for window in (1, 4, 6):
                assert [gamma_commutation_check(p, order, window) for p in pairings] \
                    == fock._gamma_commutation(order, window, pairings), (order, window)

    def test_minus_row_numerators_over_factorial(self):
        # numerator / a! is prod (1/n)^k / k! over the added parts n, k times each
        cap = 7
        table = fock._partition_table(cap)
        for state in fock.all_partition_states(cap):
            budget = cap - sum(state)
            row = fock._gamma_minus_row(state, budget, table)
            assert [a for _, a, _ in row] == sorted(a for _, a, _ in row)
            added = set()
            for target, a, num in row:
                mu = Counter(target) - Counter(state)
                assert Counter(state) + mu == Counter(target)
                assert sum(n * k for n, k in mu.items()) == a
                want = F(1)
                for n, k in mu.items():
                    want *= F(1, n) ** k / factorial(k)
                assert F(num, factorial(a)) == want, (state, target)
                added.add(tuple(sorted(mu.elements())))
            # each multiset of size <= budget exactly once
            assert len(added) == len(row) == sum(euler_pow(-1, budget).coeffs)
