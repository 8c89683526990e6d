"""Assembly of the two-point generating series and the verification registry.

Every check reproduces a named identity at a stated truncation order with
exact arithmetic.  Where a printed display disagrees with the value forced by
its own derivation (three cases: the closed form of the degree-0 two-point
lemma, the sign of the weight-6 component formulas, and the proportionality
chain between the equivariant components), the check verifies the derived
truth and its detail string reports the deviation of the printed display.
A check that raises is logged; `logging` is imported only then.
"""
import math
from fractions import Fraction

from .ring import QSeries, euler_pow, lambert_term
from .zeta import bracket, eisenstein, eval_named, z_series
from .fock import (DecoratedOp, SurfaceModel, chern_op, equiv_chern_coefficient,
                   equiv_chern_op, equiv_trace, fock_trace_bruteforce,
                   gamma_trace_sum, trace_product, vertex_trace_sum, _gamma_commutation,
                   _symmetry_factorial, _zero_weight_partitions)


class CheckResult:
    """Outcome of one named verification.

    A check that raised instead of reaching a verdict has status "error".
    """

    def __init__(self, name, passed, order, detail="", mismatch=None, error=False):
        self.name = name
        self.error = bool(error)
        self.passed = bool(passed)
        self.order = order
        self.detail = detail
        self.mismatch = mismatch  # (degree, got, expected) when failing

    @property
    def status(self):
        return "error" if self.error else "pass" if self.passed else "fail"

    @property
    def tag(self):
        """"pass", "FAIL" or "ERROR", for plain-text reports."""
        return self.status if self.passed else self.status.upper()

    def to_json_dict(self):
        out = {"name": self.name, "status": self.status,
               "order": self.order, "detail": self.detail}
        if self.mismatch is not None:
            d, got, want = self.mismatch
            out["mismatch"] = {"degree": d, "got": str(got), "expected": str(want)}
        return out

    def __repr__(self):
        return f"[{self.tag}] {self.name} (order {self.order}){': ' + self.detail if self.detail else ''}"


# -- surfaces and F-series ------------------------------------------------------


class FSeriesSpec:
    """Product of Chern character operators to trace against the vertex."""

    def __init__(self, entries, surface, order):
        self.entries = tuple(entries)  # (k, CohClass) pairs, k in {0, 1}
        if any(k not in (0, 1) for k, _ in self.entries):
            raise ValueError("only operator indices 0 and 1 are available")
        self.surface = surface
        self.order = order


def f_series_reduced(spec):
    """Reduced generating series for a product of Chern character operators."""
    surface, order = spec.surface, spec.order
    distinct = {(k, a.id()): a for k, a in spec.entries}  # one expansion each
    built = {key: chern_op(key[0], a, surface, order) for key, a in distinct.items()}
    return vertex_trace_sum([built[k, a.id()] for k, a in spec.entries],
                            surface, order)


def ch1ch1_reduced(surface, order):
    """Reduced two-point series of first Chern characters of L1^[n], L2^[n].

    The first Chern character of L^[n] is the index-1 operator on the
    fundamental class plus the index-0 operator on the divisor L (the
    remaining term of the general splitting vanishes), so the two-point
    series is one walker call over the two summed expansions.
    """
    ch1 = chern_op(1, surface.one(), surface, order)
    return vertex_trace_sum(
        [ch1 + chern_op(0, surface.divisor(name), surface, order)
         for name in ("L1", "L2")], surface, order)


def equiv_ch1ch1(m, order):
    """Equivariant reduced two-point series at vertex level m."""
    ops = equiv_chern_op(1, order)
    return gamma_trace_sum(m, [ops, ops], order)


# -- expected right-hand sides ---------------------------------------------------


def _h_component(tag, order):
    return eval_named(f"h11_{tag}", order)


# exponent triples (a, b, c) of Z(2)^a Z(4)^b Z(6)^c in h0, and h_tag / h0
_PROP_H0 = {(2, 0, 0): Fraction(1), (0, 1, 0): Fraction(1),
            (3, 0, 0): Fraction(-8, 3), (1, 1, 0): Fraction(4),
            (0, 0, 1): Fraction(14, 3)}
_H_FACTORS = {0: Fraction(1), 2: Fraction(-5, 4), 4: Fraction(1, 4)}


def h_component_closed_form(tag, order):
    """Verified quasi-modular closed forms of the h components.

    h0 = Z2^2 + Z4 - (8/3)Z2^3 + 4 Z2 Z4 + (14/3)Z6, h2 = -(5/4) h0,
    h4 = (1/4) h0; the printed component formulas for h2/h4 carry the
    opposite sign (see the discrepancy check).
    """
    if tag not in _H_FACTORS:
        raise ValueError(tag)
    zs = [z_series((s,), order) for s in (2, 4, 6)]
    h0 = sum((math.prod((z ** e for z, e in zip(zs, exps) if e), start=QSeries.one(order))
              .scale(c) for exps, c in _PROP_H0.items()), QSeries.zero(order))
    return h0.scale(_H_FACTORS[tag])


def f00_expected(surface, order):
    """Degree-0 two-point lemma with the corrected L1L2-coefficient q d/dq Z(2)."""
    R = surface.ring
    K, l1, l2 = surface.canonical(), surface.divisor("L1"), surface.divisor("L2")
    z2 = z_series((2,), order)
    return (z2 * z2).lift(R).scale(K.pair(l1) * K.pair(l2)) + \
        z2.q_derivative().lift(R).scale(l1.pair(l2))


def f10_expected(surface, divisor_name, order):
    R = surface.ring
    K, l = surface.canonical(), surface.divisor(divisor_name)
    z2, z3 = z_series((2,), order), z_series((3,), order)
    half = Fraction(1, 2)
    return ((z3 - z2) * z2).lift(R).scale(half * K.pair(K) * K.pair(l)) + \
        (z3 - z2).q_derivative().lift(R).scale(half * K.pair(l))


def f11_expected(surface, order):
    R = surface.ring
    K = surface.canonical()
    k2 = K.pair(K)
    z2, z3 = z_series((2,), order), z_series((3,), order)
    sums = (eval_named("thm_sum1", order) + eval_named("thm_sum2", order)
            + eval_named("thm_sum3", order))
    return ((z3 - z2) ** 2).lift(R).scale(Fraction(1, 4) * k2 * k2) + \
        _h_component(2, order).lift(R).scale(surface.chi) + \
        (sums - _h_component(4, order)).lift(R).scale(k2)


def ch1ch1_expected(surface, order):
    return (f11_expected(surface, order)
            + f10_expected(surface, "L1", order)
            + f10_expected(surface, "L2", order)
            + f00_expected(surface, order))


# -- the registry -----------------------------------------------------------------


# name -> (check, default order, lowest order).  The lowest order is the
# least at which the check runs to a verdict and compares at least one nonzero
# coefficient (for equiv_kodd_vanishing: sums at least one nonzero trace), so
# that no order accepted by run_checks can pass vacuously.
CHECKS = {}


def registered(name, default_order, lowest_order, detail):
    """Declare a registry check; the decorated generator yields its cases.

    The generator takes the order and yields (label, got, want) cases.  The
    registered check fails at the first case where got differs from want (a
    QSeries by `first_mismatch` up to the order, anything else by !=), with
    the case's label as its detail, or the pass detail when the label is
    empty.  Otherwise it passes with the pass detail followed by the
    generator's return value, if any.  The decorator returns the check.
    """
    def register(cases):
        def check(order):
            return _verdict(name, order, detail, cases(order))
        CHECKS[name] = (check, default_order, lowest_order)
        return check
    return register


def _verdict(name, order, detail, cases):
    while True:
        try:
            label, got, want = next(cases)
        except StopIteration as done:
            return CheckResult(name, True, order, detail + (done.value or ""))
        if isinstance(got, QSeries):
            mismatch = got.first_mismatch(want, order)
            failed = mismatch is not None
        else:
            mismatch, failed = None, got != want
        if failed:
            return CheckResult(name, False, order, label or detail, mismatch)


def _partition_numbers(n):
    """Dynamic-programming partition counter (independent of euler_pow)."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for s in range(part, n + 1):
            p[s] += p[s - part]
    return p


@registered("euler_partition_oracle", 50, 0,
            "Euler product inverse vs partition-count recursion")
def check_euler_partition_oracle(order):
    got = euler_pow(-1, order)
    yield "", got, QSeries(_partition_numbers(order), order=order)
    yield ("inverse pair product differs from 1", euler_pow(1, order) * got,
           QSeries.one(order))


@registered("bracket_defs", 40, 1,
            "bracket closed forms and divisor-power forms, s <= 6")
def check_bracket_defs(order):
    # [1], [2], [3] closed forms, then the general single-index formula
    d1 = QSeries.zero(order)
    d2 = QSeries.zero(order)
    d3 = QSeries.zero(order)
    for n in range(1, order + 1):
        d1 = d1 + lambert_term(n, n, 1, order=order)
        d2 = d2 + lambert_term(n, n, 1, order=order).scale(n)
        d3 = d3 + lambert_term(n, n, 1, order=order).scale(Fraction(n * n, 2))
    for name, idx, want in (("[1]", (1,), d1), ("[2]", (2,), d2), ("[3]", (3,), d3)):
        yield f"{name} failed", bracket(idx, order), want
    for s in range(1, 7):
        want = QSeries.zero(order)
        for d in range(1, order + 1):
            want = want + lambert_term(d, d, 1, order=order).scale(
                Fraction(d ** (s - 1), math.factorial(s - 1)))
        yield f"[{s}] divisor form", bracket((s,), order), want


@registered("okounkov_defs", 40, 1, "single-index Lambert closed forms")
def check_okounkov_defs(order):
    z2want = QSeries.zero(order)
    z3want = QSeries.zero(order)
    z4want = QSeries.zero(order)
    z6want = QSeries.zero(order)
    for n in range(1, order + 1):
        z2want = z2want + lambert_term(n, n, 2, order=order)
        z3want = z3want + lambert_term(2 * n, n, 3, order=order) \
            + lambert_term(n, n, 3, order=order)
        z4want = z4want + lambert_term(2 * n, n, 4, order=order)
        z6want = z6want + lambert_term(3 * n, n, 6, order=order)
    cases = (("Z(2)", (2,), z2want), ("Z(3)", (3,), z3want),
             ("Z(4)", (4,), z4want), ("Z(6)", (6,), z6want))
    for name, idx, want in cases:
        yield name, z_series(idx, order), want


@registered("bk3_2_6", 40, 1, "bracket-to-Z conversions")
def check_bk3_2_6(order):
    z2, z3, z4 = (z_series((s,), order) for s in (2, 3, 4))
    yield "Z(2) = [2]", z2, bracket((2,), order)
    yield "Z(3) = 2[3]", z3, bracket((3,), order).scale(2)
    yield ("Z(4) = [4] - (1/6)[2]", z4,
           bracket((4,), order) - bracket((2,), order).scale(Fraction(1, 6)))


@registered("eisenstein_conversion", 40, 0,
            "G2/G4/G6 conversions incl. constant terms")
def check_eisenstein_conversion(order):
    z2, z4, z6 = (z_series((s,), order) for s in (2, 4, 6))
    g2, g4, g6 = (eisenstein(w, order) for w in (2, 4, 6))
    yield "G2 = -1/24 + Z(2)", g2, z2 + Fraction(-1, 24)
    yield ("G4 = 1/1440 + (1/6)Z(2) + Z(4)", g4,
           z2.scale(Fraction(1, 6)) + z4 + Fraction(1, 1440))
    yield ("G6 = -1/60480 + (1/120)Z(2) + (1/4)Z(4) + Z(6)", g6,
           z2.scale(Fraction(1, 120)) + z4.scale(Fraction(1, 4)) + z6
           + Fraction(-1, 60480))
    # at order 0 the printed display agrees, so the note depends on the order
    display = z2 + z4.scale(Fraction(1, 6)) + Fraction(1, 1440)
    if g4.first_mismatch(display):
        return ("; note: the printed G4 display swaps the Z(2)/Z(4) "
                "coefficients (true: 1/1440 + (1/6)Z(2) + Z(4))")


@registered("dz3", 40, 1, "q d/dq Z(3) = 5Z(5) - 4Z(3,2) - 6Z(2,3) + Z(3)")
def check_dz3(order):
    lhs = z_series((3,), order).q_derivative()
    rhs = z_series((5,), order).scale(5) - z_series((3, 2), order).scale(4) \
        - z_series((2, 3), order).scale(6) + z_series((3,), order)
    yield "", lhs, rhs


@registered("bra1cor4", 50, 2, "chain double sum vs single cubic-pole sum")
def check_bra1cor4(order):
    lhs = QSeries.zero(order)
    for n1 in range(2, order + 1):
        inner = QSeries.zero(order)
        for n2 in range(1, n1):
            inner = inner + lambert_term(0, n2, 1, order=order)
        lhs = lhs + lambert_term(n1, n1, 2, order=order) * inner
    rhs = QSeries.zero(order)
    for n in range(1, order + 1):
        if 2 * n > order:
            break
        rhs = rhs + lambert_term(2 * n, n, 3, order=order)
    yield "", lhs, rhs


@registered("qiqj", 40, 0, "partial-fraction split, i,j <= 6")
def check_qiqj(order):
    for i in range(1, 7):
        for j in range(1, 7):
            lhs = lambert_term(0, i, 1, order=order) * lambert_term(0, j, 1, order=order)
            rhs = (lambert_term(0, i, 1, order=order)
                   + lambert_term(j, j, 1, order=order)) \
                * lambert_term(0, i + j, 1, order=order)
            yield f"i={i} j={j}", lhs, rhs


def _trala_cases(i, j, order):
    lam = lambda a, m, p: lambert_term(a, m, p, order=order)
    d = 1 if i == j else 0
    return (
        ((-i, i), lam(i, i, 1).scale(i)),
        ((i, -i), lam(0, i, 1).scale(i)),
        ((i, j, -i, -j), (lam(0, i, 1) * lam(0, j, 1)).scale((1 + d) * i * j)),
        ((-i, -j, i, j), (lam(i, i, 1) * lam(j, j, 1)).scale((1 + d) * i * j)),
        ((-i, j, -j, i),
         (lam(i, i, 1) * lam(0, j, 1)).scale(i * j)
         + (lam(i, i, 1) * lam(j, j, 1)).scale(d * i * j)),
        ((-i, -j, i + j, -i - j, i, j),
         (lam(i, i, 1) * lam(j, j, 1) * lam(0, i + j, 1)).scale((1 + d) * i * j * (i + j))),
        ((-i - j, i, j, -i, -j, i + j),
         (lam(i, i, 1) * lam(j, j, 1) * lam(0, i + j, 1)).scale((1 + d) * i * j * (i + j))),
    )


@registered("trala_suite", 20, 0,
            "eight scalar closed forms, both engines, i,j <= 4")
def check_trala_suite(order):
    reducer = euler_pow(1, order)
    # the empty word: Tr q^n is the inverse Euler product, reduced to 1
    yield "empty word, scalar engine", equiv_trace((), order), QSeries.one(order)
    yield ("empty word, brute force", fock_trace_bruteforce((), order),
           euler_pow(-1, order))
    for i in range(1, 5):
        for j in range(1, 5):
            for parts, want in _trala_cases(i, j, order):
                yield (f"scalar engine, word {parts}",
                       equiv_trace(parts, order), want)
                yield (f"brute-force engine, word {parts}",
                       fock_trace_bruteforce(parts, order) * reducer, want)


@registered("tracei1Xj1X", 20, 0,
            "two-operator and grouped diagonal traces, i <= 4")
def check_tracei1Xj1X(order):
    surf = SurfaceModel()
    R = surf.ring
    one, l1, l2 = surf.one(), surf.divisor("L1"), surf.divisor("L2")
    chi = surf.chi
    lam = lambda a, m, p: lambert_term(a, m, p, order=order).lift(R)
    for i in range(1, 5):
        cases = (
            ([DecoratedOp((-i,), l1), DecoratedOp((i,), l2)],
             lam(i, i, 1).scale(l1.pair(l2) * Fraction(-i))),
            ([DecoratedOp((i,), l1), DecoratedOp((-i,), l2)],
             lam(0, i, 1).scale(l1.pair(l2) * Fraction(-i))),
            ([DecoratedOp((-i, i), one)], lam(i, i, 1).scale(chi * Fraction(-i))),
            ([DecoratedOp((i, -i), one)], lam(0, i, 1).scale(chi * Fraction(-i))),
        )
        for word, want in cases:
            yield f"i={i}", trace_product(word, surf, order), want


@registered("trij1Xij1X", 20, 0, "four-operator grouped traces")
def check_trij1Xij1X(order):
    surf = SurfaceModel()
    R = surf.ring
    one = surf.one()
    chi = surf.chi
    lam = lambda a, m, p: lambert_term(a, m, p, order=order).lift(R)
    for i in range(1, 4):
        for j in range(1, 4):
            d = 1 if i == j else 0
            cases = (
                ([DecoratedOp((-i, i + j), one), DecoratedOp((-i - j, i), one)],
                 (lam(i, i, 1) * lam(0, i + j, 1)).scale(chi * Fraction(i * (i + j)))),
                ([DecoratedOp((-i - j, i), one), DecoratedOp((-i, i + j), one)],
                 (lam(i + j, i, 1) * lam(0, i + j, 1)).scale(chi * Fraction(i * (i + j)))),
                ([DecoratedOp((i, j), one), DecoratedOp((-j, -i), one)],
                 (lam(0, i, 1) * lam(0, j, 1)).scale(chi * Fraction((1 + d) * i * j))),
                ([DecoratedOp((-j, -i), one), DecoratedOp((i, j), one)],
                 (lam(i, i, 1) * lam(j, j, 1)).scale(chi * Fraction((1 + d) * i * j))),
            )
            for word, want in cases:
                yield f"i={i} j={j}", trace_product(word, surf, order), want


@registered("gamma_comm", 12, 0,
            "half-vertex commutation, pairings {0, 1, 2, -1}, window 6")
def check_gamma_comm(order):
    # [Gamma_-, Gamma_-] does not depend on the pairing: one pass serves all four
    pairings = (0, 1, 2, -1)
    for pairing, ok in zip(pairings, _gamma_commutation(order, 6, pairings)):
        yield f"pairing {pairing}", ok, True


@registered("str_gk_k1", 8, 2, "index-1 operator = normalized length-3 sum")
def check_str_gk_k1(order):
    ops = {parts: c for c, parts in equiv_chern_op(1, order)}
    for parts in _zero_weight_partitions(3, order):
        c = ops.get(parts, Fraction(0))
        if len(parts) == 3:
            want = Fraction(1, _symmetry_factorial(parts))
            yield f"{parts}: got {c}, want {want}", c, want
        else:
            yield f"unexpected term at {parts}: {c}", c, 0
    yield "k=0 pair coefficient", equiv_chern_coefficient((-1, 1), 0), 1


@registered("equiv_kodd_vanishing", 20, 2,
            "single odd-index operator traces vanish, m in {0,1,2}")
def check_equiv_kodd_vanishing(order):
    ops = equiv_chern_op(1, order)
    for m in (0, 1, 2):
        yield f"m={m}", gamma_trace_sum(m, [ops], order), QSeries.zero(order)


_H_GOLDEN_Q7 = QSeries([0, 0, 2, 16, 60, 160, 360, 672], order=7)


@registered("h11_direct_vs_decomp", 40, 17,
            "components decompose at weight 6 and match closed forms")
def check_h11_direct_vs_decomp(order):
    from .qmforms import decompose
    yield ("h0 golden coefficients", _h_component(0, order).truncate(7),
           _H_GOLDEN_Q7)
    for tag in (0, 2, 4):
        h = _h_component(tag, order)
        dec = decompose(h, 6, order)
        yield f"h{tag} not quasi-modular of weight <= 6: {dec}", bool(dec), True
        yield f"h{tag} closed form", h, h_component_closed_form(tag, order)


@registered("prop_h11024", 40, 17,
            "h0 matches the printed coefficients exactly; h2 and h4 equal the "
            "NEGATIVES of the printed component formulas (printed signs are "
            "inconsistent with the defining sums, confirmed by brute-force traces)")
def check_prop_h11024(order):
    from .qmforms import decompose
    for tag, factor in _H_FACTORS.items():
        dec = decompose(_h_component(tag, order), 6, order)
        yield (f"h{tag} decomposition: {dec}", dec.coeffs if dec else None,
               {m: c * factor for m, c in _PROP_H0.items()})


@registered("corollary_h11024_discrepancy", 40, 2,
            "true chain: h0 = -(4/5) h2 = 4 h4")
def check_corollary_h11024_discrepancy(order):
    h0, h2, h4 = (_h_component(tag, order) for tag in (0, 2, 4))
    yield "h0 = -(4/5) h2", h0, h2.scale(Fraction(-4, 5))
    yield "h0 = 4 h4", h0, h4.scale(4)
    printed = ((h0 - h4.scale(Fraction(4, 5))).is_zero()
               and (h0 - h2.scale(-4)).is_zero())
    swapped = ((h0 - h2.scale(Fraction(4, 5))).is_zero()
               and (h0 - h4.scale(-4)).is_zero())
    return (f"; printed corollary chain (h0 = (4/5)h4 = -4h2) holds: {printed}; "
            f"proposition-implied chain (h0 = (4/5)h2 = -4h4) holds: {swapped}")


@registered("lemma_f00", 25, 1,
            "L1L2-coefficient is q d/dq Z(2) = Z(2) + 5Z(4) - 2Z(2)^2; the printed "
            "closed form (7/2)Z(4) - (1/2)Z(2)^2 + Z(2) differs from the lemma's "
            "own derived sum starting at q^3")
def check_lemma_f00(order):
    surf = SurfaceModel()
    got = f_series_reduced(FSeriesSpec(
        ((0, surf.divisor("L1")), (0, surf.divisor("L2"))), surf, order))
    yield "", got, f00_expected(surf, order)


@registered("lemma_f101", 40, 2, "index-(1,0) two-point lemma as printed")
def check_lemma_f101(order):
    surf = SurfaceModel()
    got = f_series_reduced(FSeriesSpec(
        ((1, surf.one()), (0, surf.divisor("L1"))), surf, order))
    yield "", got, f10_expected(surf, "L1", order)


@registered("lemma_f111", 30, 2,
            "index-(1,1) two-point lemma with components from the defining sums")
def f111_component_check(order):
    surf = SurfaceModel()
    got = f_series_reduced(FSeriesSpec(((1, surf.one()), (1, surf.one())),
                                       surf, order))
    yield "", got, f11_expected(surf, order)


@registered("theorem_main", 40, 1,
            "full surface two-point theorem assembled from the verified lemmas; "
            "the printed display's chi-coefficient and quasi-modular K^2-tail "
            "carry the sign-flipped component values and its L1L2-coefficient "
            "is the typo'd closed form (see lemma_f00)")
def check_theorem_main(order):
    surf = SurfaceModel()
    yield "", ch1ch1_reduced(surf, order), ch1ch1_expected(surf, order)


@registered("theorem_K_trivial", 60, 1,
            "numerically trivial K: (Z(2) + 5Z(4) - 2Z(2)^2) <L1,L2> + h2 chi, "
            "both quasi-modular of weight <= 6, verifying the conjecture")
def check_theorem_K_trivial(order):
    surf = SurfaceModel(K_trivial=True)
    got = ch1ch1_reduced(surf, order)
    R = surf.ring
    z2 = z_series((2,), order)
    l1l2 = surf.divisor("L1").pair(surf.divisor("L2"))
    want = z2.q_derivative().lift(R).scale(l1l2) \
        + _h_component(2, order).lift(R).scale(surf.chi)
    yield "", got, want


def run_checks(names="all", order=None):
    """Run registry checks by name; order overrides each check's default.

    An order below a selected check's lowest order raises ValueError.  A check
    that raises becomes a result with status "error" (its traceback is logged)
    and the remaining checks still run.
    """
    if names == "all" or names == ["all"]:
        selected = list(CHECKS)
    else:
        if isinstance(names, str):
            names = [names]
        unknown = [n for n in names if n not in CHECKS]
        if unknown:
            raise KeyError(f"unknown checks: {unknown}; known: {sorted(CHECKS)}")
        selected = list(names)
    for name in selected:
        min_order = CHECKS[name][2]
        if order is not None and order < min_order:
            raise ValueError(f"check {name} needs order >= {min_order}, got {order}")
    results = []
    for name in selected:
        fn, default_order, _ = CHECKS[name]
        check_order = order if order is not None else default_order
        try:
            results.append(fn(check_order))
        except Exception as exc:
            import logging
            logging.getLogger(__name__).exception("check %s raised", name)
            detail = " ".join(f"{type(exc).__name__}: {exc}".split())
            results.append(CheckResult(name, False, check_order, detail, error=True))
    return results
