"""Heisenberg operators and exact trace engines over Hilbert-scheme Fock spaces.

Two settings, whose commutator conventions differ by a sign:

* surface setting: grouped operators a_lambda(alpha) decorated by classes in a
  symbolic surface cohomology model, [a_m(x), a_n(y)] = -m delta_{m,-n} <x,y>,
  traced as a thermal Wick sum over contraction graphs (`SurfaceTraceEngine`);
* equivariant scalar setting: undecorated operators on the partition Fock
  space, [a_m, a_n] = +m delta_{m,-n}, traced as a product over modes of
  thermal Wick sums (`EquivTraceEngine`).

All trace values are REDUCED: the global Euler-product factor is divided out,
so the empty word traces to 1.

Equivariant Chern coefficients come from a closed form in power sums and
Bernoulli numbers, and no function here keeps a cache between calls.
"""
from collections import Counter
from fractions import Fraction
from itertools import chain, permutations, product as iproduct
from math import comb, factorial, lcm, perm, prod
from operator import add, mul

from .ring import (MPolyRing, ONE, QSeries, ZERO, _add_into, _conv, _divide, _finish, _series,
                   _shift)
from .zeta import _bernoulli_list


# -- generalized partitions --------------------------------------------------


def _symmetry_factorial(parts):
    """Product of the multiplicity factorials of sorted nonzero parts: copy j gives j."""
    out, run, last = 1, 0, 0
    for p in parts:
        run = run + 1 if p == last else 1
        out *= run
        last = p
    return out


# -- surface cohomology model -------------------------------------------------


def _pair_symbol(d1, d2):
    a, b = sorted((d1, d2))
    return "K2" if (a, b) == ("K", "K") else a + b


class SurfaceModel:
    """Symbolic even cohomology of a surface and its basis.

    The basis names are 1X (degree 0), the divisors K, L1 and L2 (degree 2)
    and pt (degree 4). Pairings between divisors are formal symbols; the
    Euler class e integrates to chi (a symbol unless an integer value is
    fixed). With K numerically trivial every pairing involving K is zero.
    """

    divisors = ("K", "L1", "L2")

    def __init__(self, chi=None, K_trivial=False):
        self.degrees = {"1X": 0, **dict.fromkeys(self.divisors, 2), "pt": 4}
        symbols = ["chi"]
        for i, d1 in enumerate(self.divisors):
            for d2 in self.divisors[i:]:
                symbols.append(_pair_symbol(d1, d2))
        self.ring = MPolyRing(symbols)
        self.chi_value = chi
        self.K_trivial = bool(K_trivial)
        self.chi = self.ring.const(chi) if chi is not None else self.ring.gen("chi")
        self._class_ids = {}  # CohClass.key() -> small integer id
        self._classes = []  # id -> the first class given that id
        self._products = {}  # (id, id) -> id of the product, None if it is zero

    def pairing_symbol(self, d1, d2):
        if self.K_trivial and ("K" in (d1, d2)):
            return self.ring.zero
        return self.ring.gen(_pair_symbol(d1, d2))

    def basis_product(self, a, b):
        """Product of basis names a, b as (name, pairing); pairing is None when
        one factor is the unit 1X, and the result is None when the product is 0."""
        if "1X" in (a, b):
            return (b if a == "1X" else a), None
        if "pt" in (a, b):
            return None
        return "pt", self.pairing_symbol(a, b)

    # -- classes ---------------------------------------------------------

    def class_by_name(self, name):
        """The class 1X, pt, e (chi times pt) or a divisor, by its name."""
        if name == "e":
            return CohClass(self, {"pt": self.chi})
        if name not in self.degrees:
            raise ValueError(f"unknown divisor {name!r}")
        return CohClass(self, {name: self.ring.one})

    def zero_class(self):
        return CohClass(self, {})

    def one(self):
        return self.class_by_name("1X")

    def divisor(self, name):
        if self.degrees.get(name) != 2:
            raise ValueError(f"unknown divisor {name!r}")
        return self.class_by_name(name)

    def canonical(self):
        return self.class_by_name("K")

    def point(self):
        return self.class_by_name("pt")

    def euler(self):
        return self.class_by_name("e")

    def one_minus_K(self):
        return self.one() - self.canonical()

    def _product_id(self, i, j):
        """Id of the product of the classes with ids i and j; None if it is zero."""
        try:
            return self._products[i, j]
        except KeyError:
            klass = self._classes[i] * self._classes[j]
            got = self._products[i, j] = None if klass.is_zero() else klass.id()
            return got


class CohClass:
    """Inhomogeneous even cohomology class: basis name -> nonzero coefficient."""

    __slots__ = ("surface", "coeffs", "_id")

    def __init__(self, surface, coeffs):
        self.surface = surface
        self.coeffs = {name: c for name, c in coeffs.items() if not c.is_zero()}
        self._id = None

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for name, c in other.coeffs.items():
            out[name] = out[name] + c if name in out else c
        return CohClass(self.surface, out)

    def __neg__(self):
        return CohClass(self.surface, {name: -c for name, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.surface.ring.coerce(c)
        return CohClass(self.surface, {name: v * c for name, v in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, CohClass):
            return self.scale(other)
        s = self.surface
        out = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                got = s.basis_product(a, b)
                if got is not None:
                    name, pairing = got
                    c = ca * cb if pairing is None else ca * cb * pairing
                    out[name] = out[name] + c if name in out else c
        return CohClass(s, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("class powers must be nonnegative integers")
        out = self.surface.one()
        for _ in range(n):
            out = out * self
        return out

    def integral(self):
        """Pushforward to the point: the pt coefficient."""
        return self.coeffs.get("pt", self.surface.ring.zero)

    def pair(self, other):
        return (self * other).integral()

    def _sorted(self):
        """(degree, name, coefficient) triples by degree, then name."""
        degrees = self.surface.degrees
        return sorted((degrees[name], name, c) for name, c in self.coeffs.items())

    def homogeneous_parts(self):
        """Nonzero (degree, class) components, by degree."""
        parts = {}
        for d, name, c in self._sorted():
            parts.setdefault(d, {})[name] = c
        return [(d, CohClass(self.surface, coeffs)) for d, coeffs in parts.items()]

    def key(self):
        return tuple((name, c.key()) for _, name, c in self._sorted())

    def id(self):
        """Small integer naming this class in its surface: equal classes, equal ids."""
        if self._id is None:
            s = self.surface
            key = self.key()
            got = s._class_ids.get(key)
            if got is None:
                got = s._class_ids[key] = len(s._classes)
                s._classes.append(self)
            self._id = got
        return self._id

    def __eq__(self, other):
        return isinstance(other, CohClass) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return " + ".join(f"({c})*{name}" for _, name, c in self._sorted()) or "0"


class DecoratedOp:
    """Grouped Heisenberg operator: an ordered tuple of parts with a class.

    The part order is operator order (leftmost acts last); the commutator
    formula produces merged groups whose order matters whenever a part and its
    negative both occur.
    """

    __slots__ = ("parts", "klass")

    def __init__(self, parts, klass):
        self.parts = tuple(parts)
        if any(p == 0 for p in self.parts):
            raise ValueError("the zero mode is not an operator")
        self.klass = klass

    def key(self):
        """The (parts, class id) group the trace engine reads."""
        return (self.parts, self.klass.id())

    def __repr__(self):
        return f"a{list(self.parts)}({self.klass!r})"


def commutator(left, right):
    """[a_{n...}(alpha), a_{m...}(beta)] as a list of (coeff, DecoratedOp).

    Each matching pair (n_t, m_j) with n_t = -m_j contributes -n_t times the
    merged group (m_1..m_{j-1}, n's without n_t, m_{j+1}..), decorated by the
    class product; the stated factor order is preserved.
    """
    klass = left.klass * right.klass
    if klass.is_zero():
        return []
    lparts, rparts = left.parts, right.parts
    return [(-nt, DecoratedOp(rparts[:j] + lparts[:t] + lparts[t + 1:] + rparts[j + 1:], klass))
            for t, nt in enumerate(lparts) for j, mj in enumerate(rparts) if nt == -mj]


def _wick_graphs(shape):
    """The Wick matchings of a word's shape, counted by graph and shift vector.

    shape is a word's groups of parts with its modes relabelled 1, 2, ... in
    order of first appearance, signs kept: the matchings depend on nothing
    else.  Returns (pairs, graphs).  pairs[l - 1] is the number of pairs of
    label l.  graphs lists (components, counts): a component is the tuple of
    its groups, followed by the index len(shape) when it has one loop, and
    counts maps each vector v, v[l - 1] the number of pairs of label l whose
    a_-l comes first, to the number of matchings with those components and
    that vector.  A matching with a component of two or more loops is
    dropped.  Both lists are empty when a label's a_l and a_-l cannot be
    matched.
    """
    size = len(shape)
    letters = {}  # label -> ([(position, group)] of its a_l, the same of its a_-l)
    position = 0
    for g, parts in enumerate(shape):
        for p in parts:
            letters.setdefault(abs(p), ([], []))[p < 0].append((position, g))
            position += 1
    pairs, anns, matchings = [], [], []
    for label, (ann, cre) in letters.items():
        if len(ann) != len(cre):
            return [], []
        pairs.append(len(ann))
        anns += [(label - 1, a, g) for a, g in ann]
        matchings.append(permutations(cre))
    graphs = {}  # components -> {shift vector: matchings}
    for matched in iproduct(*matchings):
        # union-find over the groups: a component's root is its least group
        shift, roots, loops = [0] * len(pairs), list(range(size)), [0] * size
        for (l, a, g), (c, h) in zip(anns, chain.from_iterable(matched)):
            if c < a:
                shift[l] += 1
            g, h = roots[g], roots[h]
            if g > h:
                g, h = h, g
            if g == h:
                loops[g] += 1
            else:
                loops[g] += loops[h]
                roots = [g if r == h else r for r in roots]
            if loops[g] > 1:  # e^2 = 0
                break
        else:
            members = {}
            for g, r in enumerate(roots):
                members.setdefault(r, []).append(g)
            key = tuple(tuple(m) + ((size,) if loops[r] else ()) for r, m in members.items())
            counts = graphs.setdefault(key, {})
            shift = tuple(shift)
            counts[shift] = counts.get(shift, 0) + 1
    return pairs, list(graphs.items())


class SurfaceTraceEngine:
    """Reduced trace of products of grouped operators against q^(number operator).

    A word is a sequence of groups, each a (parts, class id) pair of the
    surface, read as letters in operator order: word order, then each group's
    part order.  By the thermal Wick theorem the trace sums, over the
    matchings of each mode's a_n with its a_-n, a product over the pairs:
    -n/(1 - q^n) when the a_n comes first, -n q^n/(1 - q^n) when the a_-n
    does.  The groups are the vertices of a graph whose edges are the pairs,
    and a component with b loops (first Betti number) contributes the
    integral of its groups' class product times e^b, zero for b >= 2.  A
    group with no parts is a component of its own.

    The matchings depend only on the word's shape, its modes relabelled
    1, 2, ... in order of first appearance, so each shape is enumerated once
    per engine (`_wick_graphs`).  The classes are folded in once per shape
    and class ids: graphs whose components have the same class products
    merge, and each merged count table keeps the terms of the product of
    those integrals.  The mode values enter only when a word is evaluated:
    a vector v shifts by sum n v, each mode signs by (-n)^k and divides by
    (1 - q^n)^k.
    """

    def __init__(self, surface, order):
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.surface = surface
        self.order = order
        self.ring = surface.ring
        self._euler = surface.euler().id()
        self._graphs = {}  # shape -> `_wick_graphs`
        self._tables = {}  # (shape, class ids) -> `_table`

    def trace(self, word):
        """word: sequence of (parts, class id) groups; returns a reduced QSeries."""
        labels, shape = {}, []  # mode -> its label, by first appearance
        for parts, _ in word:
            shape.append(tuple([labels.setdefault(abs(p), len(labels) + 1) * (1 if p > 0 else -1)
                                for p in parts]))
        key = tuple(shape), tuple([cid for _, cid in word])
        pairs, table = self._tables.get(key) or self._table(key)
        order, acc, modes = self.order, {}, list(labels)  # modes: the values by label
        sign = prod((-n) ** k for n, k in zip(modes, pairs))
        for terms, counts in table:
            nums = [0] * (order + 1)
            for vector, c in counts:
                s = sum(map(mul, modes, vector))
                if s <= order:
                    nums[s] += sign * c
            for exps, a, d in terms:
                _add_into(acc, exps, [a * x for x in nums], d)
        for nums, _ in acc.values():
            for n, k in zip(modes, pairs):
                _divide(nums, n, k)
        return _series(order, self.ring, _finish(acc))

    def _table(self, key):
        """Build and keep the table of a (shape, class ids) key: the pair counts of
        the shape's labels, and its graphs merged by their components' class
        products, each with the terms of its integrals' product."""
        shape, ids = key
        pairs, graphs = self._graphs.get(shape) or self._graphs.setdefault(shape, _wick_graphs(shape))
        # a loop joins the Euler class to its component, at index len(shape)
        ids += (self._euler,)
        product_id, classes = self.surface._product_id, self.surface._classes
        merged = {}  # sorted class products of the components -> {vector: matchings}
        for components, counts in graphs:
            cids = []
            for members in components:
                cid = ids[members[0]]
                for g in members[1:]:
                    if cid is not None:
                        cid = product_id(cid, ids[g])
                cids.append(cid)
            if None not in cids:  # no component's class product is zero
                into = merged.setdefault(tuple(sorted(cids)), {})
                for vector, c in counts.items():
                    into[vector] = into.get(vector, 0) + c
        table = []
        for cids, counts in merged.items():
            integrals = [classes[cid].integral() for cid in cids] or [self.ring.one]
            terms = prod(integrals[1:], start=integrals[0]).terms.items()
            if terms:
                table.append(([(exps, v.numerator, v.denominator) for exps, v in terms],
                              counts.items()))
        self._tables[key] = pairs, table
        return pairs, table


def _check_surface(ops, surface):
    # class ids index the surface's own table: a foreign class's id names another class
    if any(op.klass.surface is not surface for op in ops):
        raise ValueError("operator class belongs to another surface model")


def trace_product(word, surface, order):
    """Reduced Tr q^n of a product of grouped operators (no normalization)."""
    word = tuple(word)
    _check_surface(word, surface)
    return SurfaceTraceEngine(surface, order).trace([op.key() for op in word])


# -- vertex-operator trace expansion ------------------------------------------


def _group_removals(parts, order):
    """Sub-multiset removal options for one group of parts, as plain tuples.

    An option is (qcost, balance, npos, comb, removed, kept, imbalance,
    floor, total).  The first four describe the removed sub-multiset: its
    q-cost and signed size, its number of positive parts, and its binomial
    factor prod C(m, k) times the sign (-1)^npos.  removed and kept are the
    removed and the kept parts, both sorted; removed is the key of the
    option's removal weight (see `_removal_nums`).  The last three are the
    kept parts' shape.  The imbalance is the sum of (# of n - # of -n) *
    2^(32 n) over n > 0: its signed base-2^32 digits are the per-mode
    differences, so imbalances add as integers and a sum is 0 exactly when
    every mode cancels (while a tuple of words holds fewer than 2^32 parts).
    The floor is the largest running sum of the kept parts read right to
    left, from 0, here the sum of the positive ones: a word reaches no state
    below that energy, so its trace has at least that q-valuation.  total is
    the kept parts' sum.  Options grow one distinct part at a time, in
    rising part order, and one whose q-cost exceeds the order is dropped as
    soon as it does.
    """
    options = [(0, 0, 0, 1, (), (), 0, 0, 0)]
    for part in sorted(set(parts)):
        m = parts.count(part)
        pos = part > 0
        bit = (1 if pos else -1) << 32 * abs(part)
        steps = [(part * k if pos else 0, part * k, k if pos else 0,
                  (-1) ** k * comb(m, k) if pos else comb(m, k), (part,) * k,
                  (part,) * (m - k), bit * (m - k), part * (m - k) if pos else 0,
                  part * (m - k)) for k in range(m + 1)]
        options = [(q + dq, b + db, npos + dn, c * dc, removed + out, kept + left,
                    imb + di, fl + df, t + dt)
                   for q, b, npos, c, removed, kept, imb, fl, t in options
                   for dq, db, dn, dc, out, left, di, df, dt in steps if q + dq <= order]
    return options


def _removal_nums(removed, order):
    """Numerators of prod q^(n p)/(1-q^n)^(p + p~) over the removed parts.

    p and p~ count the removed parts n and -n: each part n > 0 gives
    q^n/(1 - q^n), each part -n gives 1/(1 - q^n).
    """
    nums = [1] + [0] * order
    for part in removed:
        n = abs(part)
        nums = _divide(_shift(nums, n) if part > 0 else nums, n, 1)
    return nums


class _Contraction:
    """One row of a removal table: what an expansion leaves after the vertex.

    `terms` sums the integer coefficient per removed parts over every term
    and removal option that leave `leftover` with the removed balance
    `balance`; `qcost` is the least q-valuation among them, `grades` the
    degree grades of the leftover, and `imbalance`, `floor` and `total` its
    kept parts' shape (see `_group_removals`).  The row's weight, the
    numerators of the sum of the terms' removal weights, is built on first
    use.
    """

    __slots__ = ("index", "leftover", "balance", "qcost", "terms", "imbalance",
                 "floor", "total", "grades", "_weight")

    def __init__(self, index, leftover, option, grades):
        self.index = index
        self.leftover = leftover
        self.qcost, self.balance, _, _, _, _, self.imbalance, self.floor, self.total = option
        self.terms = {}
        self.grades = grades
        self._weight = None

    def weight(self, removal_nums):
        if self._weight is None:
            self._weight = list(map(sum, zip(*([c * x for x in removal_nums(removed)]
                                               for removed, c in self.terms.items() if c))))
        return self._weight


_BALANCED = frozenset((0,))


def _contract_trace(expansions, order, contract, trace_word, ring=None,
                    grades=lambda leftover: _BALANCED):
    """The removal walker of both settings.

    contract(expansion) yields (leftover, factor, option) for every term and
    kept removal option (see `_group_removals`) of one expansion, given with
    integer coefficients, and trace_word(leftovers) traces a word of
    leftovers; a leftover is hashable and is its own key.  Each distinct
    expansion object is scaled once to integer coefficients over a common
    denominator and contracted into the vertex once, into a table whose rows
    are keyed by the leftover and the removed balance and hold the integer
    factor summed per removed parts (rows whose factors all cancel are
    dropped).  Tuples of rows are walked with pruning by q-cost, by removed
    balance, by the leftover parts, which must pair every mode n with a mode
    -n for the trace to be nonzero, and by degree: grades(leftover) is the
    set of 2(length - 2) + d over the degrees d of the leftover's class
    components, a grade every commutator keeps, so a word traces to zero
    unless one choice of grades sums to 0.  A tuple whose q-cost plus its
    word's energy floor exceeds the order is not traced.  Each distinct
    leftover word is traced once, and only nonzero traces are multiplied by
    the rows' integer removal weights.  When one expansion object fills both
    positions of a two-point walk, each unordered pair of rows is walked
    once and its weight, the same in both orders, is built once.
    """
    if not expansions:
        return trace_word(())
    tables = {}  # id of a distinct expansion -> (its rows, its denominator)
    for expansion in expansions:
        if id(expansion) in tables:
            continue
        den = lcm(*(c.denominator for c, _ in expansion))
        scaled = [(c.numerator * (den // c.denominator), item) for c, item in expansion]
        rows = {}
        for leftover, factor, option in contract(scaled):
            qcost, balance, removed = option[0], option[1], option[4]
            row = rows.get((leftover, balance))
            if row is None:
                row = rows[leftover, balance] = _Contraction(
                    len(rows), leftover, option, grades(leftover))
            elif qcost < row.qcost:
                row.qcost = qcost
            terms = row.terms
            terms[removed] = terms.get(removed, 0) + factor
        tables[id(expansion)] = [row for row in rows.values() if any(row.terms.values())], den
    den = prod(tables[id(expansion)][1] for expansion in expansions)
    *heads, tail = [tables[id(expansion)][0] for expansion in expansions]
    # the last row of a tuple is looked up by the balance and imbalance it cancels
    tails = {}
    for row in tail:
        tails.setdefault((-row.balance, -row.imbalance), []).append(row)
    removals = {}  # removed parts -> _removal_nums
    traced = {}  # leftover word -> [nonzero trace or None, summed weight]

    def removal_nums(removed):
        nums = removals.get(removed)
        if nums is None:
            nums = removals[removed] = _removal_nums(removed, order)
        return nums

    def credit(rows, weight):
        """Add the rows' weight to their word's entry; the weight, if built."""
        key = tuple(row.leftover for row in rows)
        entry = traced.get(key)
        if entry is None:
            inner = trace_word(key)
            entry = traced[key] = [None if inner.is_zero() else inner, None]
        if entry[0] is None:
            return weight
        if weight is None:
            weight = rows[0].weight(removal_nums)
            for row in rows[1:]:
                weight = _conv(weight, row.weight(removal_nums), order)
        entry[1] = weight if entry[1] is None else list(map(add, entry[1], weight))
        return weight

    def walk(i, qcost, balance, imbalance, sums, floor, rows):
        if i == len(heads):
            for row in tails.get((balance, imbalance), ()):
                if (qcost + row.qcost + max(row.floor, row.total + floor) <= order
                        and any(-g in row.grades for g in sums)):
                    credit(rows + (row,), None)
            return
        last = i + 1 == len(heads)  # then some tail row must cancel what the row leaves
        for row in heads[i]:
            q = qcost + row.qcost
            left = balance + row.balance, imbalance + row.imbalance
            if q > order or last and left not in tails:
                continue
            walk(i + 1, q, *left,
                 {g + h for g in sums for h in row.grades},
                 max(row.floor, row.total + floor), rows + (row,))

    if len(expansions) == 2 and expansions[0] is expansions[1]:
        for row in tail:
            for other in tails.get((row.balance, row.imbalance), ()):
                q = row.qcost + other.qcost
                if (other.index < row.index or q > order
                        or not any(-g in other.grades for g in row.grades)):
                    continue
                weight = None
                if q + max(other.floor, other.total + row.floor) <= order:
                    weight = credit((row, other), None)
                if other is not row and q + max(row.floor, row.total + other.floor) <= order:
                    credit((other, row), weight)
    else:
        walk(0, 0, 0, 0, _BALANCED, 0, ())
    del walk  # break the walk -> closure -> walk cycle: tables die on return
    acc = {}
    for inner, weight in traced.values():
        if inner is not None and any(weight):
            for exps, (nums, d) in inner._slices.items():
                _add_into(acc, exps, _conv(weight, nums, order), d * den)
    return _series(order, ring, _finish(acc))


def vertex_trace_sum(expansions, surface, order):
    """Sum of c_1...c_k vertex_trace([op_1, ..., op_k]) over one term per expansion.

    expansions: a list of operator expansions, each a list of
    (coefficient, DecoratedOp), walked by `_contract_trace` on leftovers that
    are (parts, class id) groups.
    """
    engine = SurfaceTraceEngine(surface, order)
    for expansion in expansions:
        _check_surface((op for _, op in expansion), surface)
    classes = surface._classes
    product_id, one_minus_k = surface._product_id, surface.one_minus_K().id()

    def contract(expansion):
        for coeff, op in expansion:
            if op.klass.is_zero():
                continue  # every word with a zero class traces to zero
            cid = op.klass.id()
            for option in _group_removals(op.parts, order):
                twisted = cid  # times (1 - K)^npos, a unit
                for _ in range(option[2]):
                    twisted = product_id(twisted, one_minus_k)
                yield (option[5], twisted), coeff * option[3], option

    degrees = {}  # (length, class id) -> grades

    def grades(leftover):
        parts, cid = leftover
        got = degrees.get((len(parts), cid))
        if got is None:
            got = degrees[len(parts), cid] = frozenset(
                2 * (len(parts) - 2) + surface.degrees[name] for name in classes[cid].coeffs)
        return got

    return _contract_trace(expansions, order, contract,
                           engine.trace, surface.ring, grades)


def vertex_trace(word, surface, order):
    """Reduced trace of the Ext vertex operator against a grouped-operator word.

    Expands Tr q^n W(z) prod_i a_{lambda_i}(alpha_i) as a sum over sub-group
    removals: positive parts contracted into the vertex contribute
    (-1)^p C(m,p) q^(np)/(1-q^n)^p each, negative parts C(m~,p~)/(1-q^n)^p~,
    the class of group i picks up (1 - K)^(removed positives), and the
    leftover groups are traced by the surface engine.  Words whose total
    weight is nonzero vanish after extracting the z^0 coefficient.

    Groups here are generalized partitions: parts are read as multisets and
    leftovers are kept in canonical (sorted) order.
    """
    return vertex_trace_sum([[(1, op)] for op in word], surface, order)


# -- Chern character operators (surface) ---------------------------------------


def chern_op(k, klass, surface, order):
    """Formal Heisenberg expansion of the k-th Chern character operator.

    Returns a list of (rational coefficient, DecoratedOp) over the partitions
    of 0 that `equiv_chern_op` lists; parts are bounded by the truncation
    order, which cannot affect coefficients up to q^order.
    Only k = 0 and k = 1 are available: the general expansion has universal
    constants that are not pinned down.
    """
    # The terms, one per mode up to the order, are listed before any series
    # exists: allocate one series first, so that an order too large for memory
    # fails at once with MemoryError, as z_series does.
    QSeries.one(order)
    if k not in (0, 1):
        raise ValueError("only k in {0, 1} is supported on a general surface")
    k_klass = surface.canonical() * klass if k else None
    terms = []
    # reversed, the pairs come in rising n, after the triples for k = 1; a pair
    # is a K-decorated term for k = 1, and the empty partition gives no term
    for parts in reversed(_zero_weight_partitions(k + 2, order)):
        if len(parts) == k + 2:
            terms.append((Fraction(-1, _symmetry_factorial(parts)), DecoratedOp(parts, klass)))
        elif parts and not k_klass.is_zero():
            terms.append((Fraction(1 - parts[1], 2), DecoratedOp(parts, k_klass)))
    return terms


# -- equivariant scalar setting -----------------------------------------------


class EquivTraceEngine:
    """Reduced scalar traces; words are flat tuples of nonzero parts.

    Letters of different modes commute, so a trace is a product over the
    modes n = |p|.  By the thermal Wick theorem a mode's trace sums, over the
    perfect matchings of its a_n with its a_-n, a product over the pairs:
    n/(1 - q^n) when a_n comes first, n q^n/(1 - q^n) when a_-n does.  With k
    pairs that is n^k P(q^n)/(1 - q^n)^k, P(x) counting the matchings by
    their pairs with a_-n first; a mode with no matching makes the trace zero.
    """

    def __init__(self, order):
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.order = order

    def trace(self, parts):
        """parts: the word's nonzero parts in operator order; a reduced QSeries."""
        order = self.order
        modes = {}
        for p in parts:
            modes.setdefault(abs(p), []).append(p)
        nums = [1] + [0] * order
        for n, letters in modes.items():
            if len(letters) == 2 and letters[0] == -letters[1]:
                # one pair: n/(1 - q^n) if its a_n comes first, else n q^n/(1 - q^n)
                base = nums if letters[0] > 0 else _shift(nums, n)
                nums = _divide([n * x for x in base], n, 1)
                continue
            # (pairs closed, of them with a_-n first) -> ways to read the letters so
            # far: a letter stays open or closes a pair with any open other kind
            ways, ann, cre = {(0, 0): 1}, 0, 0
            for p in letters:
                if p > 0:
                    other, ann = cre, ann + 1
                else:
                    other, cre = ann, cre + 1
                for (j, d), c in list(ways.items()):
                    if other > j:
                        key = j + 1, d + (p > 0)
                        ways[key] = ways.get(key, 0) + c * (other - j)
            if ann != cre:
                return QSeries.zero(order)
            # nums times n^k P(q^n), one shifted add per term, over (1 - q^n)^k
            out = [0] * (order + 1)
            for (j, d), c in ways.items():
                if j == ann:
                    out = list(map(add, out, [c * x for x in _shift(nums, n * d)]))
            nums = _divide([n ** ann * x for x in out], n, ann)
        return _series(order, None, _finish({(): (nums, 1)}))


def equiv_trace(parts, order):
    """Reduced Tr q^n of a product of scalar Heisenberg operators."""
    parts = tuple(parts)
    if any(p == 0 for p in parts):
        raise ValueError("parts must be nonzero integers")
    return EquivTraceEngine(order).trace(parts)


def _partition_table(order):
    """[partitions of n for n = 0..order], each in falling order, listed by
    falling first part, then likewise by the partition of n - p that follows p."""
    table = [[()]]
    for n in range(1, order + 1):
        table.append([(p,) + rest for p in range(n, 0, -1)
                      for rest in table[n - p] if not rest or rest[0] <= p])
    return table


def all_partition_states(order):
    """Every partition of size <= order, by rising size."""
    return list(chain.from_iterable(_partition_table(order)))


def fock_trace_bruteforce(parts, order):
    """Unreduced Tr q^n over the partition basis; the independent oracle.

    Basis states are ordinary partitions, written by their multiplicities m_n:
    a_{-n} adds a part n with coefficient 1 and a_n removes one with
    coefficient n*m_n.  The word applies right to left, and a state
    contributes q^size exactly when the deterministic walk returns to it.

    A letter a_{+-n} changes only m_n, so the basis is a tensor product over
    the part sizes and <lambda|W|lambda> = prod_n <m_n|W_n|m_n>, where W_n
    keeps the word's letters of size n in their order.  Each size n in the
    word is walked on its own from every m = 0..order//n, which gives
    sum_m <m|W_n|m> q^(nm).  Every other size is a spectator the word never
    changes: one coin-change table counts the partitions with no part in the
    word.  The trace is the truncated product of that table and the per-size
    sums.
    """
    parts = tuple(parts)
    if any(p == 0 for p in parts):
        raise ValueError("parts must be nonzero integers")
    if order < 0:
        raise ValueError("order must be nonnegative")
    modes = {}
    for p in reversed(parts):
        modes.setdefault(abs(p), []).append(p)
    coeffs = [1] + [0] * order
    for coin in range(1, order + 1):
        if coin not in modes:
            for r in range(coin, order + 1):
                coeffs[r] += coeffs[r - coin]
    for n, walk in modes.items():
        diagonal = [0] * (order + 1)
        for m in range(order // n + 1):
            current, factor = m, 1
            for p in walk:
                if p < 0:
                    current += 1
                elif current:
                    factor *= p * current
                    current -= 1
                else:
                    break
            else:
                if current == m:
                    diagonal[n * m] = factor
        coeffs = _conv(coeffs, diagonal, order)
    return _series(order, None, _finish({(): (coeffs, 1)}))


# -- equivariant Chern character operators -------------------------------------


def equiv_chern_coefficient(parts, k):
    """z^k coefficient attached to a_lambda in the equivariant expansion.

    For lambda with m_{-n} creations and m_n annihilations this is the
    z^d coefficient, d = k - length + 2, of
    prod g(nz)^{m_{-n}} * prod g(-nz)^{m_n} / (g(z) g(-z)),
    with g(w) = (e^w - 1)/w; the prefactor z^(length - 2) comes from each
    factor contributing one power of z against the double pole.  Since
    log g(w) = sum_m beta_m w^m with beta_1 = 1/2 and beta_m = B_m/(m m!),
    the series is exp(sum_m beta_m ((-1)^m P_m - 1 - (-1)^m) z^m), where P_m
    is the m-th power sum of the parts.
    """
    d = k - len(parts) + 2
    if d < 0:
        return ZERO
    b = _bernoulli_list(d) if d >= 2 else ()
    logs = [ZERO] + [
        (Fraction(1, 2) if m == 1 else b[m] / (m * factorial(m)))
        * ((-1) ** m * sum(p ** m for p in parts) - 1 - (-1) ** m)
        for m in range(1, d + 1)]
    # e_n = (1/n) sum_m m logs_m e_(n-m) for e = exp(sum_m logs_m z^m)
    coeffs = [ONE]
    for n in range(1, d + 1):
        coeffs.append(sum(m * logs[m] * coeffs[n - m] for m in range(1, n + 1)) / n)
    return coeffs[d]


def _zero_weight_partitions(max_length, bound):
    """Canonical generalized partitions of 0 with length <= max_length, parts <= bound,
    by length, then lexicographically; the last part is solved for."""
    out = [()]

    def extend(prefix, left, weight):
        # the `left` parts still to place lie in [last part, bound] and cancel weight
        lo = max(prefix[-1] if prefix else -bound, -weight - (left - 1) * bound)
        hi = -weight // left
        if left == 2:
            out.extend(prefix + (p, -weight - p) for p in range(lo, hi + 1) if p)
            return
        for p in range(lo, hi + 1):
            if p:
                extend(prefix + (p,), left - 1, weight + p)

    for length in range(2, max_length + 1):
        extend((), length, 0)
    return out


def equiv_chern_op(k, order):
    """Equivariant Chern character operator as [(coefficient, parts)].

    Coefficients fold in 1/lambda^!; parts tuples are canonical (sorted).
    """
    if k < 0:
        raise ValueError("the operator index must be nonnegative")
    out = []
    for parts in _zero_weight_partitions(k + 2, order):
        c = equiv_chern_coefficient(parts, k)
        if c:
            out.append((c / _symmetry_factorial(parts), parts))
    return out


# -- Gamma-conjugated traces ----------------------------------------------------


def gamma_trace_sum(m, expansions, order):
    """Sum of c_1...c_k gamma_trace(m, (p_1, ..., p_k)) over one term per expansion.

    m is an integer.  expansions: a list of expansions, each a list of
    (coefficient, parts tuple) as returned by `equiv_chern_op`, walked by
    `_contract_trace`.
    """
    if any(0 in parts for expansion in expansions for _, parts in expansion):
        raise ValueError("parts must be nonzero integers")
    engine = EquivTraceEngine(order)

    def contract(expansion):
        for coeff, parts in expansion:
            # the options' sign (-1)^npos times (-m)^ncount is (-1)^(ncount - npos) m^ncount
            for option in _group_removals(parts, order):
                removed = option[4]
                if m or not removed:
                    yield option[5], coeff * option[3] * (-m) ** len(removed), option

    return _contract_trace(expansions, order, contract,
                           lambda leftovers: engine.trace(sum(leftovers, ())))


def gamma_trace(m, word, order):
    """Reduced trace against the level-m pair of half vertex operators.

    word is a sequence of canonical part tuples (grouped, unnormalized).
    Expands Tr q^n Gamma_-(z)^m Gamma_+(z)^{-m} prod a_lambda by sub-group
    removals: positive parts removed into the Gammas weigh
    C(mult,p) q^(np)/(1-q^n)^p, negative parts (-1)^p~ C(mult~,p~)/(1-q^n)^p~,
    each removal carries a factor m, and the remainder traces are scalar.
    The result is divided by the empty-word value, so gamma_trace(m, ()) = 1.
    """
    return gamma_trace_sum(m, [[(1, tuple(sorted(p)))] for p in word], order)


# -- half vertex operator commutation, checked on the Fock basis ----------------
#
# States are partitions with parts in falling order.  A row lists an operator's
# image of one state as (state', degree, integer numerator).


def _gamma_minus_row(state, budget, table):
    """Gamma_-(1, y): add a multiset mu of parts, |mu| = a <= budget.

    The coefficient is y^a / z_mu with z_mu = prod n^k k!.  Since a!/z_mu is
    an integer (it counts the permutations of cycle type mu), the row holds
    a!/z_mu over the denominator a!, in rising a.  table is a
    `_partition_table` of order at least budget.
    """
    row = []
    for a in range(budget + 1):
        fa = factorial(a)
        for mu in table[a]:
            row.append((tuple(sorted(state + mu, reverse=True)), a,
                        fa // (prod(mu) * _symmetry_factorial(mu))))
    return row


def _gamma_plus_row(state, scale, bmax):
    """Gamma_+(scale, x): remove multisets of removed size b <= bmax.

    a_n removes a part n with factor -n*mult, so taking k of the m parts n
    gives (scale/n)^k/k! (-n)^k m!/(m-k)! = (-scale)^k C(m, k): the row's
    numerators are the coefficients of x^(-b) themselves.
    """
    row = [((), 0, 1)]
    for n, m in Counter(state).items():
        row = [(kept + (n,) * (m - k), b + n * k, c * (-scale) ** k * comb(m, k))
               for kept, b, c in row for k in range(m + 1) if b + n * k <= bmax]
    return [entry for entry in row if entry[2]]


def _gamma_minus_commute(states, minus):
    """[Gamma_-(x), Gamma_-(y)] = 0 on the states, from the Gamma_- rows in minus.

    A path state -> s1 -> s2 adds its first multiset in y and its second in
    x under Gamma_-(x) Gamma_-(y), and the reverse under Gamma_-(y)
    Gamma_-(x).  Keys are (state, y-degree, x-degree); y^a x^d carries
    1/(a! d!) on both sides.  The second side is the first with the degrees
    swapped, so the relation holds when the one table is symmetric under
    a <-> d.
    """
    for state in states:
        yx = {}
        for s1, a, n1 in minus[state]:
            for s2, d, n2 in minus[s1]:
                yx[s2, a, d] = yx.get((s2, a, d), 0) + n1 * n2
        if any(v != yx.get((s2, d, a), 0) for (s2, a, d), v in yx.items()):
            return False
    return True


def _gamma_plus_minus_commute(pairing, states, minus, plus, window):
    """Gamma_+(c, x) Gamma_-(1, y) = (1 - y/x)^c Gamma_-(1, y) Gamma_+(c, x) on the
    states, c = pairing, from the Gamma_- rows in minus and the Gamma_+(c) rows
    in plus, for the monomials y^a x^(-b) with a, b <= window."""
    # prefactor (1 - y/x)^c truncated in powers of y/x
    if pairing >= 0:
        pref = [(-1) ** j * comb(pairing, j) for j in range(pairing + 1)]
    else:
        pref = [comb(-pairing + j - 1, j) for j in range(window + 1)]

    # compared as a! times the coefficient of y^a x^(-b); the prefactor's y^j
    # scales a term of the right side by a!/(a-j)!.  Degrees only grow along a
    # path, so a path stops once it leaves the window (Gamma_- rows rise in a).
    for state in states:
        diff = {}  # left side minus right side
        for s1, a, n1 in minus[state]:
            if a > window:
                break
            for s2, b, n2 in plus[s1]:
                diff[s2, a, b] = diff.get((s2, a, b), 0) + n1 * n2
        for s1, b, n1 in plus[state]:
            for s2, a, n2 in minus[s1]:
                if a > window:
                    break
                for j, pc in enumerate(pref):
                    if a + j > window or b + j > window:
                        break
                    key = s2, a + j, b + j
                    diff[key] = diff.get(key, 0) - n1 * n2 * pc * perm(a + j, j)
        if any(diff.values()):
            return False
    return True


def _gamma_commutation(order, window, pairings):
    """One verdict of `gamma_commutation_check` per pairing, on shared Gamma_- rows.

    The operators run on states graded up to order + window, so that every
    path contributing to a monomial compared within the window is complete.
    Gamma_- reaches every such state from the empty one, so each state's rows
    are built once, up front: its Gamma_-(1, y) row, which does not depend on
    the pairing and serves one [Gamma_-, Gamma_-] pass, then its Gamma_+ row
    per pairing.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if window < 1:
        raise ValueError("window must be at least 1")
    cap = order + window
    table = _partition_table(cap)
    everything = list(chain.from_iterable(table))
    states = list(chain.from_iterable(table[:order + 1]))
    minus = {state: _gamma_minus_row(state, cap - sum(state), table) for state in everything}
    if not _gamma_minus_commute(states, minus):
        return [False] * len(pairings)
    return [_gamma_plus_minus_commute(
        pairing, states, minus,
        {state: _gamma_plus_row(state, pairing, window) for state in everything}, window)
        for pairing in pairings]


def gamma_commutation_check(pairing, order, window=6):
    """Verify the half-vertex commutation relations on the truncated Fock basis.

    Checks [Gamma_-(x), Gamma_-(y)] = 0 and
    Gamma_+(c, x) Gamma_-(c', y) = (1 - y/x)^(c c') Gamma_-(c', y) Gamma_+(c, x)
    entrywise, with the pairing c*c' = `pairing` realized by scalar weights
    (c, c') = (pairing, 1); monomials y^a x^(-b) are compared for a, b <= window.
    Uses the surface sign convention, under which the exponent is +pairing.
    Both sides of each relation carry the same factorial denominators per
    monomial, so only integer numerators are compared.  The first relation
    does not depend on the pairing: a caller checking several pairings asks
    `_gamma_commutation` for all of them at once.
    """
    return _gamma_commutation(order, window, (pairing,))[0]
