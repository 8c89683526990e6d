"""q-zeta series families and a generic evaluator for nested Lambert-type sums.

Two series families are generated from one chain evaluator: divisor-sum
brackets [s1,...,sl] (numerator polynomials t*P_{s-1}(t)/(s-1)! built from
Eulerian polynomials) and the multiple q-zeta values Z(s1,...,sl) (half-power
numerators t^(s/2), resp. t^((s-1)/2)(t+1) for odd s).  The nested-sum
evaluator services every displayed multi-sum: free indices, strict chains,
and an equal-sum constraint between two index groups, each kept as a table
of per-level bound forms.  Eulerian and
Bernoulli numbers come from their recurrences, built per call.
"""
from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import add, mul

from .ring import ONE, ZERO, QSeries, _divide, as_fraction

# -- Eulerian polynomials and numerator families ---------------------------


def eulerian(s):
    """Coefficients of t*P_{s-1}(t): 0, then row s-1 of the Eulerian triangle.

    The rows come from A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1), with
    A(0, 0) = 1; they satisfy t*P_{s-1}(t) = (1-t)^s * sum_{d>=1} d^(s-1) t^d.
    """
    if s < 1:
        raise ValueError("index must be a positive integer")
    return (ZERO,) + tuple(map(Fraction, _eulerian_row(s, s)))


def _eulerian_row(s, width):
    """A(s-1, k) for k < width; each entry needs only the entries k < width before it."""
    row = [1]
    for n in range(1, s):
        prev = row + [0]  # prev[-1] = 0 stands for A(n-1, -1)
        row = [(k + 1) * prev[k] + (n - k) * prev[k - 1] for k in range(min(n, width))]
    return row


def _bracket_numerator(s, order):
    """t*P_{s-1}(t)/(s-1)! through t^(order+1); starts at t^1."""
    f = Fraction(1, factorial(s - 1))
    return (ZERO,) + tuple(c * f for c in _eulerian_row(s, order + 1))


def _zeta_numerator(s):
    """t^(s/2) for even s, t^((s-1)/2)*(t+1) for odd s >= 3."""
    if s < 2:
        raise ValueError("multiple q-zeta indices must be >= 2")
    if s % 2 == 0:
        return (ZERO,) * (s // 2) + (ONE,)
    h = (s - 1) // 2
    return (ZERO,) * h + (ONE, ONE)


def _zq_series(numerators, indices, order):
    """sum over chains n_1 > ... > n_l >= 1 of prod numerator_i(q^{n_i})/(1-q^{n_i})^{s_i}.

    One pass over b = 1, 2, ...: with T_i(b) the sum over the chains
    b > n_i > ... > n_l, T_i(b+1) = T_i(b) + f_i(b) T_{i+1}(b) and
    T_{l+1} = 1.  T_i is a numerator list over the product of the
    denominators of numerators i.., and each step is cut at the degree the
    positions before i still leave (n_j >= b + i - j for j < i).
    """
    polys, den = [], 1
    for s in indices:
        poly = numerators(s)
        d = lcm(*(c.denominator for c in poly))
        polys.append([(j, c.numerator * (d // c.denominator))
                      for j, c in enumerate(poly) if c])
        den *= d
    vals = [poly[0][0] for poly in polys]
    ell = len(indices)
    sums = [[0] * (order + 1) for _ in range(ell)] + [[1] + [0] * order]
    for b in range(1, order + 1):
        for i in range(ell):
            top = order - sum(vals[j] * (b + i - j) for j in range(i))
            m = top - vals[i] * b
            if m < 0:
                break
            if b < ell - i:
                continue  # no chain of positions i+1.. below b
            y = _divide(sums[i + 1][: m + 1], b, indices[i])
            row = sums[i]
            for j, c in polys[i]:
                lo = j * b
                if lo > top:
                    break
                part = y[: top - lo + 1]
                row[lo: top + 1] = map(add, row[lo: top + 1],
                                       part if c == 1 else [c * x for x in part])
    return QSeries.from_numerators(sums[0], den, order)


def bracket(indices, order):
    """The divisor-sum bracket [s1,...,sl] to the given order; all s_i >= 1."""
    indices = tuple(indices)
    if any((not isinstance(s, int)) or s < 1 for s in indices):
        raise ValueError("bracket indices must be integers >= 1")
    return _zq_series(lambda s: _bracket_numerator(s, order), indices, order)


def z_series(indices, order):
    """The multiple q-zeta value Z(s1,...,sl) to the given order; all s_i >= 2."""
    indices = tuple(indices)
    if any((not isinstance(s, int)) or s < 2 for s in indices):
        raise ValueError("multiple q-zeta indices must be >= 2")
    return _zq_series(_zeta_numerator, indices, order)


# -- Bernoulli numbers and Eisenstein series --------------------------------


def _bernoulli_list(n):
    """B_0..B_n from sum_{j<=m} C(m+1, j) B_j = 0 for m >= 1."""
    out = [ONE]
    for m in range(1, n + 1):
        # B_j = 0 for odd j >= 3: those entries are set, not summed, and their terms skipped
        out.append(ZERO if m > 1 and m % 2 else -sum(
            comb(m + 1, j) * out[j] for j in range(m) if j < 2 or j % 2 == 0) / (m + 1))
    return out


def bernoulli(i):
    """B_i with the t/(e^t - 1) convention: B_0 = 1, B_1 = -1/2."""
    if i < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    return _bernoulli_list(i)[i]


def eisenstein(weight, order):
    """Weight-2k Eisenstein series G_2k(q) with exact rational normalization.

    Constant term -B_2k/(4k*(2k-1)!); the q^n coefficient is
    sigma_{2k-1}(n)/(2k-1)!.  Every coefficient is an integer over
    (2k-1)! times the denominator of -B_2k/(4k).
    """
    if weight < 2 or weight % 2:
        raise ValueError("Eisenstein weight must be a positive even integer")
    const = -bernoulli(weight) / (2 * weight)
    sigma = [const.numerator] + [0] * order
    for d in range(1, order + 1):
        dd = d ** (weight - 1) * const.denominator
        for n in range(d, order + 1, d):
            sigma[n] += dd
    return QSeries.from_numerators(sigma, factorial(weight - 1) * const.denominator, order)


# -- generic nested sums ----------------------------------------------------


class LinearForm:
    """Integer linear form c . n + const over the sum's index tuple."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs, const=0):
        self.coeffs = tuple(int(c) for c in coeffs)
        self.const = int(const)

    def __call__(self, values):
        return sum(map(mul, self.coeffs, values)) + self.const

    def support(self):
        return [i for i, c in enumerate(self.coeffs) if c]

    def __repr__(self):
        return f"LinearForm({self.coeffs}, {self.const})"


class IndexPoly:
    """Polynomial in the summation indices with Fraction coefficients.

    It is evaluated as integer coefficients over one denominator, den.
    """

    __slots__ = ("terms", "den", "_ints")

    def __init__(self, terms):
        # terms: iterable of (coeff, exponent tuple)
        self.terms = tuple((as_fraction(c), tuple(e)) for c, e in terms)
        self.den = lcm(*(c.denominator for c, _ in self.terms))
        self._ints = [(c.numerator * (self.den // c.denominator), e) for c, e in self.terms]

    def numerator(self, values):
        """den times the value: an integer at integer values."""
        return sum(c * prod(x ** e for x, e in zip(values, exps) if e)
                   for c, exps in self._ints)

    def __call__(self, values):
        return Fraction(self.numerator(values), self.den)

    def support(self):
        out = set()
        for _, exps in self.terms:
            out.update(i for i, e in enumerate(exps) if e)
        return sorted(out)


class SumFactor:
    """One Lambert-type factor: poly(n) * q^num(n) * P(t) / (1 - t)^power, t = q^den(n).

    numer holds the integer coefficients of P, constant term first.  That
    term is nonzero, so num(n) stays the factor's least q-exponent.
    """

    __slots__ = ("poly", "num", "den", "power", "numer")

    def __init__(self, num, den, power=1, poly=None, numer=(1,)):
        self.num = num
        self.den = den
        self.power = int(power)
        self.poly = poly
        self.numer = tuple(numer)
        if self.power < 1:
            raise ValueError("denominator power must be positive")
        if not (self.numer and all(isinstance(c, int) for c in self.numer) and self.numer[0]):
            raise ValueError("numerator polynomial needs integer coefficients "
                             "and a nonzero constant term")

    def support(self):
        out = set(self.num.support()) | set(self.den.support())
        if self.poly is not None:
            out.update(self.poly.support())
        return out


class SumTerm:
    """A scaled product of factors; a named sum may combine several."""

    __slots__ = ("scale", "factors")

    def __init__(self, factors, scale=ONE):
        self.factors = tuple(factors)
        self.scale = as_fraction(scale)


class NestedSumSpec:
    """A multi-index Lambert-type sum: scale times the sum of its SumTerms.

    Each term is a scaled product of SumFactors, and a factor carries its own
    numerator polynomial P, so a displayed numerator (1 + q^m) over the pole
    (1 - q^m) is one factor of one term.  constraint is one of:
      "free"                      -- all indices independent, >= 1
      "chain"                     -- n_0 > n_1 > ... > n_{k-1} >= 1
      ("equal_sum", A, B)         -- indices >= 1 with sum over A == sum over B
    The spec keeps it as levels, one (index, lower, upper) per level in the
    order the levels fix indices: LinearForms over the indices fixed earlier,
    upper None where only the q-order bounds the index.  The termination
    check and the evaluator both read this table.
    """

    def __init__(self, nindices, constraint, terms, scale=ONE):
        self.nindices = k = int(nindices)
        self.constraint = constraint
        self.terms = tuple(terms)
        self.scale = as_fraction(scale)
        if k < 1:
            raise ValueError("a nested sum needs at least one index")
        self.levels = _bound_levels(k, constraint)
        for term in self.terms:
            for f in term.factors:
                if {len(f.num.coeffs), len(f.den.coeffs)} | {
                        len(e) for _, e in (f.poly.terms if f.poly else ())} != {k}:
                    raise ValueError(f"factor forms and polynomials must read {k} indices")
            total = self._total_exponent(term)
            if any(c < 0 for c in total.coeffs):
                raise ValueError("total numerator exponent must have nonnegative coefficients")
            # bounded by the q-order, or by an upper form over bounded indices
            bounded = set()
            for idx, _, upper in self.levels:
                if total.coeffs[idx] > 0 or upper and set(upper.support()) <= bounded:
                    bounded.add(idx)
            if len(bounded) < k:
                raise ValueError("nested sum does not terminate: "
                                 f"index {min(set(range(k)) - bounded)} is unbounded")

    def _total_exponent(self, term):
        nums = [f.num for f in term.factors]
        return LinearForm([sum(f.coeffs[i] for f in nums) for i in range(self.nindices)],
                          sum(f.const for f in nums))


def _bound_levels(k, constraint):
    """The levels of a constraint over k indices, each (index, lower, upper).

    A chain index stays below the one before it and leaves room for the ones
    after it.  An equal-sum B index takes at most the rest R of the A sum
    less the earlier B indices and 1 per later B index; the last takes R.
    """
    def form(const, plus=(), minus=()):
        return LinearForm([(i in plus) - (i in minus) for i in range(k)], const)

    if constraint == "free":
        return [(i, form(1), None) for i in range(k)]
    if constraint == "chain":
        return [(i, form(k - i), form(-1, (i - 1,)) if i else None) for i in range(k)]
    if not (isinstance(constraint, tuple) and len(constraint) == 3
            and constraint[0] == "equal_sum"):
        raise ValueError(f"unknown constraint {constraint!r}")
    group_a, group_b = list(constraint[1]), list(constraint[2])
    if sorted(group_a + group_b) != list(range(k)) or not (group_a and group_b):
        raise ValueError("equal_sum groups must partition the index set, neither empty")
    levels = [(i, form(1), None) for i in group_a]
    for j, i in enumerate(group_b):
        rest = form(j + 1 - len(group_b), group_a, group_b[:j])
        levels.append((i, rest if j == len(group_b) - 1 else form(1), rest))
    return levels


def _eval_term(spec, term, order):
    """Numerators (over the returned denominator) of one term, to the given order.

    Levels fix indices in the order of spec.levels, and the level that fixes
    n pays the shift n times its coefficient in the term's total numerator
    form (the first level also pays the constant).  Level d runs n from its
    lower form (at least 1) to its upper form and to the last n whose shift
    still fits.  subtree(d, budget) is the sum over the indices of levels d..
    of those shifts and of the factors completed there, up to degree budget:
    the order less the shifts paid above.  Its value only depends on what the
    remaining pole forms, bound forms and polynomials read of the fixed
    values, so the memo is keyed by that and reused when its precision covers
    the request: a pole that reads i and j only through i + j is keyed by the
    sum, and equal-sum splittings collapse to one evaluation per shared sum.
    """
    k = spec.nindices
    total = spec._total_exponent(term)
    level_order = [idx for idx, _, _ in spec.levels]

    # factors become "complete" at the level where their last index is fixed
    completes = [[] for _ in range(k)]
    for f in term.factors:
        sup = f.support()
        completes[max(map(level_order.index, sup)) if sup else 0].append(f)

    # what each level's subtree reads of the indices fixed above it: the
    # fixed part of every bound form at that level or below and of every
    # pole form completed there or below, the value of every index
    # polynomial whose indices are all fixed, and the fixed indices of the
    # other polynomials
    reads = []
    for d in range(k):
        fixed = set(level_order[:d])
        forms = [b for _, lower, upper in spec.levels[d:] for b in (lower, upper) if b]
        forms += [f.den for fs in completes[d:] for f in fs]
        parts = dict.fromkeys(tuple((i, c) for i, c in enumerate(form.coeffs)
                                    if c and i in fixed) for form in forms)
        polys, raw = [], set()
        for f in (f for fs in completes[d:] for f in fs if f.poly is not None):
            sup = set(f.poly.support())
            if sup <= fixed:
                polys.append(f.poly)
            else:
                raw |= sup & fixed
        reads.append(([part for part in parts if part], polys, sorted(raw)))
    # least shift still to pay below level d: each later index is >= 1
    floor = [sum(total.coeffs[i] for i in level_order[d + 1:]) for d in range(k)]
    floor[0] += total.const

    memo = {}
    values = [0] * k

    def subtree(d, budget):
        if d == k:
            return [1] + [0] * budget
        forms, polys, raw = reads[d]
        key = (d, tuple(sum(c * values[i] for i, c in part) for part in forms),
               tuple(p.numerator(values) for p in polys),
               tuple(values[i] for i in raw))
        hit = memo.get(key)
        if hit is not None and len(hit) > budget:
            return hit

        acc = [0] * (budget + 1)
        idx, lower, upper = spec.levels[d]
        c_idx = total.coeffs[idx]
        # the termination check leaves every level an upper form or a shift
        top = [] if upper is None else [upper(values)]
        if c_idx:
            top.append((budget - floor[d]) // c_idx)
        for n in range(max(lower(values), 1), min(top) + 1):
            values[idx] = n
            shift, scalar, poles = c_idx * n + (total.const if d == 0 else 0), 1, []
            for f in completes[d]:
                pole = f.den(values)
                if pole <= 0:
                    raise ValueError("denominator form must be positive on the index cone")
                if f.num(values) < 0:
                    raise ValueError("numerator form must be nonnegative on the index cone")
                poles.append((pole, f.power, f.numer))
                if f.poly is not None:
                    scalar *= f.poly.numerator(values)
            if shift > budget or not scalar:
                continue
            # a negative constant can make the first shift negative; the
            # total exponent is not, so the degrees below -shift are zero
            y = subtree(d + 1, budget - shift)[max(-shift, 0): budget - shift + 1]
            for pole, power, numer in poles:
                _divide(y, pole, power)
                if len(numer) > 1:
                    # times P(q^pole): one shifted add of the quotient per further term
                    quot = y
                    y = [numer[0] * x for x in quot] if numer[0] != 1 else quot[:]
                    for j, c in enumerate(numer[1:], 1):
                        if c:
                            y[j * pole:] = map(add, y[j * pole:],
                                               quot if c == 1 else [c * x for x in quot])
            lo = max(shift, 0)
            acc[lo:] = map(add, acc[lo:], y if scalar == 1 else [scalar * x for x in y])
        values[idx] = 0
        memo[key] = acc
        return acc

    return subtree(0, order), prod(f.poly.den for f in term.factors if f.poly is not None)


def eval_nested_sum(spec, order):
    """Exact truncated value of the sum over all admissible index tuples."""
    out = QSeries.zero(order)
    for term in spec.terms:
        nums, den = _eval_term(spec, term, order)
        scale = term.scale * spec.scale
        out = out + QSeries.from_numerators(
            [x * scale.numerator for x in nums], den * scale.denominator, order)
    return out


# -- named catalog ----------------------------------------------------------


def _lf(coeffs, const=0):
    return LinearForm(coeffs, const)


def _build_catalog():
    """Named catalog for the displayed multi-sums: name -> list of NestedSumSpec.

    A named sum is the sum of its specs.  h11_0 / h11_2 / h11_4 are the three
    components of the equivariant two-point function; thm_sum1..3 are the
    explicit sums multiplying the canonical-divisor square in the surface
    two-point theorem.  Each displayed numerator (1 + q^m) is one factor's
    P(t) = 1 + t over its pole (1 - q^m), so each displayed summand is one
    term.
    """
    catalog = {}
    plus = (1, 1)  # P(t) = 1 + t

    # h11_0 = sum_{i,j>0} ij(i+j) q^(i+j) / ((1-q^i)(1-q^j)(1-q^(i+j)))
    catalog["h11_0"] = [NestedSumSpec(
        2, "free",
        [SumTerm([
            SumFactor(_lf([1, 1]), _lf([1, 0]),
                      poly=IndexPoly([(1, (2, 1)), (1, (1, 2))])),
            SumFactor(_lf([0, 0]), _lf([0, 1])),
            SumFactor(_lf([0, 0]), _lf([1, 1])),
        ])])]

    # h11_2 = -sum j(i+j)(q^(i+j)+q^(2i+j)) / ((1-q^i)^2 (1-q^j)(1-q^(i+j)))
    #         - (1/2) sum ij (q^(i+j)+q^(2i+2j)) / ((1-q^i)(1-q^j)(1-q^(i+j))^2)
    catalog["h11_2"] = [NestedSumSpec(
        2, "free",
        [
            SumTerm([SumFactor(_lf([1, 1]), _lf([1, 0]), 2, numer=plus,
                               poly=IndexPoly([(1, (1, 1)), (1, (0, 2))])),
                     SumFactor(_lf([0, 0]), _lf([0, 1])),
                     SumFactor(_lf([0, 0]), _lf([1, 1]))], scale=-1),
            SumTerm([SumFactor(_lf([1, 1]), _lf([1, 0]), poly=IndexPoly([(1, (1, 1))])),
                     SumFactor(_lf([0, 0]), _lf([0, 1])),
                     SumFactor(_lf([0, 0]), _lf([1, 1]), 2, numer=plus)],
                    scale=Fraction(-1, 2)),
        ])]

    # h11_4: (1/4) sum_{i+j=k+l} (i+j) q^(i+j)(1+q^(i+j)) / (...)
    #        - sum_{i,j,k} (i+j) q^(i+j+k)(1+q^(i+j)) / (...)
    #        + sum_{i,j,k} k q^(i+j+k)(1+q^k) / (...)
    catalog["h11_4"] = [
        NestedSumSpec(4, ("equal_sum", (0, 1), (2, 3)), [
            SumTerm([SumFactor(_lf([1, 1, 0, 0]), _lf([1, 1, 0, 0]), numer=plus,
                               poly=IndexPoly([(1, (1, 0, 0, 0)), (1, (0, 1, 0, 0))])),
                     SumFactor(_lf([0, 0, 0, 0]), _lf([1, 0, 0, 0])),
                     SumFactor(_lf([0, 0, 0, 0]), _lf([0, 1, 0, 0])),
                     SumFactor(_lf([0, 0, 0, 0]), _lf([0, 0, 1, 0])),
                     SumFactor(_lf([0, 0, 0, 0]), _lf([0, 0, 0, 1]))],
                    scale=Fraction(1, 4)),
        ]),
        NestedSumSpec(3, "free", [
            SumTerm([SumFactor(_lf([1, 1, 1]), _lf([1, 1, 0]), numer=plus,
                               poly=IndexPoly([(1, (1, 0, 0)), (1, (0, 1, 0))])),
                     SumFactor(_lf([0, 0, 0]), _lf([1, 0, 0])),
                     SumFactor(_lf([0, 0, 0]), _lf([0, 1, 0])),
                     SumFactor(_lf([0, 0, 0]), _lf([0, 0, 1])),
                     SumFactor(_lf([0, 0, 0]), _lf([1, 1, 1]))], scale=-1),
        ]),
        # indexed (k, i, j), so that the subtrees below k are keyed by k alone
        NestedSumSpec(3, "free", [
            SumTerm([SumFactor(_lf([1, 1, 1]), _lf([1, 0, 0]), numer=plus,
                               poly=IndexPoly([(1, (1, 0, 0))])),
                     SumFactor(_lf([0, 0, 0]), _lf([0, 1, 0])),
                     SumFactor(_lf([0, 0, 0]), _lf([0, 0, 1])),
                     SumFactor(_lf([0, 0, 0]), _lf([1, 1, 0])),
                     SumFactor(_lf([0, 0, 0]), _lf([1, 0, 1]))]),
        ]),
    ]

    # thm_sum1 = sum_{n>m>0} q^n(1+q^n)/(1-q^n)^3 * (n - nm + m^2)/(1-q^m)
    catalog["thm_sum1"] = [NestedSumSpec(
        2, "chain",
        [SumTerm([SumFactor(_lf([1, 0]), _lf([1, 0]), 3, numer=plus,
                            poly=IndexPoly([(1, (1, 0)), (-1, (1, 1)), (1, (0, 2))])),
                  SumFactor(_lf([0, 0]), _lf([0, 1]))])])]

    # thm_sum2 = 2 sum_{n>m>l>0} n q^n(1+q^n)/(1-q^n)^3 / ((1-q^m)(1-q^l))
    catalog["thm_sum2"] = [NestedSumSpec(
        3, "chain",
        [SumTerm([SumFactor(_lf([1, 0, 0]), _lf([1, 0, 0]), 3, numer=plus,
                            poly=IndexPoly([(1, (1, 0, 0))])),
                  SumFactor(_lf([0, 0, 0]), _lf([0, 1, 0])),
                  SumFactor(_lf([0, 0, 0]), _lf([0, 0, 1]))], scale=2)])]

    # thm_sum3 = 2 sum_{n>m>l>0} q^n/(1-q^n)^2 * m q^m/(1-q^m)^2 / (1-q^l)
    catalog["thm_sum3"] = [NestedSumSpec(
        3, "chain",
        [SumTerm([SumFactor(_lf([1, 0, 0]), _lf([1, 0, 0]), 2),
                  SumFactor(_lf([0, 1, 0]), _lf([0, 1, 0]), 2,
                            poly=IndexPoly([(1, (0, 1, 0))])),
                  SumFactor(_lf([0, 0, 0]), _lf([0, 0, 1]))], scale=2)])]

    return catalog


_CATALOG = _build_catalog()


def builtin_sums():
    """The named catalog: a fresh dict of name -> list of NestedSumSpec."""
    return {name: list(specs) for name, specs in _CATALOG.items()}


def eval_named(name, order):
    """Evaluate a catalog sum by key: the sum of its specs."""
    specs = _CATALOG.get(name)
    if specs is None:
        raise KeyError(f"unknown named sum {name!r}; known: {sorted(_CATALOG)}")
    out = QSeries.zero(order)
    for spec in specs:
        out = out + eval_nested_sum(spec, order)
    return out
