"""Exact coefficient arithmetic: rationals, multivariate polynomials, truncated q-series.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd
from operator import add

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(x):
    """Coerce an int or Fraction to Fraction; reject floats (exactness contract)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _grlex_key(exps):
    return (sum(exps), tuple(-e for e in exps))


class MPolyRing:
    """Polynomial ring over Q in a fixed ordered tuple of symbol names.

    Monomials are exponent vectors of the declared arity; printing and
    serialization use graded lexicographic order so output is deterministic.
    """

    def __init__(self, symbols):
        self.symbols = tuple(symbols)
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbol names")
        self.arity = len(self.symbols)
        self._zero_exps = (0,) * self.arity
        self.zero = MPoly(self, {})
        self.one = MPoly(self, {self._zero_exps: ONE})

    def gen(self, name):
        i = self.symbols.index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.arity))
        return MPoly(self, {exps: ONE})

    def const(self, c):
        c = as_fraction(c)
        return MPoly(self, {self._zero_exps: c} if c else {})

    def coerce(self, x):
        if isinstance(x, MPoly):
            if x.ring is not self:
                raise ValueError("mismatched polynomial rings")
            return x
        return self.const(x)

    def monomial(self, exps, coeff=ONE):
        exps = tuple(exps)
        if len(exps) != self.arity:
            raise ValueError("exponent vector has wrong arity")
        coeff = as_fraction(coeff)
        return MPoly(self, {exps: coeff} if coeff else {})

    def __repr__(self):
        return f"MPolyRing({', '.join(self.symbols)})"

    def __eq__(self, other):
        return isinstance(other, MPolyRing) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)


class MPoly:
    """Multivariate polynomial with Fraction coefficients; no zero terms stored."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}
        self._hash = None

    def is_zero(self):
        return not self.terms

    def constant_value(self):
        """The rational value, if the polynomial is constant; None otherwise."""
        if not self.terms:
            return ZERO
        if len(self.terms) == 1 and self.ring._zero_exps in self.terms:
            return self.terms[self.ring._zero_exps]
        return None

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.ring != self.ring:
                raise ValueError("mismatched polynomial rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, ZERO) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return MPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if not c:
                return self.ring.zero
            return MPoly(self.ring, {e: k * c for e, k in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, assignment):
        """Exact evaluation given symbol -> rational; every used symbol must be set."""
        values = []
        for name in self.ring.symbols:
            values.append(as_fraction(assignment[name]) if name in assignment else None)
        total = ZERO
        for exps, coeff in self.terms.items():
            v = coeff
            for name, x, e in zip(self.ring.symbols, values, exps):
                if e:
                    if x is None:
                        raise KeyError(f"missing symbol in assignment: {name}")
                    v *= x ** e
            total += v
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def key(self):
        """Hashable canonical form (used for memoization keys)."""
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.constant_value() == other
        return (isinstance(other, MPoly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.symbols, self.key()))
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"{s}^{e}" if e > 1 else s
                for s, e in zip(self.ring.symbols, exps) if e
            )
            if mono:
                bits.append(f"{coeff}*{mono}" if coeff != 1 else mono)
            else:
                bits.append(str(coeff))
        return " + ".join(bits).replace("+ -", "- ")


# -- integer slices ---------------------------------------------------------
#
# A series is stored as slices: a map from symbol exponent vector to integer
# numerators over one positive denominator, (nums, den), meaning the series
# sum_n nums[n]/den q^n times that monomial.  A rational series is the single
# slice at the empty exponent vector ().  A stored slice is canonical: some
# numerator is nonzero and gcd(nums..., den) == 1; zero slices are dropped.
# Numerator lists are shared between series and never mutated.


def _canon(nums, den):
    """The canonical form of the slice nums/den, or None if it is zero."""
    g = gcd(*nums)
    if not g:
        return None
    if den != 1:
        g = gcd(g, den)
        if g != 1:
            return [x // g for x in nums], den // g
    return nums, den


def _add_into(acc, exps, nums, den):
    """acc[exps] += nums/den, over the lcm of the denominators, unreduced.

    zip truncates to the shorter list, so a sum takes the lower order.
    """
    got = acc.get(exps)
    if got is None:
        acc[exps] = (nums, den)
        return
    a, d = got
    if d == den:
        acc[exps] = ([x + y for x, y in zip(a, nums)], d)
    else:
        lcm = d // gcd(d, den) * den
        fa, fb = lcm // d, lcm // den
        acc[exps] = ([x * fa + y * fb for x, y in zip(a, nums)], lcm)


def _finish(acc):
    """Canonical slices of an accumulator, zero slices dropped."""
    out = {}
    for exps, (nums, den) in acc.items():
        s = _canon(nums, den)
        if s is not None:
            out[exps] = s
    return out


def _conv(a, b, n):
    """The integer convolution of two numerator lists, truncated at degree n."""
    out = [0] * (n + 1)
    bs = [(j, y) for j, y in enumerate(b[: n + 1]) if y]
    for i, x in enumerate(a[: n + 1]):
        if x:
            room = n - i
            for j, y in bs:
                if j > room:
                    break
                out[i + j] += x * y
    return out


def _divide(nums, n, p):
    """nums / (1 - q^n)^p in place, truncated at len(nums): p strided running sums.

    Each pass takes min(n, len/n) slice operations: one running sum per
    residue class mod n, or one add of each block of n into the next.
    """
    size = len(nums)
    for _ in range(p):
        if n * n < size:
            for r in range(n):
                nums[r::n] = accumulate(nums[r::n])
        else:
            for lo in range(n, size, n):
                nums[lo: lo + n] = map(add, nums[lo: lo + n], nums[lo - n: lo])
    return nums


def _shift(nums, n):
    """A new list: q^n nums, truncated at len(nums)."""
    size = len(nums)
    if n >= size:
        return [0] * size
    return [0] * n + nums[: size - n]


def _inverse(nums, den, n):
    """The canonical slice den/F to degree n, F the integer series nums, F_0 != 0.

    Integer long division: with c = F_0, the integers G_k = c^(k+1) [q^k] 1/F
    satisfy G_0 = 1 and G_k = -sum_{j=1..k} F_j G_(k-j) c^(j-1).
    """
    c = nums[0]
    fs = [(j, x) for j, x in enumerate(nums[1: n + 1], 1) if x]
    powers = [1]
    for _ in range(n):
        powers.append(powers[-1] * c)
    g = [1] + [0] * n
    for k in range(1, n + 1):
        s = 0
        for j, x in fs:
            if j > k:
                break
            s += x * g[k - j] * powers[j - 1]
        g[k] = -s
    top = powers[n] * c
    sign = -1 if top < 0 else 1
    return _canon([sign * den * g[k] * powers[n - k] for k in range(n + 1)], sign * top)


def _zero_exps(ring):
    return () if ring is None else ring._zero_exps


def _series(order, ring, slices):
    """A series from canonical slices; the kernel's constructor, no coercion."""
    s = object.__new__(QSeries)
    s.order = order
    s.ring = ring
    s._slices = slices
    s._coeffs = None
    return s


def _product(a, b):
    """a * b: one convolution per pair of slices."""
    n = min(a.order, b.order)
    acc = {}
    for e1, (x, dx) in a._slices.items():
        for e2, (y, dy) in b._slices.items():
            _add_into(acc, tuple(map(add, e1, e2)), _conv(x, y, n), dx * dy)
    return _series(n, a.ring, _finish(acc))


class QSeries:
    """Truncated formal power series in q.

    Coefficients live in an exact commutative ring: Fraction (ring is None)
    or an MPolyRing.  Arithmetic between series of different orders truncates
    to the minimum order.  The series is stored as integer slices (see above);
    `coeffs` is a tuple of Fraction or MPoly coefficients, built on first
    read.
    """

    __slots__ = ("order", "ring", "_slices", "_coeffs")

    def __init__(self, coeffs, order=None, ring=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        by_exps = {}  # exponent vector -> {degree: Fraction}
        for n, c in enumerate(coeffs[: order + 1]):
            if ring is None:
                c = as_fraction(c)
                if c:
                    by_exps.setdefault((), {})[n] = c
            else:
                for exps, v in ring.coerce(c).terms.items():
                    by_exps.setdefault(exps, {})[n] = v
        slices = {}
        for exps, entries in by_exps.items():
            den = 1
            for v in entries.values():
                den = den // gcd(den, v.denominator) * v.denominator
            nums = [0] * (order + 1)
            for n, v in entries.items():
                nums[n] = v.numerator * (den // v.denominator)
            slices[exps] = (nums, den)
        self.order = order
        self.ring = ring
        self._slices = slices
        self._coeffs = None

    @property
    def coeffs(self):
        """The coefficients q^0..q^order, as Fraction or MPoly."""
        if self._coeffs is None:
            n = self.order + 1
            if self.ring is None:
                s = self._slices.get(())
                view = (ZERO,) * n if s is None else tuple(Fraction(x, s[1]) for x in s[0])
            else:
                terms = [{} for _ in range(n)]
                for exps, (nums, den) in self._slices.items():
                    for k, x in enumerate(nums):
                        if x:
                            terms[k][exps] = Fraction(x, den)
                view = tuple(MPoly(self.ring, t) for t in terms)
            self._coeffs = view
        return self._coeffs

    def by_monomial(self):
        """{exponent vector: rational QSeries} of the nonzero slices, sorted by key."""
        return {exps: _series(self.order, None, {(): s})
                for exps, s in sorted(self._slices.items())}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(order, ring=None):
        if order < 0:
            raise ValueError("order must be nonnegative")
        return _series(order, ring, {})

    @staticmethod
    def one(order, ring=None):
        if order < 0:
            raise ValueError("order must be nonnegative")
        return _series(order, ring, {_zero_exps(ring): ([1] + [0] * order, 1)})

    @staticmethod
    def from_numerators(nums, den, order):
        """The rational series sum_n nums[n]/den q^n: order + 1 integers, den > 0."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        s = _canon(nums, den)
        return _series(order, None, {} if s is None else {(): s})

    # -- ring plumbing -------------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("mismatched coefficient rings")

    def lift(self, ring):
        """Embed a rational-coefficient series into an MPoly ring (or its own)."""
        if self.ring == ring:
            return self
        if self.ring is not None:
            raise ValueError("can only lift rational-coefficient series")
        s = self._slices.get(())
        return _series(self.order, ring, {} if s is None else {ring._zero_exps: s})

    def truncate(self, order):
        if order >= self.order:
            return self
        if order < 0:
            raise ValueError("order must be nonnegative")
        return _series(order, self.ring, _finish(
            {exps: (nums[: order + 1], den) for exps, (nums, den) in self._slices.items()}))

    def coefficient(self, n):
        if n > self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def is_zero(self):
        return not self._slices

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, MPoly)):
            other = QSeries([other], order=self.order, ring=self.ring)
        self._check_ring(other)
        n = min(self.order, other.order) + 1
        acc = {exps: (nums[:n], den) for exps, (nums, den) in self._slices.items()}
        for exps, (nums, den) in other._slices.items():
            _add_into(acc, exps, nums[:n], den)
        return _series(n - 1, self.ring, _finish(acc))

    __radd__ = __add__

    def __neg__(self):
        return _series(self.order, self.ring, {
            exps: ([-x for x in nums], den) for exps, (nums, den) in self._slices.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, MPoly)):
            other = QSeries([other], order=self.order, ring=self.ring)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        """Multiply every coefficient by a ring scalar."""
        if self.ring is None:
            c = as_fraction(c)
            terms = {(): c} if c else {}
        else:
            terms = self.ring.coerce(c).terms
        if len(terms) == 1 and terms.get(_zero_exps(self.ring)) == 1:
            return self
        acc = {}
        for e1, v in terms.items():
            p, q = v.numerator, v.denominator
            for e2, (nums, den) in self._slices.items():
                _add_into(acc, tuple(map(add, e1, e2)), [x * p for x in nums], den * q)
        return _series(self.order, self.ring, _finish(acc))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MPoly)):
            return self.scale(other)
        self._check_ring(other)
        return _product(self, other)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("series powers must be nonnegative integers")
        result = QSeries.one(self.order, self.ring)
        base = self
        while n:
            if n & 1:
                result = _product(result, base)
            n >>= 1
            if n:
                base = _product(base, base)
        return result

    def inverse(self):
        """Multiplicative inverse; requires an invertible constant term."""
        zero_exps = _zero_exps(self.ring)
        unit = self._slices.get(zero_exps)
        if unit is None or not unit[0][0] or any(
                nums[0] for exps, (nums, _) in self._slices.items() if exps != zero_exps):
            if self.ring is None:
                raise ZeroDivisionError("series has zero constant term")
            raise ZeroDivisionError("constant term is not an invertible scalar")
        inv = _series(self.order, self.ring, {zero_exps: _inverse(*unit, self.order)})
        rest = {exps: s for exps, s in self._slices.items() if exps != zero_exps}
        if not rest:
            return inv
        # self = u + r with r of q-valuation >= 1: 1/self = sum_k (1/u) (-r/u)^k
        h = -_product(inv, _series(self.order, self.ring, rest))
        out = inv
        for _ in range(self.order):
            out = inv + _product(out, h)
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if not c:
                raise ZeroDivisionError("division by zero scalar")
            return self.scale(1 / c)
        return self * other.inverse()

    def q_derivative(self):
        """The operator q d/dq: coefficient c_n maps to n*c_n; order preserved."""
        return _series(self.order, self.ring, _finish({
            exps: ([n * x for n, x in enumerate(nums)], den)
            for exps, (nums, den) in self._slices.items()}))

    # -- comparison / io ------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, QSeries) and self.order == other.order
                and self.ring == other.ring and self._slices == other._slices)

    def __hash__(self):
        return hash((self.order, tuple(sorted(
            (exps, tuple(nums), den) for exps, (nums, den) in self._slices.items()))))

    def _common_ring(self, other, order):
        n = min(self.order, other.order)
        if order is not None:
            n = min(n, order)
        a, b = self, other
        if a.ring is None and b.ring is not None:
            a = a.lift(b.ring)
        if b.ring is None and a.ring is not None:
            b = b.lift(a.ring)
        return n, a, b

    def agrees_with(self, other, order=None):
        """Coefficientwise equality up to min(order, both truncations)."""
        n, a, b = self._common_ring(other, order)
        return a.ring == b.ring and a.truncate(n)._slices == b.truncate(n)._slices

    def first_mismatch(self, other, order=None):
        """First degree where the two series differ, or None; for reporting."""
        n, a, b = self._common_ring(other, order)
        if a.ring == b.ring and a.truncate(n)._slices == b.truncate(n)._slices:
            return None
        for k in range(n + 1):
            if a.coeffs[k] != b.coeffs[k]:
                return k, a.coeffs[k], b.coeffs[k]
        return None

    def __repr__(self):
        bits = []
        for n, c in enumerate(self.coeffs):
            iszero = c.is_zero() if self.ring is not None else (c == 0)
            if iszero:
                continue
            cs = f"({c})" if self.ring is not None else str(c)
            bits.append(cs if n == 0 else (f"{cs}*q" if n == 1 else f"{cs}*q^{n}"))
        body = " + ".join(bits) if bits else "0"
        return f"{body} + O(q^{self.order + 1})"


# -- standard series constructors ---------------------------------------


def lambert_term(numer_shift, denom_form, power, scale=ONE, order=30, ring=None):
    """Expansion of scale * q^a / (1 - q^m)^p to the given order.

    Uses the binomial series: 1/(1-x)^p = sum_j C(j+p-1, p-1) x^j.
    """
    a, m, p = numer_shift, denom_form, power
    if m < 1 or p < 1:
        raise ValueError("denominator form and power must be positive")
    if a < 0:
        raise ValueError("numerator shift must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    nums = [0] * (order + 1)
    j = 0
    while a + j * m <= order:
        nums[a + j * m] = comb(j + p - 1, p - 1)
        j += 1
    series = _series(order, ring, {_zero_exps(ring): (nums, 1)} if a <= order else {})
    if isinstance(scale, (int, Fraction)) and scale == 1:
        return series
    return series.scale(scale)


def euler_pow(c, order):
    """(q; q)_infinity ** c to the given order, for any integer c.

    The finite product of (1 - q^i)^c for i <= order, each factor applied to
    one integer numerator list through its binomial row: the q^(ij)
    coefficient is (-1)^j C(c, j), which is C(j - c - 1, j) for c < 0.
    """
    if not isinstance(c, int):
        raise ValueError("the Euler product exponent must be an integer")
    nums = [1] + [0] * order
    for i in range(1, order + 1):
        row, b = nums[:], 1
        for j in range(1, order // i + 1):
            b = b * (j - 1 - c) // j  # exact: (-1)^j C(c, j)
            if b:
                at = i * j
                row[at:] = map(add, row[at:], [b * x for x in nums[: order + 1 - at]])
        nums = row
    return QSeries.from_numerators(nums, 1, order)


def geometric(m, order, ring=None):
    """1/(1 - q^m)."""
    return lambert_term(0, m, 1, order=order, ring=ring)


# -- JSON serialization ---------------------------------------------------


def _fraction_from_json(pair):
    """["num", "den"] as a Fraction: two integer strings, den nonzero."""
    try:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(x, str) for x in pair)):
            raise ValueError
        num, den = int(pair[0]), int(pair[1])
    except ValueError:
        raise ValueError('series JSON coefficients must be ["num", "den"] pairs '
                         'of integer strings') from None
    if not den:
        raise ValueError("series JSON coefficients need nonzero denominators")
    return Fraction(num, den)


def _pair_json(x, den):
    """x/den in lowest terms as ["num", "den"] (decimal strings); den > 0."""
    g = gcd(x, den)
    return [str(x // g), str(den // g)]


def series_to_json(s):
    """Schema: {"var": "q", "order": N, "coeffs": [...]}.

    A rational coefficient is ["num", "den"] (decimal strings, lowest terms);
    an MPoly is a list of {"coef": ["num", "den"], "exps": [...]} records in
    graded-lex order.  Both are written from the integer slices.
    """
    n = s.order + 1
    if s.ring is None:
        nums, den = s._slices.get((), ([0] * n, 1))
        coeffs = [_pair_json(x, den) for x in nums]
    else:
        coeffs = [[] for _ in range(n)]
        for exps in sorted(s._slices, key=_grlex_key):
            nums, den = s._slices[exps]
            for k, x in enumerate(nums):
                if x:
                    coeffs[k].append({"coef": _pair_json(x, den), "exps": list(exps)})
    return {"var": "q", "order": s.order, "coeffs": coeffs}


def series_from_json(data, ring=None):
    """The series written by `series_to_json`; ValueError on malformed data.

    order must be an integer >= 0 and coeffs a list of exactly order + 1
    coefficients, so that a truncated file is refused, never padded.
    """
    if not isinstance(data, dict) or data.get("var") != "q":
        raise ValueError('series JSON must be an object with "var": "q"')
    order, entries = data.get("order"), data.get("coeffs")
    if type(order) is not int or order < 0:
        raise ValueError("series JSON order must be an integer >= 0")
    if not isinstance(entries, list) or len(entries) != order + 1:
        raise ValueError(f"series JSON of order {order} needs a list of "
                         f"{order + 1} coefficients")
    if ring is None:
        coeffs = [_fraction_from_json(c) for c in entries]
    else:
        coeffs = []
        for entry in entries:
            if not isinstance(entry, list) or not all(
                    isinstance(rec, dict) and isinstance(rec.get("exps"), list)
                    and len(rec["exps"]) == ring.arity
                    and all(type(e) is int and e >= 0 for e in rec["exps"])
                    for rec in entry):
                raise ValueError('series JSON coefficients must be lists of '
                                 '{"coef", "exps"} records')
            coeffs.append(MPoly(ring, {tuple(rec["exps"]): _fraction_from_json(rec.get("coef"))
                                       for rec in entry}))
    return QSeries(coeffs, order=order, ring=ring)
