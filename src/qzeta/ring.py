"""Exact coefficient arithmetic: rationals, multivariate polynomials, truncated q-series.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

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
                e = tuple(a + b for a, b in zip(e1, e2))
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


class QSeries:
    """Truncated formal power series in q.

    Coefficients live in an exact commutative ring: Fraction (ring is None)
    or an MPolyRing.  Arithmetic between series of different orders truncates
    to the minimum order.
    """

    __slots__ = ("order", "coeffs", "ring")

    def __init__(self, coeffs, order=None, ring=None):
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        zero = ring.zero if ring is not None else ZERO
        coeffs = coeffs[: order + 1]
        coeffs += [zero] * (order + 1 - len(coeffs))
        if ring is None:
            coeffs = [as_fraction(c) for c in coeffs]
        else:
            coeffs = [ring.coerce(c) for c in coeffs]
        self.order = order
        self.coeffs = tuple(coeffs)
        self.ring = ring

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(order, ring=None):
        return QSeries([], order=order, ring=ring)

    @staticmethod
    def one(order, ring=None):
        unit = ring.one if ring is not None else ONE
        return QSeries([unit], order=order, ring=ring)

    @staticmethod
    def monomial(exponent, order, scale=ONE, ring=None):
        if exponent < 0:
            raise ValueError("negative q-exponent")
        coeffs = [ZERO if ring is None else ring.zero] * (order + 1)
        if exponent <= order:
            coeffs[exponent] = scale if ring is None else ring.coerce(scale)
        return QSeries(coeffs, order=order, ring=ring)

    # -- ring plumbing -------------------------------------------------

    def _zero_coeff(self):
        return self.ring.zero if self.ring is not None else ZERO

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("mismatched coefficient rings")

    def lift(self, ring):
        """Embed a rational-coefficient series into an MPoly ring (or its own)."""
        if self.ring == ring:
            return self
        if self.ring is not None:
            raise ValueError("can only lift rational-coefficient series")
        return QSeries([ring.const(c) for c in self.coeffs], order=self.order, ring=ring)

    def truncate(self, order):
        if order >= self.order:
            return self
        return QSeries(self.coeffs[: order + 1], order=order, ring=self.ring)

    def coefficient(self, n):
        if n > self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def is_zero(self):
        if self.ring is None:
            return all(c == 0 for c in self.coeffs)
        return all(c.is_zero() for c in self.coeffs)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)) or isinstance(other, MPoly):
            other = QSeries([other], order=self.order, ring=self.ring)
        self._check_ring(other)
        n = min(self.order, other.order)
        return QSeries([a + b for a, b in zip(self.coeffs, other.coeffs)],
                       order=n, ring=self.ring)

    __radd__ = __add__

    def __neg__(self):
        return QSeries([-c for c in self.coeffs], order=self.order, ring=self.ring)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)) or isinstance(other, MPoly):
            other = QSeries([other], order=self.order, ring=self.ring)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        """Multiply every coefficient by a ring scalar."""
        if self.ring is None:
            c = as_fraction(c)
        else:
            c = self.ring.coerce(c)
        return QSeries([a * c for a in self.coeffs], order=self.order, ring=self.ring)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MPoly)):
            return self.scale(other)
        self._check_ring(other)
        n = min(self.order, other.order)
        zero = self._zero_coeff()
        out = [zero] * (n + 1)
        if self.ring is None:
            for i, a in enumerate(self.coeffs[: n + 1]):
                if not a:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        else:
            for i, a in enumerate(self.coeffs[: n + 1]):
                if a.is_zero():
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
        return QSeries(out, order=n, ring=self.ring)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("series powers must be nonnegative integers")
        result = QSeries.one(self.order, self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.coeffs[0]
        if self.ring is not None:
            v = c0.constant_value()
            if v is None or v == 0:
                raise ZeroDivisionError("constant term is not an invertible scalar")
            c0 = v
            sc = self.ring.const(1 / c0)
        else:
            if c0 == 0:
                raise ZeroDivisionError("series has zero constant term")
            sc = 1 / c0
        # long division: g with f*g = 1, computed degree by degree
        f = self.scale(sc)  # now unit constant term
        zero = self._zero_coeff()
        g = [zero] * (self.order + 1)
        one = self.ring.one if self.ring is not None else ONE
        g[0] = one
        for n in range(1, self.order + 1):
            acc = zero
            for k in range(1, n + 1):
                fk = f.coeffs[k]
                if (fk == 0) if self.ring is None else fk.is_zero():
                    continue
                acc = acc + fk * g[n - k]
            g[n] = -acc
        return QSeries(g, order=self.order, ring=self.ring).scale(sc)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if not c:
                raise ZeroDivisionError("division by zero scalar")
            return self.scale(1 / c)
        return self * other.inverse()

    def q_derivative(self):
        """The operator q d/dq: coefficient c_n maps to n*c_n; order preserved."""
        return QSeries([c * n for n, c in enumerate(self.coeffs)],
                       order=self.order, ring=self.ring)

    # -- comparison / io ------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, QSeries) and self.order == other.order
                and self.ring == other.ring and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def agrees_with(self, other, order=None):
        """Coefficientwise equality up to min(order, both truncations)."""
        n = min(self.order, other.order)
        if order is not None:
            n = min(n, order)
        a, b = self, other
        if a.ring is None and b.ring is not None:
            a = a.lift(b.ring)
        if b.ring is None and a.ring is not None:
            b = b.lift(a.ring)
        return all(a.coeffs[k] == b.coeffs[k] for k in range(n + 1))

    def first_mismatch(self, other, order=None):
        """First degree where the two series differ, or None; for reporting."""
        n = min(self.order, other.order)
        if order is not None:
            n = min(n, order)
        a, b = self, other
        if a.ring is None and b.ring is not None:
            a = a.lift(b.ring)
        if b.ring is None and a.ring is not None:
            b = b.lift(a.ring)
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
    zero = ring.zero if ring is not None else ZERO
    coeffs = [zero] * (order + 1)
    j = 0
    while a + j * m <= order:
        coeffs[a + j * m] = comb(j + p - 1, p - 1)
        j += 1
    series = QSeries(coeffs, order=order, ring=ring)
    if isinstance(scale, (int, Fraction)) and scale == 1:
        return series
    return series.scale(scale)


def euler_pow(c, order):
    """(q; q)_infinity ** c to the given order, for any integer c.

    Computed from the finite product of (1 - q^i) for i <= order; negative
    exponents go through series inversion (valid: unit constant term).
    """
    prod = QSeries.one(order)
    for i in range(1, order + 1):
        prod = prod * (QSeries.one(order) - QSeries.monomial(i, order))
    if c >= 0:
        return prod ** c
    return (prod ** (-c)).inverse()


def geometric(m, order, ring=None):
    """1/(1 - q^m)."""
    return lambert_term(0, m, 1, order=order, ring=ring)


# -- JSON serialization ---------------------------------------------------


def _fraction_to_json(c):
    return [str(c.numerator), str(c.denominator)]


def _fraction_from_json(pair):
    return Fraction(int(pair[0]), int(pair[1]))


def series_to_json(s):
    """Schema: {"var": "q", "order": N, "coeffs": [...]}.

    A rational coefficient is ["num", "den"] (decimal strings); an MPoly is a
    list of {"coef": ["num", "den"], "exps": [...]} records in graded-lex order.
    """
    if s.ring is None:
        coeffs = [_fraction_to_json(c) for c in s.coeffs]
    else:
        coeffs = [
            [{"coef": _fraction_to_json(c), "exps": list(e)} for e, c in p.sorted_terms()]
            for p in s.coeffs
        ]
    return {"var": "q", "order": s.order, "coeffs": coeffs}


def series_from_json(data, ring=None):
    if data.get("var") != "q":
        raise ValueError("unsupported series variable")
    order = data["order"]
    if ring is None:
        coeffs = [_fraction_from_json(c) for c in data["coeffs"]]
    else:
        coeffs = [
            MPoly(ring, {tuple(rec["exps"]): _fraction_from_json(rec["coef"])
                         for rec in entry})
            for entry in data["coeffs"]
        ]
    return QSeries(coeffs, order=order, ring=ring)
