"""Membership and exact coefficients in the quasi-modular ring Q[Z(2), Z(4), Z(6)].

A weight-W basis consists of the monomials Z(2)^a Z(4)^b Z(6)^c with
2a + 4b + 6c <= W.  Decomposition solves the leading coefficient rows by
fraction-free elimination on the integer numerator slices of the series,
then verifies every coefficient up to the working order as an identity of
integers; only the returned coefficients are Fractions.
"""
from fractions import Fraction
from operator import mul

from .ring import QSeries
from .zeta import z_series

SOLVE_MARGIN = 10


def basis_size(weight):
    """len(basis_monomials(weight)), counted without listing: for each c, the
    pairs (a, b) with a + 2b <= w = W/2 - 3c number (w//2 + 1)(w + 1 - w//2)."""
    if weight < 0 or weight % 2:
        raise ValueError("weight bound must be a nonnegative even integer")
    return sum((w // 2 + 1) * (w + 1 - w // 2) for w in range(weight // 2, -1, -3))


def basis_monomials(weight):
    """(a, b, c) exponent triples of Z(2)^a Z(4)^b Z(6)^c, weight 2a+4b+6c <= W."""
    if weight < 0 or weight % 2:
        raise ValueError("weight bound must be a nonnegative even integer")
    out = []
    for c in range(weight // 6 + 1):
        for b in range((weight - 6 * c) // 4 + 1):
            for a in range((weight - 6 * c - 4 * b) // 2 + 1):
                out.append((a, b, c))
    out.sort(key=lambda m: (monomial_weight(m), m))
    return out


def monomial_weight(m):
    a, b, c = m
    return 2 * a + 4 * b + 6 * c


def monomial_name(m):
    a, b, c = m
    bits = []
    for gen, e in (("Z(2)", a), ("Z(4)", b), ("Z(6)", c)):
        if e == 1:
            bits.append(gen)
        elif e > 1:
            bits.append(f"{gen}^{e}")
    return "*".join(bits) if bits else "1"


def _basis_series(weight, order):
    """{monomial: series} in basis_monomials(weight) order: Z(2), Z(4), Z(6) from
    z_series, and each other monomial its parent (one fewer factor of its highest
    generator, so of lower weight) times that generator.  Nothing is cached."""
    gens = [z_series((s,), order) for s in (2, 4, 6) if s <= weight]
    out = {(0, 0, 0): QSeries.one(order)}
    for m in basis_monomials(weight)[1:]:
        i = max(k for k, e in enumerate(m) if e)
        parent = m[:i] + (m[i] - 1,) + m[i + 1:]
        out[m] = out[parent] * gens[i] if any(parent) else gens[i]
    return out


class QMBasis:
    """Expanded basis of the weight-bounded quasi-modular space."""

    def __init__(self, weight, order):
        self.weight = weight
        self.order = order
        need = basis_size(weight) + SOLVE_MARGIN  # counted, as listing grows as W^3
        if order < need:
            raise ValueError(
                f"order {order} too small for a well-posed solve: need at least {need}")
        series = _basis_series(weight, order)
        self.monomials, self.series = list(series), list(series.values())

    def __len__(self):
        return len(self.monomials)


class QMDecomposition:
    """Exact coefficients of a series in the quasi-modular basis."""

    def __init__(self, coeffs, weight_bound, verified_to):
        self.coeffs = {m: c for m, c in coeffs.items() if c}
        self.weight_bound = weight_bound
        self.verified_to = verified_to

    @property
    def weight(self):
        """Max weight over monomials with nonzero coefficient (0 for the zero series)."""
        return max((monomial_weight(m) for m in self.coeffs), default=0)

    def reconstruct(self, order):
        basis = _basis_series(self.weight, order)
        return sum((basis[m].scale(c) for m, c in self.coeffs.items()), QSeries.zero(order))

    def __eq__(self, other):
        return isinstance(other, QMDecomposition) and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "QMDecomposition(0)"
        bits = [f"{monomial_name(m)}: {c}" for m, c in sorted(self.coeffs.items())]
        return "QMDecomposition({" + ", ".join(bits) + "})"


class NotInSpan:
    """Verdict that a series is not in the weight-bounded quasi-modular space."""

    def __init__(self, first_failing_degree, weight_bound, verified_to):
        self.first_failing_degree = first_failing_degree
        self.weight_bound = weight_bound
        self.verified_to = verified_to

    def __bool__(self):
        return False

    def __repr__(self):
        return (f"NotInSpan(weight<={self.weight_bound}, "
                f"first failing degree {self.first_failing_degree})")


def _eliminate(columns, targets):
    """Fraction-free Gauss-Jordan (Bareiss) for columns * x = t, each t in targets.

    Pivots on the leading square block, or by least degree on every row if
    that block is singular.  Each update divides exactly by the previous
    pivot, so entries stay integers and end as x = X / Delta.  Returns Delta
    and, per target, X or the first degree d with
    sum_j X_j columns[j][d] != Delta t[d].
    """
    b = len(columns)
    matrix = list(zip(*columns))
    for height in (b, len(matrix)):
        a = [list(row) + [t[d] for t in targets] for d, row in enumerate(matrix[:height])]
        prev = 1
        for c in range(b):
            p = next((i for i in range(c, height) if a[i][c]), None)
            if p is None:
                break
            a[c], a[p] = a[p], a[c]
            top = a[c][c:]
            piv = top[0]
            for i, row in enumerate(a):
                if i != c:
                    f = row[c]
                    row[c:] = [(piv * x - f * y) // prev for x, y in zip(row[c:], top)]
            prev = piv
        else:
            break  # every column has its pivot
    else:
        raise ValueError("underdetermined system: increase the order")
    out = []
    for k, t in enumerate(targets, b):
        xs = [a[j][k] for j in range(b)]
        bad = next((d for d, row in enumerate(matrix)
                    if sum(map(mul, xs, row)) != prev * t[d]), None)
        out.append(xs if bad is None else bad)
    return prev, out


def _decompose(f, slices, weight, order):
    """{key: QMDecomposition or NotInSpan} for slices {key: (numerators, den)}.

    Column j is read as numerators only, so its unknown is x_j den / den_j.
    """
    if order is None:
        order = f.order
    if f.order < order:
        raise ValueError(f"series order {f.order} below requested order {order}")
    basis = QMBasis(weight, order)
    columns = [s._slices[()] for s in basis.series]
    delta, solved = _eliminate([nums for nums, _ in columns],
                               [nums for nums, _ in slices.values()])
    out = {}
    for (key, (_, den)), xs in zip(slices.items(), solved):
        if isinstance(xs, int):
            out[key] = NotInSpan(xs, weight, order)
        else:
            out[key] = QMDecomposition(
                {m: Fraction(x * dj, delta * den)
                 for m, x, (_, dj) in zip(basis.monomials, xs, columns)}, weight, order)
    return out


def decompose(f, weight, order=None):
    """Express f in the weight-bounded basis, or return NotInSpan.

    Solves on the first len(basis) coefficient rows; if that square system is
    singular, retries with least-degree pivoting over all rows up to the
    working order.  A successful solve is then verified against every
    coefficient of f up to the working order.
    """
    if f.ring is not None:
        raise ValueError("decompose expects a rational-coefficient series; "
                         "use decompose_mpoly for polynomial coefficients")
    zero = ([0] * (f.order + 1), 1)
    return _decompose(f, {(): f._slices.get((), zero)}, weight, order)[()]


def decompose_mpoly(f, weight, order=None):
    """Decompose each symbol-monomial slice of a polynomial-coefficient series.

    Returns {exponent-vector: QMDecomposition-or-NotInSpan}, sorted by key;
    the key is the monomial in the series' symbol table (the all-zero vector
    is the scalar slice).  All slices share one elimination.
    """
    if f.ring is None:
        raise ValueError("decompose_mpoly expects a polynomial-coefficient series")
    if not f._slices:
        return {}
    return _decompose(f, dict(sorted(f._slices.items())), weight, order)
