"""Membership and exact coefficients in the quasi-modular ring Q[Z(2), Z(4), Z(6)].

A weight-W basis consists of the monomials Z(2)^a Z(4)^b Z(6)^c with
2a + 4b + 6c <= W.  Decomposition is exact Gaussian elimination over Q on
leading coefficient rows, followed by residual verification on every
remaining coefficient up to the working order.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .ring import ZERO, QSeries
from .zeta import z_series

SOLVE_MARGIN = 10


def basis_monomials(weight):
    """(a, b, c) exponent triples of Z(2)^a Z(4)^b Z(6)^c, weight 2a+4b+6c <= W."""
    if weight < 0 or weight % 2:
        raise ValueError("weight bound must be a nonnegative even integer")
    out = []
    for c in range(weight // 6 + 1):
        for b in range((weight - 6 * c) // 4 + 1):
            for a in range((weight - 6 * c - 4 * b) // 2 + 1):
                out.append((a, b, c))
    out.sort(key=lambda m: (2 * m[0] + 4 * m[1] + 6 * m[2], m))
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


@lru_cache(maxsize=None)
def _monomial_series(m, order):
    a, b, c = m
    s = QSeries.one(order)
    if a:
        s = s * z_series((2,), order) ** a
    if b:
        s = s * z_series((4,), order) ** b
    if c:
        s = s * z_series((6,), order) ** c
    return s


class QMBasis:
    """Expanded basis of the weight-bounded quasi-modular space."""

    def __init__(self, weight, order):
        self.weight = weight
        self.order = order
        self.monomials = basis_monomials(weight)
        if order < len(self.monomials) + SOLVE_MARGIN:
            raise ValueError(
                f"order {order} too small for a well-posed solve: need at least "
                f"{len(self.monomials) + SOLVE_MARGIN}")
        self.series = [_monomial_series(m, order) for m in self.monomials]

    def __len__(self):
        return len(self.monomials)


def qm_basis(weight, order):
    return QMBasis(weight, order)


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
        s = QSeries.zero(order)
        for m, c in self.coeffs.items():
            s = s + _monomial_series(m, order).scale(c)
        return s

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


def _solve_exact(rows, rhs):
    """Solve rows * x = rhs over Fraction by echelon reduction.

    rows is (m x n) with m >= n.  Returns x or None when rank < n
    (underdetermined); inconsistency is left to the caller's residual check.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    piv_rows = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            return None
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_rows.append(c)
        r += 1
        if r == n:
            break
    if r < n:
        return None
    return [a[i][n] for i in range(n)]


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
    if order is None:
        order = f.order
    if f.order < order:
        raise ValueError(f"series order {f.order} below requested order {order}")
    basis = qm_basis(weight, order)
    b = len(basis)

    rows = [[basis.series[j].coeffs[d] for j in range(b)] for d in range(b)]
    rhs = [f.coeffs[d] for d in range(b)]
    sol = _solve_exact(rows, rhs)
    if sol is None:
        rows = [[basis.series[j].coeffs[d] for j in range(b)] for d in range(order + 1)]
        rhs = [f.coeffs[d] for d in range(order + 1)]
        sol = _solve_exact(rows, rhs)
        if sol is None:
            raise ValueError("underdetermined system: increase the order")

    # residual check on all coefficients up to the working order
    for d in range(order + 1):
        acc = ZERO
        for j in range(b):
            if sol[j]:
                acc += sol[j] * basis.series[j].coeffs[d]
        if acc != f.coeffs[d]:
            return NotInSpan(d, weight, order)
    return QMDecomposition(dict(zip(basis.monomials, sol)), weight, order)


def decompose_mpoly(f, weight, order=None):
    """Slice a polynomial-coefficient series by symbol monomial and decompose each.

    Returns {exponent-vector: QMDecomposition-or-NotInSpan}; the key is the
    monomial in the series' symbol table (the all-zero vector is the scalar
    slice).
    """
    if f.ring is None:
        raise ValueError("decompose_mpoly expects a polynomial-coefficient series")
    if order is None:
        order = f.order
    return {exps: decompose(sliced, weight, order)
            for exps, sliced in f.by_monomial().items()}
