"""Reference values computed apart from the program under test.

Everything here is plain integer (or, where a closed form has a rational
factor, Fraction) arithmetic on coefficient lists, written without importing
qzeta, so a check against these values cannot share a fault with the code it
checks.  A "series" here is a list of coefficients c[0..order].
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

# -- coefficient-list arithmetic ----------------------------------------------


def zeros(order):
    return [0] * (order + 1)


def add(*series):
    out = zeros(len(series[0]) - 1)
    for s in series:
        for n, c in enumerate(s):
            out[n] += c
    return out


def scale(s, c):
    return [c * x for x in s]


def mul(a, b):
    order = len(a) - 1
    out = zeros(order)
    for i, x in enumerate(a):
        if x:
            for j in range(order + 1 - i):
                out[i + j] += x * b[j]
    return out


def q_derivative(s):
    return [n * c for n, c in enumerate(s)]


def lambert(shift, m, power, order):
    """q^shift / (1 - q^m)^power, by the binomial series."""
    out = zeros(order)
    j = 0
    while shift + j * m <= order:
        out[shift + j * m] = comb(j + power - 1, power - 1)
        j += 1
    return out


def geometric_product(shift, mods, order):
    """q^shift / prod_i (1 - q^mods[i]): counts of representations."""
    out = zeros(order)
    if shift <= order:
        out[shift] = 1
    for m in mods:
        for n in range(m, order + 1):
            out[n] += out[n - m]
    return out


# -- divisor sums, partitions, the Euler product ---------------------------------


def sigma(n, k):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def divisor_series(k, order):
    """sum_{n >= 1} sigma_k(n) q^n."""
    return [0] + [sigma(n, k) for n in range(1, order + 1)]


def n_sigma1(order):
    """q d/dq of sum sigma_1(n) q^n: the <L1, L2> slice of the two-point series."""
    return [n * sigma(n, 1) for n in range(order + 1)]


def partition_numbers(order):
    """p(0..order) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * order
    for n in range(1, order + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def euler_product(order):
    """(q; q)_infinity by the pentagonal number theorem."""
    out = zeros(order)
    k = 0
    while True:
        hit = False
        for g in {k * (3 * k - 1) // 2, k * (3 * k + 1) // 2}:
            if g <= order:
                out[g] += -1 if k % 2 else 1
                hit = True
        if not hit:
            return out
        k += 1


# -- single-index q-zeta values and Eisenstein series ----------------------------


def z_single(s, order):
    """Z(s) = sum_n P_s(q^n)/(1 - q^n)^s, P_s = t^(s/2), or t^((s-1)/2)(1 + t)."""
    if s < 2:
        raise ValueError("index must be >= 2")
    out = zeros(order)
    half = s // 2
    for n in range(1, order + 1):
        shifts = (half * n,) if s % 2 == 0 else (half * n, (half + 1) * n)
        for a in shifts:
            if a <= order:
                out = add(out, lambert(a, n, s, order))
    return out


def bernoulli_numbers(count):
    """B_0..B_(count-1) by the Akiyama-Tanigawa algorithm (B_1 = +1/2)."""
    out = []
    row = [Fraction(0)] * count
    for m in range(count):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def eisenstein_single(weight, order):
    """G_w = -B_w/(2w) / (w-1)! + sum_d d^(w-1) q^d/(1 - q^d) / (w-1)!."""
    if weight < 2 or weight % 2:
        raise ValueError("weight must be a positive even integer")
    fact = factorial(weight - 1)
    out = zeros(order)
    for d in range(1, order + 1):
        out = add(out, scale(lambert(d, d, 1, order), d ** (weight - 1)))
    out = [Fraction(c, fact) for c in out]
    out[0] = -bernoulli_numbers(weight + 1)[weight] / (2 * weight) / fact
    return out


def bracket_single(s, order):
    """[s] = sum_n sigma_{s-1}(n)/(s-1)! q^n."""
    return [Fraction(c, factorial(s - 1)) for c in divisor_series(s - 1, order)]


# -- the two-point components ------------------------------------------------------


def h0_direct(order):
    """sum_{i,j>0} ij(i+j) q^(i+j) / ((1-q^i)(1-q^j)(1-q^(i+j))), summed directly.

    The q^n coefficient counts solutions of i*a + j*b + (i+j)*c = n with
    a, b >= 1 and c >= 0, each weighted by ij(i+j).
    """
    out = zeros(order)
    for n in range(order + 1):
        total = 0
        for i in range(1, n + 1):
            for j in range(1, n - i + 1):
                w = i * j * (i + j)
                for c in range(0, (n - i - j) // (i + j) + 1):
                    rest = n - (i + j) * c
                    # i*a + j*b = rest with a, b >= 1
                    for a in range(1, (rest - j) // i + 1):
                        if (rest - i * a) % j == 0:
                            total += w
        out[n] = total
    return out


def theorem_sums(order):
    """thm_sum1 + thm_sum2 + thm_sum3, the canonical-square tail sums.

    thm_sum1 = sum_{n>m>0} q^n(1+q^n)/(1-q^n)^3 (n - nm + m^2)/(1-q^m)
    thm_sum2 = 2 sum_{n>m>l>0} n q^n(1+q^n)/(1-q^n)^3 / ((1-q^m)(1-q^l))
    thm_sum3 = 2 sum_{n>m>l>0} q^n/(1-q^n)^2 m q^m/(1-q^m)^2 / (1-q^l)
    """
    total = zeros(order)
    for n in range(1, order + 1):
        cubic = add(lambert(n, n, 3, order),
                    lambert(2 * n, n, 3, order) if 2 * n <= order else zeros(order))
        inner1 = zeros(order)
        inner2 = zeros(order)
        inner3 = zeros(order)
        for m in range(1, n):
            gm = lambert(0, m, 1, order)
            inner1 = add(inner1, scale(gm, n - n * m + m * m))
            below = zeros(order)
            for ell in range(1, m):
                below = add(below, lambert(0, ell, 1, order))
            inner2 = add(inner2, mul(gm, below))
            if m <= order:
                inner3 = add(inner3, scale(mul(lambert(m, m, 2, order), below), m))
        total = add(total, mul(cubic, inner1), scale(mul(cubic, inner2), 2 * n),
                    scale(mul(lambert(n, n, 2, order), inner3), 2))
    return total


# exponent triples (a, b, c) of Z(2)^a Z(4)^b Z(6)^c
H0_DECOMPOSITION = {(2, 0, 0): Fraction(1), (0, 1, 0): Fraction(1),
                    (3, 0, 0): Fraction(-8, 3), (1, 1, 0): Fraction(4),
                    (0, 0, 1): Fraction(14, 3)}
L1L2_DECOMPOSITION = {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(5),
                      (2, 0, 0): Fraction(-2)}
CHI_DECOMPOSITION = {m: Fraction(-5, 4) * c for m, c in H0_DECOMPOSITION.items()}
