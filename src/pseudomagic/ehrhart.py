"""Exact polynomial reconstruction of the lattice-count families, and volumes.

The magic-square count H_k(j) in dimension k is a polynomial of degree
(k-1)^2 and the bounded-sum count G_k(l) one of degree k^2; both facts are
theorems.  The symmetric even-diagonal bounded count is a period-2
quasi-polynomial q of degree d = k(k+1)/2 (the 1x1 case is floor(l/2)+1): it
counts the lattice points of the l-th dilate of the rational polytope
{y_ii, x_ij >= 0 : 2 y_ii + sum_{j != i} x_ij <= 1}, y_ii being half the even
diagonal entry.

Ehrhart-Macdonald reciprocity gives each family of degree d its z trivial
zeros q(-1) = ... = q(-z) = 0 and the reflection q(-(z+1)-x) = (-1)^d q(x):
z = k-1 for H_k and z = k for G_k (Stanley's theorem for linear Diophantine
systems), and z = k+1 for the symmetric family, whose interior points of the
l-th dilate, shifted by 1 in every coordinate, are the points of the
(l-k-2)-th dilate.  So one fit serves all three.  Each residue class of the
argument keeps a pool, filled with the zeros and then with the real counts at
x = 0, 1, ... and their mirrors (a mirror may land in another class), until
every pool holds d+1 points; for H_k and G_k that is the counts at x = 0..m-1,
m = ceil((d+1-z)/2).  Two more real counts per class, which the fit did not
use, verify it.  A mismatch raises RuntimeError: it can only mean a counting
bug.

Fixed ceilings on k (MAX_MAGIC_K, MAX_PSEUDOMAGIC_K, MAX_SYM_EVEN_BOUNDED_K)
refuse, with BudgetError before the first count, the sizes whose counts
would not finish in reasonable time.

Volumes fall out of leading coefficients: the substochastic polytope volume
is the leading coefficient of the bounded-count polynomial, and the Birkhoff
polytope volume is k^(k-1) times the leading coefficient of the magic-count
polynomial (relative-volume normalization).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import counting
from .errors import BudgetError

# Largest k each builder accepts.  At the ceilings, magic k=6 takes 14-16 s
# (2 Xeon CPUs), pseudomagic k=4 about 1 s and sym-even-bounded k=5 0.65 s
# (2 AMD EPYC CPUs).  The next sizes ran past 25 s with no result on 2 Xeon
# CPUs, and sym-even-bounded k=6 took 68.5 s on 2 AMD EPYC CPUs.
MAX_MAGIC_K = 6
MAX_PSEUDOMAGIC_K = 4
MAX_SYM_EVEN_BOUNDED_K = 5


@dataclass(frozen=True)
class CountingPolynomial:
    """Dense univariate polynomial with exact rational coefficients, constant term first."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (Fraction(0),)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coefficients[-1]

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def as_strings(self):
        return [str(c) for c in self.coefficients]


@dataclass(frozen=True)
class HVector:
    """Numerator coefficients h_0..h_d of the rational generating function of a count polynomial."""

    entries: tuple

    def stripped(self) -> tuple:
        e = self.entries
        while e and e[-1] == 0:
            e = e[:-1]
        return e


@dataclass(frozen=True)
class ParityPolynomials:
    """Period-2 quasi-polynomial: one polynomial per parity of the argument."""

    even: CountingPolynomial
    odd: CountingPolynomial

    @property
    def leading_coefficients_agree(self) -> bool:
        return (
            self.even.degree == self.odd.degree
            and self.even.leading_coefficient == self.odd.leading_coefficient
        )

    def __call__(self, x: int) -> Fraction:
        return self.even(x) if x % 2 == 0 else self.odd(x)


def interpolate(values, degree: int) -> CountingPolynomial:
    """Unique polynomial of degree <= ``degree`` through the given (point, value) pairs.

    Newton's divided-difference form over exact rationals.  The first
    degree+1 points determine the polynomial; any further points are checked
    against it and a mismatch raises (no such polynomial exists).
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in values]
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if len(pts) < degree + 1:
        raise ValueError(f"need at least {degree + 1} points, got {len(pts)}")
    if len({x for x, _ in pts[: degree + 1]}) != degree + 1:
        raise ValueError("interpolation points must be distinct")

    xs = [x for x, _ in pts[: degree + 1]]
    dd = [y for _, y in pts[: degree + 1]]
    n = len(xs)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])

    coeffs = [Fraction(0)] * n
    basis = [Fraction(1)]  # coefficients of prod_{t<i} (x - x_t)
    for i in range(n):
        for d, c in enumerate(basis):
            coeffs[d] += dd[i] * c
        nxt = [Fraction(0)] * (len(basis) + 1)
        for d, c in enumerate(basis):
            nxt[d + 1] += c
            nxt[d] -= c * xs[i]
        basis = nxt

    poly = CountingPolynomial(tuple(coeffs))
    for x, y in pts[degree + 1:]:
        if poly(x) != y:
            raise ValueError("extra points are inconsistent with the degree bound")
    return poly


def _reciprocal_family(counter, degree: int, zeros: int, period: int = 1) -> list:
    """Constituents p_0..p_{period-1} of the quasi-polynomial q with q(-1..-zeros) = 0
    and q(-(zeros+1)-x) = (-1)^degree q(x); p_r agrees with q on x = r mod period.

    Each residue class fills one pool of points: the zeros, then the real
    counts at x = 0, 1, ... with their mirrors, each point in its own class,
    until every class holds degree+1.  Each class is fitted from its first
    degree+1 points, checked at its spare points, and verified at its next two
    real counts.
    """
    sign = -1 if degree % 2 else 1
    pools = [[] for _ in range(period)]
    for i in range(1, zeros + 1):
        pools[-i % period].append((-i, 0))
    x = 0
    while min(map(len, pools)) < degree + 1:
        y, mirror = counter(x), -(zeros + 1) - x
        pools[x % period].append((x, y))
        pools[mirror % period].append((mirror, sign * y))
        x += 1
    polys = [interpolate(pool[: degree + 1], degree) for pool in pools]
    spares = [point for pool in pools for point in pool[degree + 1:]]
    for t, y in spares + [(t, counter(t)) for t in range(x, x + 2 * period)]:
        if polys[t % period](t) != y:
            raise RuntimeError(f"polynomial verification failed at {t}: counting bug suspected")
    return polys


def _check_k(k: int, ceiling: int, family: str) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    if k > ceiling:
        raise BudgetError(f"the {family} polynomial is capped at k = {ceiling}, got k = {k}")


def magic_polynomial(k: int) -> CountingPolynomial:
    """Exact polynomial agreeing with count_magic(k, .), of degree d = (k-1)^2.

    Fitted from the counts at j = 0..m-1, m = ceil((d+2-k)/2), their mirrors
    H_k(-k-j) = (-1)^(k-1) H_k(j) and the zeros at -1..-(k-1); verified by the
    real counts at j = m and m+1.  Refused with BudgetError above MAX_MAGIC_K.
    """
    _check_k(k, MAX_MAGIC_K, "magic")
    return _reciprocal_family(lambda j: counting.count_magic(k, j), (k - 1) ** 2, k - 1)[0]


def pseudomagic_polynomial(k: int) -> CountingPolynomial:
    """Exact polynomial agreeing with count_pseudomagic(k, .), of degree d = k^2.

    Fitted from the counts at l = 0..m-1, m = ceil((d+1-k)/2), their mirrors
    G_k(-k-1-l) = (-1)^(k^2) G_k(l) and the zeros at -1..-k; verified by the
    real counts at l = m and m+1.  Refused with BudgetError above
    MAX_PSEUDOMAGIC_K.
    """
    _check_k(k, MAX_PSEUDOMAGIC_K, "pseudomagic")
    return _reciprocal_family(lambda l: counting.count_pseudomagic(k, l), k * k, k)[0]


def symmetric_even_bounded_polynomials(k: int) -> ParityPolynomials:
    """Per-parity polynomials of the symmetric even-diagonal bounded count (period-2 quasi-polynomial).

    Both have degree d = k(k+1)/2.  Fitted, one pool per parity, from the
    zeros at -1..-(k+1), the counts at l = 0, 1, ... and their mirrors
    q(-(k+2)-l) = (-1)^d q(l); verified by two more real counts of each
    parity.  Refused with BudgetError above MAX_SYM_EVEN_BOUNDED_K.
    """
    _check_k(k, MAX_SYM_EVEN_BOUNDED_K, "sym-even-bounded")
    even, odd = _reciprocal_family(
        lambda l: counting.count_symmetric_even_bounded(k, l), k * (k + 1) // 2, k + 1, period=2
    )
    return ParityPolynomials(even, odd)


def check_trivial_zeros(p: CountingPolynomial, k: int) -> bool:
    """True iff p vanishes at -1, -2, ..., -(k-1) exactly.

    magic_polynomial fits these zeros, so its output passes by construction;
    the check is kept for polynomials from elsewhere."""
    return all(p(-i) == 0 for i in range(1, k))


def check_reciprocity(p: CountingPolynomial, k: int) -> bool:
    """True iff p(-k-j) == (-1)^(k-1) p(j) as a polynomial identity (checked at deg+1 points).

    magic_polynomial fits the mirrored points, so its output passes by
    construction; the check is kept for polynomials from elsewhere."""
    sign = 1 if (k - 1) % 2 == 0 else -1
    return all(p(-k - j) == sign * p(j) for j in range(p.degree + 1))


def h_vector(p: CountingPolynomial) -> HVector:
    """Numerator vector of sum_j p(j) x^j = h(x) / (1-x)^(deg+1).

    h_i = sum_{m=0..i} (-1)^m binom(deg+1, m) p(i-m); every entry must come
    out an integer, otherwise the input is not a lattice-count polynomial.
    """
    d = p.degree
    values = [p(i) for i in range(d + 1)]
    entries = []
    for i in range(d + 1):
        acc = Fraction(0)
        for m in range(i + 1):
            term = comb(d + 1, m) * values[i - m]
            acc += -term if m % 2 else term
        if acc.denominator != 1:
            raise ValueError(f"h_{i} = {acc} is not an integer; not a lattice-count polynomial")
        entries.append(int(acc))
    return HVector(tuple(entries))


def substochastic_volume(k: int) -> Fraction:
    """Euclidean volume of the square matrices with all line sums at most 1."""
    return pseudomagic_polynomial(k).leading_coefficient


def birkhoff_volume(k: int) -> Fraction:
    """Volume of the doubly stochastic matrices: k^(k-1) times the magic leading coefficient."""
    return k ** (k - 1) * magic_polynomial(k).leading_coefficient


def evaluate_real(p: CountingPolynomial, x: float) -> float:
    """Horner evaluation of the exact polynomial in double precision."""
    acc = 0.0
    for c in reversed(p.coefficients):
        acc = acc * x + float(c)
    return acc
