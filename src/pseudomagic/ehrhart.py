"""Exact polynomial reconstruction of the lattice-count families, and volumes.

The magic-square count H_k(j) in dimension k is a polynomial of degree
(k-1)^2, the bounded-sum count G_k(l) a polynomial of degree k^2; both facts
are theorems.  Ehrhart-Macdonald reciprocity (Stanley's theorem for linear
Diophantine systems) adds, for a polynomial p of degree d with z trivial
zeros, the zeros p(-1) = ... = p(-z) = 0 and the reflection
p(-(z+1)-x) = (-1)^d p(x): z = k-1 for H_k and z = k for G_k.  So each
polynomial is fitted from real counts at x = 0..m-1 only, with
m = ceil((d+1-z)/2), together with the m mirrored points and the z zeros
(2m+z >= d+1 points).  Two more real counts, at m and m+1, which the fit
did not use, verify it.  A mismatch raises RuntimeError: it can only mean
a counting bug.

The symmetric even-diagonal bounded family is not a polynomial (the 1x1 case
is floor(l/2)+1), so it is reconstructed as a period-2 quasi-polynomial: one
polynomial per parity class, each fitted from real counts at its first d+1
nodes and verified at two more, with leading-coefficient agreement reported.
No reflection law is proven for it, so it uses no mirrored points.

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

# Largest k each builder accepts.  The next size ran past 25 s with no
# result on 2 Xeon CPUs; at the ceilings, magic k=6 takes 14-16 s,
# pseudomagic k=4 about 1 s and sym-even-bounded k=4 about 2 s.
MAX_MAGIC_K = 6
MAX_PSEUDOMAGIC_K = 4
MAX_SYM_EVEN_BOUNDED_K = 4


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


def _verify(poly: CountingPolynomial, points) -> None:
    for x, y in points:
        if poly(x) != y:
            raise RuntimeError(
                f"polynomial verification failed at {x}: counting bug suspected"
            )


def _interpolate_family(counter, degree: int, nodes) -> CountingPolynomial:
    nodes = list(nodes)
    poly = interpolate([(x, counter(x)) for x in nodes[: degree + 1]], degree)
    _verify(poly, ((x, counter(x)) for x in nodes[degree + 1:]))
    return poly


def _reciprocal_family(counter, degree: int, zeros: int) -> CountingPolynomial:
    """Polynomial of the given degree with p(-1..-zeros) = 0 and p(-(zeros+1)-x) = (-1)^degree p(x).

    Fitted from real counts at 0..m-1, their mirrors and the zeros; verified
    at the real counts at m and m+1.
    """
    m = max(1, -(-(degree + 1 - zeros) // 2))
    sign = -1 if degree % 2 else 1
    points = [(-i, 0) for i in range(1, zeros + 1)]
    for x in range(m):
        y = counter(x)
        points += [(x, y), (-(zeros + 1) - x, sign * y)]
    # For H_k and G_k, degree + 1 - zeros is odd, so there is one point more
    # than the fit needs: the mirror of m-1.  It is not checked, since the fit
    # through reflection-symmetric data is itself symmetric and passes it
    # whatever the counts are; only real counts can expose a counting bug.
    poly = interpolate(points[: degree + 1], degree)
    _verify(poly, ((x, counter(x)) for x in (m, m + 1)))
    return poly


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
    return _reciprocal_family(lambda j: counting.count_magic(k, j), (k - 1) ** 2, k - 1)


def pseudomagic_polynomial(k: int) -> CountingPolynomial:
    """Exact polynomial agreeing with count_pseudomagic(k, .), of degree d = k^2.

    Fitted from the counts at l = 0..m-1, m = ceil((d+1-k)/2), their mirrors
    G_k(-k-1-l) = (-1)^(k^2) G_k(l) and the zeros at -1..-k; verified by the
    real counts at l = m and m+1.  Refused with BudgetError above
    MAX_PSEUDOMAGIC_K.
    """
    _check_k(k, MAX_PSEUDOMAGIC_K, "pseudomagic")
    return _reciprocal_family(lambda l: counting.count_pseudomagic(k, l), k * k, k)


def symmetric_even_bounded_polynomials(k: int) -> ParityPolynomials:
    """Per-parity polynomials of the symmetric even-diagonal bounded count (period-2 quasi-polynomial).

    Refused with BudgetError above MAX_SYM_EVEN_BOUNDED_K."""
    _check_k(k, MAX_SYM_EVEN_BOUNDED_K, "sym-even-bounded")
    d = k * (k + 1) // 2
    even = _interpolate_family(
        lambda l: counting.count_symmetric_even_bounded(k, l),
        d,
        [2 * t for t in range(d + 3)],
    )
    odd = _interpolate_family(
        lambda l: counting.count_symmetric_even_bounded(k, l),
        d,
        [2 * t + 1 for t in range(d + 3)],
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
