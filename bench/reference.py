"""Independent reference values for every job the benchmark checks.

Nothing here imports pseudomagic.  Each value comes from a different route
than the package uses:

- magic counts and polynomials from the published h-vectors (Beck-Pixton),
  H_k(j) = sum_i h_i C(j+d-i, d) with d = (k-1)^2;
- contingency counts from a forward row-by-row dynamic program (the package
  runs a memoized recursion over columns);
- bounded counts from the slack-variable identity
  G(b) = N(b + (sum b,), b + (sum b,)) through that forward program;
- symmetric even-diagonal counts from a memoized row recursion (the package
  enumerates without memo);
- divisor profiles by Dirichlet convolution in numpy, and exact mean values
  as residues modulo a prime (an exact fingerprint that avoids building the
  huge rational) together with a correctly summed float;
- Euler products from the closed-form local factors in float64;
- the finite-window time average of |sum n^(-1/2-it)|^(2k) in closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

import numpy as np

# Mersenne prime below 2^31: residues multiply without overflowing int64.
Q = 2**31 - 1

MAGIC_H = {
    1: (1,),
    2: (1,),
    3: (1, 1, 1),
    4: (1, 14, 87, 148, 87, 14, 1),
    5: (1, 103, 4306, 63110, 388615, 1115068, 1575669, 1115068, 388615, 63110, 4306, 103, 1),
}


def residue(value) -> int:
    """value mod Q for an integer or a rational whose denominator is prime to Q."""
    fr = Fraction(value)
    return fr.numerator % Q * pow(fr.denominator % Q, -1, Q) % Q


#### counts ####


def magic_count(k: int, j: int) -> int:
    d = (k - 1) ** 2
    return sum(h * comb(j + d - i, d) for i, h in enumerate(MAGIC_H[k]))


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def magic_poly(k: int) -> tuple:
    """Coefficients (constant first) of sum_i h_i C(x+d-i, d)."""
    d = (k - 1) ** 2
    total = [Fraction(0)] * (d + 1)
    for i, h in enumerate(MAGIC_H[k]):
        # C(x+d-i, d) = prod_{t=1..d} (x - i + t) / d!
        term = [Fraction(1)]
        for t in range(1, d + 1):
            term = _poly_mul(term, [Fraction(t - i), Fraction(1)])
        for e, c in enumerate(term):
            total[e] += h * c / factorial(d)
    return tuple(total)


def interpolate(points) -> list:
    """Coefficients (constant first) of the Lagrange polynomial through the points."""
    n = len(points)
    total = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = _poly_mul(basis, [Fraction(-xj), Fraction(1)])
                denom *= xi - xj
        for e, c in enumerate(basis):
            total[e] += yi * c / denom
    while len(total) > 1 and total[-1] == 0:
        total.pop()
    return total


def evaluate(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def _fills(caps, r):
    """Every vector caps - x with 0 <= x <= caps elementwise and sum x == r."""
    m = len(caps)
    room = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        room[i] = room[i + 1] + caps[i]
    out = []
    left = list(caps)

    def place(i, rem):
        if i == m - 1:
            if rem <= caps[i]:
                left[i] = caps[i] - rem
                out.append(tuple(left))
            return
        for x in range(max(0, rem - room[i + 1]), min(caps[i], rem) + 1):
            left[i] = caps[i] - x
            place(i + 1, rem - x)
        left[i] = caps[i]

    if r <= room[0]:
        place(0, r)
    return out


@lru_cache(maxsize=None)
def tables(rows: tuple, cols: tuple) -> int:
    """Nonnegative integer matrices with the given row and column sums (forward DP over rows)."""
    rows = tuple(r for r in rows if r)
    cols = tuple(sorted((c for c in cols if c), reverse=True))
    if sum(rows) != sum(cols):
        return 0
    states = {cols: 1}
    for r in rows:
        nxt: dict = {}
        for caps, ways in states.items():
            for left in _fills(caps, r):
                key = tuple(sorted((c for c in left if c), reverse=True))
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return states.get((), 0)


def bounded(bounds) -> int:
    """Square matrices with row i and column i summing to at most bounds[i]."""
    b = tuple(int(x) for x in bounds)
    margins = b + (sum(b),)
    return tables(margins, margins)


@lru_cache(maxsize=None)
def bounded_poly(k: int) -> tuple:
    d = k * k
    return tuple(interpolate([(l, bounded((l,) * k)) for l in range(d + 1)]))


@lru_cache(maxsize=None)
def symmetric_even(k: int, j: int, at_most: bool = False) -> int:
    """Symmetric k-by-k matrices with even diagonal and line sums == j (or <= j)."""

    @lru_cache(maxsize=None)
    def row(loads: tuple) -> int:
        # loads: current sums of the rows not yet processed, first one is the current row
        r = j - loads[0]
        if r < 0:
            return 0
        rest = loads[1:]
        if not rest:
            return r // 2 + 1 if at_most else int(r % 2 == 0)
        total = 0
        for offs in _bounded_vectors(tuple(j - x for x in rest), r):
            s = r - sum(offs)
            ways = s // 2 + 1 if at_most else int(s % 2 == 0)
            if ways:
                total += ways * row(tuple(x + o for x, o in zip(rest, offs)))
        return total

    return row((0,) * k)


def _bounded_vectors(caps, total):
    """Vectors v with 0 <= v_i <= caps_i and sum v <= total."""
    if not caps:
        return [()]
    out = []
    for v in range(min(caps[0], total) + 1):
        for tail in _bounded_vectors(caps[1:], total - v):
            out.append((v,) + tail)
    return out


#### zeta and Euler products ####


def divisor_counts(bounds):
    """(n, d(n)) arrays of the restricted divisor function, by Dirichlet convolution."""
    bounds = tuple(int(b) for b in bounds)
    top = prod(bounds)
    c = np.zeros(top + 1, dtype=np.int64)
    c[1: bounds[0] + 1] = 1
    for b in bounds[1:]:
        n = np.nonzero(c)[0]
        vals = c[n]
        new = np.zeros(top + 1, dtype=np.int64)
        for l in range(1, b + 1):
            new[n * l] += vals  # indices n*l are distinct for a fixed l
        c = new
    n = np.nonzero(c)[0]
    return n, c[n]


def _inv_mod(x):
    """Elementwise inverse mod Q by Fermat exponentiation; entries in [1, Q)."""
    result = np.ones_like(x)
    base = x % Q
    e = Q - 2
    while e:
        if e & 1:
            result = result * base % Q
        base = base * base % Q
        e >>= 1
    return result


@lru_cache(maxsize=None)
def mean_value(bounds: tuple):
    """(residue mod Q, float) of sum_n d(n)^2 / n for the restricted profile."""
    n, d = divisor_counts(bounds)
    sq = d % Q * (d % Q) % Q
    res = int(np.sum(sq * _inv_mod(n) % Q)) % Q
    approx = math.fsum((d.astype(np.float64) ** 2 / n).tolist())
    return res, approx


def mean_value_exact(bounds) -> Fraction:
    """Exact rational mean value; only for small profiles."""
    n, d = divisor_counts(tuple(bounds))
    return sum((Fraction(int(dd) * int(dd), int(nn)) for nn, dd in zip(n, d)), Fraction(0))


@lru_cache(maxsize=None)
def _primes(limit: int):
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return np.nonzero(flags)[0].astype(np.float64)


def prime_count(limit: int) -> int:
    return int(_primes(limit).size)


@lru_cache(maxsize=None)
def euler_a(k: int, limit: int) -> float:
    """prod_{p<=limit} (1-1/p)^((k-1)^2) sum_i C(k-1,i)^2 p^-i, the closed-form local factor."""
    p = _primes(limit)
    inv = 1.0 / p
    series = sum(comb(k - 1, i) ** 2 * inv**i for i in range(k))
    logs = (k - 1) ** 2 * np.log1p(-inv) + np.log(series)
    return math.exp(math.fsum(logs.tolist()))


@lru_cache(maxsize=None)
def euler_b(k: int, limit: int) -> float:
    p = _primes(limit)
    inv = 1.0 / p
    q = np.sqrt(inv)
    avg = ((1 - q) ** (-k) + (1 + q) ** (-k)) / 2
    logs = (k * (k + 1) // 2) * np.log1p(-inv) - np.log1p(inv) + np.log(avg + inv)
    return math.exp(math.fsum(logs.tolist()))


def window_mean(k: int, x: int, t_max: float) -> float:
    """(1/T) int_0^T |sum_{n<=x} n^(-1/2-it)|^(2k) dt in closed form.

    |S(t)|^(2k) = |sum_N b_N N^(-it)|^2 with b_N = d_{k,x}(N)/sqrt(N), so the
    average is sum b_N^2 + 2 sum_{M<N} b_M b_N sin(T log(N/M)) / (T log(N/M)).
    """
    n, d = divisor_counts((x,) * k)
    b = d / np.sqrt(n)
    logs = np.log(n.astype(np.float64))
    theta = logs[None, :] - logs[:, None]
    upper = np.triu(np.ones_like(theta, dtype=bool), 1)
    th = theta[upper]
    bb = (b[:, None] * b[None, :])[upper]
    cross = bb * np.sin(t_max * th) / (t_max * th)
    return math.fsum((b**2).tolist()) + 2 * math.fsum(cross.tolist())


#### random matrix closed forms ####


def full_poly_moment(n: int, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(1, n + 1):
        out *= Fraction(factorial(j - 1) * factorial(j + 2 * k - 1), factorial(j + k - 1) ** 2)
    return out


def g_factor(k: int) -> Fraction:
    return prod((Fraction(factorial(j), factorial(j + k)) for j in range(k)), start=Fraction(1))
