"""Exact enumeration of nonnegative integer matrices with line-sum constraints.

One ``MatrixCountSpec`` describes every problem: row limits, column limits,
whether every line sum is exact (else at most its limit), and whether the
matrix is symmetric with an even diagonal.  Each family (contingency tables,
magic, pseudomagic and symmetric squares) has a spec constructor, and three
counters read a spec: ``count``, the forward DPs below, behind every
``count_*`` function; ``brute_force_count``, an entry-by-entry enumeration;
and ``genfun.series_count``, a generating-function coefficient.  Counts are
arbitrary-precision integers; a line-sum prescription is a decreasing tuple
of positive parts.

One non-recursive allocation step spreads a line sum over rows and tallies
the sorted multiset of leftover capacities (rows with equal leftover are
interchangeable).  ``count`` drives it column by column for contingency
tables, where at-most sums become exact through slack lines: the margins
are ``rows + (sum(cols),)`` and ``cols + (sum(rows),)``, the slack column
taking each row's shortfall, the slack row each column's and the corner the
total.  Columns go smallest first, and the two largest (the slack column of
an at-most count among them) are not enumerated: a state with leftovers
``r_1..r_m`` has ``[z^c] prod_i (1 + z + ... + z^r_i)`` completions, ``c``
the smaller of the two sums, which ``_splits`` reads off in O(m c).  A
single column admits exactly one table once the weights agree.  ``count``
drives the allocation step row by row for symmetric matrices, where index i
carries one sum: ``rows`` when exact (no matrix when ``rows != cols``), else
``min(rows_i, cols_i)``.  The diagonal takes what a row leaves: exactly,
and even, when exact; any even value up to it when at most.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .errors import DEFAULT_GRID_BUDGET, BudgetError, check_budget


def _parts(parts) -> tuple:
    """A line-sum prescription as a decreasing tuple of positive integers.

    Accepts any iterable of nonnegative integers; zero parts are dropped and
    the rest sorted decreasing, so callers may pass unsorted compositions.
    """
    cleaned = []
    for p in parts:
        q = int(p)
        if q < 0:
            raise ValueError(f"partition parts must be nonnegative, got {p}")
        if q:
            cleaned.append(q)
    cleaned.sort(reverse=True)
    return tuple(cleaned)


class MatrixCountSpec(NamedTuple):
    """Full description of one matrix-counting problem.

    ``rows[i]`` limits the sum of row i and ``cols[j]`` the sum of column j:
    every line sums to exactly its limit when ``exact``, else to at most it.
    ``symmetric`` restricts to symmetric matrices with even diagonal entries
    (requires as many rows as columns).
    """

    rows: tuple
    cols: tuple
    exact: bool
    symmetric: bool = False


_NEGATIVE = "constraint bound must be nonnegative"


def _checked(spec: MatrixCountSpec) -> MatrixCountSpec:
    if any(b < 0 for b in spec.rows) or any(b < 0 for b in spec.cols):
        raise ValueError(_NEGATIVE)
    if not spec.rows or not spec.cols:
        raise ValueError("matrix shape must be positive")
    if spec.symmetric and len(spec.rows) != len(spec.cols):
        raise ValueError("symmetric spec requires a square matrix")
    return spec


#### spec constructors for the named families ####


def contingency_spec(rows, cols) -> MatrixCountSpec:
    return MatrixCountSpec(_parts(rows) or (0,), _parts(cols) or (0,), exact=True)


def _uniform(k: int, limit: int, exact: bool, symmetric: bool = False) -> MatrixCountSpec:
    if limit < 0:  # checked first, even when k < 1 leaves no line to carry it
        raise ValueError(_NEGATIVE)
    return _checked(MatrixCountSpec((limit,) * k, (limit,) * k, exact, symmetric))


def magic_spec(k: int, j: int) -> MatrixCountSpec:
    return _uniform(k, j, exact=True)


def pseudomagic_spec(k: int, l: int) -> MatrixCountSpec:
    return _uniform(k, l, exact=False)


def pseudomagic_multi_spec(bounds) -> MatrixCountSpec:
    bounds = tuple(int(b) for b in bounds)
    return _checked(MatrixCountSpec(bounds, bounds, exact=False))


def symmetric_even_spec(k: int, j: int) -> MatrixCountSpec:
    return _uniform(k, j, exact=True, symmetric=True)


def symmetric_even_bounded_spec(k: int, l: int) -> MatrixCountSpec:
    return _uniform(k, l, exact=False, symmetric=True)


#### dynamic-programming kernels ####


def _place(caps, t, weight, out):
    """Add ``weight`` to ``out[left]`` for each way to put ``t`` units into rows of capacity ``caps``.

    Needs ``t <= sum(caps)``; ``left`` is the sorted multiset of nonzero
    leftover capacities.  An odometer over ``take`` fills rows greedily from
    the left, then moves one unit from the rightmost row that can still pass
    a unit to the rows after it, so the depth is an index, not a stack frame.
    """
    m = len(caps)
    suffix = [0] * (m + 1)  # suffix[i]: total capacity of rows i..m-1
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + caps[i]
    take = [0] * m
    i, rem = 0, t  # rem: units still to place in rows i..m-1, never above suffix[i]
    while True:
        while i < m:
            take[i] = caps[i] if caps[i] < rem else rem
            rem -= take[i]
            i += 1
        left = tuple(sorted([c - x for c, x in zip(caps, take) if c != x], reverse=True))
        out[left] = out.get(left, 0) + weight
        i -= 1
        while i >= 0 and (take[i] == 0 or rem == suffix[i + 1]):
            rem += take[i]
            i -= 1
        if i < 0:
            return
        take[i] -= 1
        rem += 1
        i += 1


def _splits(caps, t) -> int:
    """Ways to put ``t`` units into rows of capacity ``caps``: ``[z^t] prod_i (1 + z + ... + z^caps_i)``.

    The rows then hold ``sum(caps) - t`` units of room, so this also counts the
    ways to fill two columns with sums ``t`` and ``sum(caps) - t``.  The
    coefficients are symmetric, so only the ``min(t, sum(caps) - t) + 1`` lowest
    are kept; each row multiplies them by ``1 + ... + z^c``, a window sum read
    off a running prefix sum, in O(len(caps) * t) additions.
    """
    t = min(t, sum(caps) - t)
    if t < 0:
        return 0
    coef = [1] + [0] * t
    for c in caps:
        run = list(accumulate(coef))  # run[s]: coef[0] + ... + coef[s]
        coef = run[: c + 1] + [b - a for a, b in zip(run, run[c + 1 :])]
    return coef[t]


def _count_symmetric(margins, diagonal_ways) -> int:
    """Symmetric matrices with line sums ``margins``, by a forward DP row by row.

    The state is the sorted multiset of the margins left on the rows not yet
    processed.  A row with margin ``r`` puts ``s`` units into the later rows,
    which fixes the mirrored column entries too, and ``diagonal_ways(r - s)``
    counts the diagonal entries that the remainder admits.
    """
    layer, done = {_parts(margins): 1}, 0
    while layer:
        done += layer.pop((), 0)
        nxt = {}
        for caps, w in layer.items():
            r, rest = caps[0], caps[1:]
            for s in range(min(r, sum(rest)) + 1):
                ways = diagonal_ways(r - s)
                if ways:
                    _place(rest, s, w * ways, nxt)
        layer = nxt
    return done


#### counting operations ####


def _index_sums(spec: MatrixCountSpec):
    """The line sum of each index of a symmetric spec, or None when no symmetric matrix meets it."""
    if not spec.exact:
        return tuple(map(min, spec.rows, spec.cols))
    return tuple(spec.rows) if tuple(spec.rows) == tuple(spec.cols) else None


def count(spec: MatrixCountSpec) -> int:
    """Number of matrices satisfying ``spec`` by the forward DPs; ValueError if it is malformed.

    A contingency table is filled column by column, smallest column first,
    up to its two largest columns, whose completions ``_splits`` counts in
    closed form for each state left.
    """
    rows, cols, exact, symmetric = _checked(spec)
    if symmetric:
        margins = _index_sums(spec)
        if margins is None:
            return 0
        return _count_symmetric(margins, (lambda d: 1 - d % 2) if exact else (lambda d: d // 2 + 1))
    if not exact:
        rows, cols = (*rows, sum(cols)), (*cols, sum(rows))
    rows, cols = _parts(rows), _parts(cols)
    if sum(rows) != sum(cols):
        return 0
    if len(cols) < 2:
        return 1
    layer = {rows: 1}
    for c in cols[:1:-1]:  # smallest first; the two largest go to _splits
        nxt = {}
        for caps, w in layer.items():
            _place(caps, c, w, nxt)
        layer = nxt
    return sum(w * _splits(caps, cols[1]) for caps, w in layer.items())


def count_contingency(rows, cols) -> int:
    """Number of nonnegative integer matrices with row sums ``rows`` and column sums ``cols``.

    Zero parts are dropped and the order is free; 0 when the weights differ.
    """
    return count(contingency_spec(rows, cols))


def count_magic(k: int, j: int) -> int:
    """Number of k-by-k nonnegative integer matrices with every line sum exactly j."""
    return count(magic_spec(k, j))


def count_pseudomagic(k: int, l: int) -> int:
    """Number of k-by-k nonnegative integer matrices with every line sum at most l."""
    return count(pseudomagic_spec(k, l))


def count_pseudomagic_multi(bounds) -> int:
    """Line-sum bounds per index: row i and column i both sum to at most bounds[i]."""
    return count(pseudomagic_multi_spec(bounds))


def count_symmetric_even(k: int, j: int) -> int:
    """Symmetric k-by-k nonnegative integer matrices, line sums exactly j, even diagonal.

    Zero whenever k*j is odd: the total weight equals the diagonal sum plus
    twice the off-diagonal sum, and an even diagonal forces it even.
    """
    return count(symmetric_even_spec(k, j))


def count_symmetric_even_bounded(k: int, l: int) -> int:
    """Symmetric k-by-k nonnegative integer matrices, line sums at most l, even diagonal."""
    return count(symmetric_even_bounded_spec(k, l))


#### brute-force oracle ####


def brute_force_count(spec: MatrixCountSpec, explosion_cap: int = DEFAULT_GRID_BUDGET) -> int:
    """Count matrices satisfying ``spec`` by entry-by-entry enumeration.

    Independent of ``count``: row-major depth-first fill with running-sum
    pruning, no canonicalization, no memoization, and no recursion, so a
    budget that admits a deep grid cannot exhaust the stack.  Refuses with
    BudgetError when the raw grid (product of per-entry ranges) exceeds
    ``explosion_cap``, and a negative cap or a malformed ``spec`` with ValueError.

    A line with limit 0 forces its entries to 0, so it is dropped before the
    walk (for a symmetric spec, index i goes when row i or column i is 0).
    Every entry left has a range of at least 2, so the grid check stops
    within log2(explosion_cap) + 1 entries.
    """
    check_budget(explosion_cap)
    row_lim, col_lim, exact, sym = _checked(spec)
    if sym:
        keep = [i for i, (r, c) in enumerate(zip(row_lim, col_lim)) if r and c]
        rows, cols = [row_lim[i] for i in keep], [col_lim[i] for i in keep]
    else:
        rows, cols = [r for r in row_lim if r], [c for c in col_lim if c]
    # an exact positive sum is unmet when its line has no entry left: a symmetric
    # index dropped for its other side, or every line across it dropped
    unmet = exact and (
        sum(row_lim) > (sum(rows) if cols else 0) or sum(col_lim) > (sum(cols) if rows else 0)
    )
    row_lim, col_lim = rows, cols
    m, n = len(row_lim), len(col_lim)

    def walk():  # (row, column, largest value) of each entry, lazily
        for i in range(m):
            for jj in range(i if sym else 0, n):
                b = min(row_lim[i], col_lim[jj])
                yield i, jj, min(b, row_lim[jj], col_lim[i]) if sym and i != jj else b

    grid = 1
    for _, _, b in walk():  # before any list of entries exists
        grid *= b + 1
        if grid > explosion_cap:
            raise BudgetError(
                f"brute-force grid exceeds explosion cap {explosion_cap}"
            )
    if unmet:
        return 0
    entries = list(walk())
    if not entries:
        return 1

    target = list(col_lim)
    rsum = [0] * m
    csum = [0] * n
    last = len(entries) - 1
    count = 0
    val = [-1] * len(entries)  # value at each entry; -1 before its first try
    pos = 0  # depth is an index, not a stack frame
    while pos >= 0:
        i, jj, b = entries[pos]
        mirror = sym and i != jj
        v = val[pos]
        if v < 0:
            v = 0
        else:  # take back the last value tried here and move to the next one
            rsum[i] -= v
            csum[jj] -= v
            if mirror:
                rsum[jj] -= v
                csum[i] -= v
            v += 2 if (sym and i == jj) else 1
        # every limit only tightens as v grows, so the first miss ends this entry
        if (
            v > b
            or rsum[i] + v > row_lim[i]
            or csum[jj] + v > col_lim[jj]
            or (mirror and (rsum[jj] + v > row_lim[jj] or csum[i] + v > col_lim[i]))
        ):
            val[pos] = -1
            pos -= 1
            continue
        val[pos] = v
        rsum[i] += v
        csum[jj] += v
        if mirror:
            rsum[jj] += v
            csum[i] += v
        if jj == n - 1 and exact and rsum[i] != row_lim[i]:
            continue  # row i is complete but missed its exact sum
        if pos < last:
            pos += 1
        elif not exact or csum == target:  # every row was checked as it completed
            count += 1
    return count
