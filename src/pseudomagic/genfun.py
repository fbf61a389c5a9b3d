"""Truncated multivariate power series as an exact coefficient-extraction oracle.

``series_count`` counts the matrices of a ``MatrixCountSpec`` as a coefficient
of a rational function, independently of the DP and of brute force.  Each
line gets a variable and each entry a geometric factor in the variables of
the lines it adds to: the coefficient of w^rows z^cols in
1/prod_{i,j}(1 - w_i z_j) is the contingency count.  A symmetric spec has one
variable per index, a factor 1/(1 - x_i x_j) per entry above the diagonal and
1/(1 - x_i^2) per diagonal entry, which is even.  At-most sums add a factor
1/(1 - v) per variable v, which takes its line's shortfall.

A series is a plain dict from exponent multi-index to integer coefficient,
truncated at each variable's exponent in the target, which no term past it
can reach, so extraction replaces contour quadrature in exact integers.  The series
holds at most prod_i (t_i + 1) terms, checked against the budget before any factor
is formed, and a variable with target t_i = 0 takes no factor.
"""

from __future__ import annotations

from collections import Counter

from .counting import _checked, _index_sums, contingency_spec, pseudomagic_spec
from .errors import DEFAULT_TERM_BUDGET, check_budget, check_size


def _times_geometric(terms: dict, target, var_indices) -> dict:
    """``terms`` times sum_{t>=0} (prod of the given variables)^t, truncated at ``target``.

    A variable listed twice is squared in the product.
    """
    steps = [(v, var_indices.count(v)) for v in dict.fromkeys(var_indices)]
    out = {}
    for idx, coef in terms.items():
        lim = min([(target[v] - idx[v]) // m for v, m in steps])
        cur = list(idx)
        key = idx
        for _ in range(lim + 1):
            out[key] = out.get(key, 0) + coef
            for v, m in steps:
                cur[v] += m
            key = tuple(cur)
    return out


def series_count(spec, term_budget: int = DEFAULT_TERM_BUDGET) -> int:
    """Number of matrices satisfying ``spec``, as a coefficient of its generating function.

    Each variable is truncated at its own exponent t_i in the target.  A
    malformed spec is a ValueError; a series that could hold more than
    ``term_budget`` terms, prod_i (t_i + 1), is refused before any factor is formed.
    """
    rows, cols, exact, symmetric = _checked(spec)
    check_budget(term_budget)  # also where no symmetric matrix meets the spec
    target = _index_sums(spec) if symmetric else (*rows, *cols)
    if target is None:
        return 0
    live = [v for v, t in enumerate(target) if t]
    check_size(Counter(target[v] + 1 for v in live).items(), term_budget, "series terms")
    if symmetric:
        factors = [(i, j) for a, i in enumerate(live) for j in live[a:]]
    else:
        m = len(rows)
        factors = [(i, j) for i in live if i < m for j in live if j >= m]
    if not exact:
        factors += [(v,) for v in live]
    s = {(0,) * len(target): 1}
    for f in factors:
        s = _times_geometric(s, target, f)
    return s.get(tuple(target), 0)


def contour_coefficient(k: int, l: int, term_budget: int = DEFAULT_TERM_BUDGET) -> int:
    """Coefficient of (w_1...w_k z_1...z_k)^l in the bounded kernel: the bounded count."""
    if k > 0 and l >= 0:  # a refusal comes before the k-long spec is built
        check_size([(l + 1, 2 * k)], term_budget, "series terms")
    return series_count(pseudomagic_spec(k, l), term_budget=term_budget)


def expansion_count(alpha, beta, term_budget: int = DEFAULT_TERM_BUDGET) -> int:
    """Coefficient of w^alpha z^beta in 1/prod_{i,j}(1 - w_i z_j): the contingency count."""
    return series_count(contingency_spec(alpha, beta), term_budget)
