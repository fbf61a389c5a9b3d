"""Exception types, the worker-thread bound, the default budgets, the worker map and the
up-front checks of a budget and of a work size prod(b ** e) against it."""

# Ceiling on worker threads for Monte Carlo and quadrature: fixed, not the
# host's CPU count, so the same call is valid on every machine.
MAX_THREADS = 64

# Default work budgets, which --budget overrides; counting, genfun and zeta re-export theirs.
DEFAULT_GRID_BUDGET = 10**7
DEFAULT_TERM_BUDGET = 10**7
DEFAULT_TUPLE_BUDGET = 10**8
DEFAULT_PAIR_BUDGET = 10**6


class BudgetError(Exception):
    """A computation was refused because it would exceed a resource budget.

    Distinct from ValueError so that callers (and the CLI exit-code mapping)
    can tell resource refusal apart from malformed input.
    """


def check_size(powers, budget: int, unit: str) -> None:
    """Refuse with BudgetError a size prod(b ** e) over (b, e) pairs, every b >= 1, above
    ``budget``, named in factored form such as 2^3*5; a negative budget is a ValueError.
    Each power is capped at budget.bit_length() + 1 factors and the product stops once
    past the budget, so a giant size costs no more than a small one."""
    check_budget(budget)
    powers = sorted(powers)
    cap = budget.bit_length() + 1
    total = 1
    for b, e in powers:
        total *= b ** min(e, cap)
        if total > budget:
            size = "*".join(f"{b}^{e}" if e > 1 else str(b) for b, e in powers)
            raise BudgetError(f"{size} {unit} exceed the budget of {budget}")


def check_budget(budget: int) -> None:
    """Reject a negative work budget with ValueError (CLI exit 2)."""
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")


def check_threads(threads: int) -> None:
    """Reject a worker-thread count outside 1..MAX_THREADS with ValueError (CLI exit 2)."""
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must be between 1 and {MAX_THREADS}, got {threads}")


def run_workers(work, total: int, workers: int) -> list:
    """[work(w, lo, hi), ...] over min(workers, total) consecutive shares [lo, hi) of range(total),
    total >= 1, the first total % shares one larger, in share order and on a thread pool only
    for two shares or more; the first exception in share order propagates."""
    workers = min(workers, total)
    q, r = divmod(total, workers)
    edges = [w * q + min(w, r) for w in range(workers + 1)]
    if workers == 1:
        return [work(0, 0, total)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, range(workers), edges, edges[1:]))
