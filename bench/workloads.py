"""Seeded job streams for the two benchmark workloads.

A workload is an endless sequence of rounds, each holding the same kinds of
job in a seeded order.  A library round holds an exact-counts part, a
zeta-arith part and a haar-mc part, each with every size class, and the seed
draws only the details (table margins, line sums, cutoffs, dimensions);
cli-short steps through its cases with a seeded phase.
Fixing the mix this way keeps the cost profile of a run nearly the same for
every seed, so run-to-run spread measures the program and the machine rather
than the draw.  Nothing here imports pseudomagic: the parent process rebuilds
the same jobs to check the outputs the worker process reports.
"""

from __future__ import annotations

import math
import os
import random

# rows of 1 against one column of 1200: the counting recursion takes one
# frame per row and overflows the interpreter stack (exit 1, RecursionError)
# until the kernel is made iterative; the right answer is 1
DEEP_ROWS = 1200


def max_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def _composition(rng: random.Random, total: int, parts: int) -> list:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _pick(seq, r: int, phase: int):
    return seq[(r + phase) % len(seq)]


#### library: exact counts ####

_SHAPES = [(3, 3), (3, 5), (4, 4), (4, 6), (5, 5), (6, 6), (3, 6), (5, 6)]
_MAGIC = [(3, 20, 30), (4, 8, 11), (5, 4, 6)]
_BOUNDED = [(3, 5, 9), (4, 3, 5)]
_SYM_EVEN = [(4, (4, 6, 8)), (5, (2, 4, 6))]
_VOLUMES = [("birkhoff", 3), ("substochastic", 2), ("birkhoff", 4), ("substochastic", 3)]


def _exact_round(rng, r, ph):
    # every round holds every size class, so the latency ranks are the same
    # in every round; only table margins and line sums are drawn.  The
    # sixteen one-shot tables (two per shape) put the median job among them.
    jobs = []
    for m, n in _SHAPES + _SHAPES:
        w = rng.randint(max(8, m, n), 24)
        jobs.append(("contingency", {"rows": _composition(rng, w, m), "cols": _composition(rng, w, n)}))
    for k, lo, hi in _MAGIC:
        jobs.append(("magic", {"k": k, "j": rng.randint(lo, hi)}))
    for k, lo, hi in _BOUNDED:
        jobs.append(("pseudomagic", {"k": k, "l": rng.randint(lo, hi)}))
    size = rng.choice((3, 4))
    top = 8 if size == 3 else 5
    jobs.append(("pseudomagic_multi", {"bounds": [rng.randint(1, top) for _ in range(size)]}))
    for k, js in _SYM_EVEN:
        jobs.append(("symmetric_even", {"k": k, "j": rng.choice(js)}))
    for k in (3, 4):
        jobs.append(("magic_polynomial", {"k": k}))
        jobs.append(("h_vector", {"k": k}))
    for k in (2, 3):
        jobs.append(("pseudomagic_polynomial", {"k": k}))
    jobs.append(("symmetric_even_bounded_polynomials", {"k": 3}))
    for family, k in _VOLUMES:
        jobs.append(("volume", {"family": family, "k": k}))
    jobs.append(("contour_coefficient", {"k": 2, "l": rng.randint(2, 6)}))
    jobs.append(("contour_coefficient", {"k": 3, "l": rng.randint(1, 3)}))
    m = rng.randint(2, 3)
    while True:  # parts of at most 4 keep (cap+1)^6 inside the default term budget
        w = rng.randint(4, 7)
        alpha, beta = _composition(rng, w, m), _composition(rng, w, 6 - m)
        if max(alpha + beta) <= 4:
            break
    jobs.append(("expansion_count", {"alpha": alpha, "beta": beta}))
    return jobs


#### library: zeta and Euler products ####


def _zeta_round(rng, r, ph):
    # cheap pair and quadrature jobs, a block of six Euler factors b_k around
    # the median, divisor mean values and two ladders above it, and the three
    # a_k products on top
    jobs = []
    for k in (1, 2, 3):
        jobs.append(("arithmetic_factor_a", {"k": k, "prime_limit": rng.randint(2000, 2050)}))
        for _ in range(2):
            jobs.append(("arithmetic_factor_b", {"k": k, "prime_limit": rng.randint(2000, 2500)}))
    for bounds in ([rng.randint(20000, 30000)], [rng.randint(200, 400)] * 2,
                   [rng.randint(100, 200), rng.randint(300, 600)], [rng.randint(30, 50)] * 3):
        jobs.append(("mv_pseudomoment", {"k": len(bounds), "bounds": bounds}))
    for k, (lo, hi) in ((1, (100, 400)), (2, (20, 60))):
        x1 = rng.randint(lo, hi)
        jobs.append(("convergence_ladder", {"k": k, "x_list": [x1, 2 * x1], "prime_limit": 1000}))
    for k, (lo, hi) in ((1, (300, 1000)), (2, (10, 31)), (3, (5, 10))):
        jobs.append(("pair_sum_oracle", {"k": k, "x": rng.randint(lo, hi)}))
    threads = (1, max_threads())
    for k in (1, 2):
        x = rng.randint(5, 40)
        t_max = float(rng.randint(50, 300))
        # 40 grid points per period of the fastest frequency k*log(x); an even
        # step count keeps the half-step comparison on the same window
        steps = 2 * math.ceil(20 * t_max * k * math.log(x) / (2 * math.pi))
        jobs.append(("numeric_moment", {"k": k, "x": x, "t_max": t_max, "steps": steps,
                                        "threads": threads[(r + k) % 2]}))
    return jobs


#### library: Haar Monte Carlo ####

# (kind, fixed arguments, n range); every round runs every case at one and at
# two threads, so per-thread sample rates compare like with like.  Cases
# marked heavy have heavy-tailed |value|^2, where the reported standard error
# understates the spread: their z-scores are reported (rmt.max_abs_z) but not
# gated.
_MC = [
    ("secular_abs_moment_mc", {"j": 2, "k": 1}, (6, 10)),
    ("secular_abs_moment_mc", {"j": 2, "k": 2, "heavy": True}, (8, 14)),
    ("secular_abs_moment_mc", {"j": 3, "k": 1}, (16, 24)),
    ("secular_abs_moment_mc", {"j": 1, "k": 2}, (18, 24)),
    ("mixed_moment_mc", {"a": [1, 1], "b": [1, 1]}, (6, 12)),
    ("mixed_moment_mc", {"a": [2, 0, 1], "b": [1, 2, 0], "heavy": True}, (8, 16)),
    ("mixed_moment_mc", {"a": [0, 1], "b": [2, 0]}, (16, 24)),
    ("mixed_moment_mc", {"a": [1, 1], "b": [0, 0]}, (8, 14)),
    ("truncated_poly_moment_mc", {"l": 2, "k": 1}, (6, 12)),
    ("truncated_poly_moment_mc", {"l": 2, "k": 2, "heavy": True}, (8, 14)),
    ("truncated_poly_moment_mc", {"l": 3, "k": 1}, (16, 24)),
    ("truncated_poly_moment_mc", {"l": 1, "k": 2}, (18, 24)),
]
# samples * n^2 is drawn from this range (then held to 1000..20000 samples),
# so sample stacks are about the same size whatever dimension a case draws
_STACK = (600_000, 800_000)


def _haar_round(rng, r, ph):
    jobs = []
    for kind, fixed, (nlo, nhi) in _MC:
        n = rng.randint(nlo, nhi)
        args = dict(fixed, n=n, samples=min(20000, max(1000, rng.randint(*_STACK) // (n * n))))
        if kind == "truncated_poly_moment_mc":
            args["z_angle"] = round(rng.uniform(0, 2 * math.pi), 6)
        for threads in (1, max_threads()):
            jobs.append((kind, dict(args, seed=rng.randrange(2**32), threads=threads)))
    return jobs


#### cli-short ####


def _cli(argv, category, rc=0):
    return {"argv": [str(a) for a in argv], "category": category, "rc": rc}


def _join(parts):
    return ",".join(str(p) for p in parts)


def _cli_round(rng, r, ph):
    t = max_threads()
    k = _pick((3, 4), r, ph[0])
    jobs = [
        _cli(["count", "magic", "--k", k, "--j", rng.randint(2, 12 if k == 3 else 6)], "exact"),
        _cli(["count", "contingency", "--rows", _join(_composition(rng, 12, 4)),
              "--cols", _join(_composition(rng, 12, 3))], "exact"),
        _cli(["ehrhart", "hvector", "--k", _pick((3, 4), r, ph[1])], "exact"),
        _cli(["ehrhart", "volume", "--family", "magic", "--k", _pick((3, 4), r, ph[2])], "exact"),
        _cli(["oracle", "contour", "--k", 2, "--l", rng.randint(1, 5)], "exact"),
        _cli(["zeta", "mv", "--k", 2, "--x", rng.randint(2, 12)], "exact"),
        _cli(["zeta", "pairs", "--k", 2, "--x", rng.randint(2, 8)], "exact"),
        _cli(["rmt", "exact", "--n", rng.randint(2, 8), "--k", rng.randint(1, 3)], "exact"),
        _cli(["rmt", "gfactor", "--k", rng.randint(1, 5)], "exact"),
        _cli(["--json", "rmt", "moment", "--j", 2, "--k", rng.randint(1, 2), "--n", 6,
              "--samples", rng.randint(2000, 6000), "--seed", rng.randrange(2**31),
              "--threads", _pick((1, t), r, ph[3])], "numeric"),
        _cli(["--json", "zeta", "integrate", "--k", 1, "--x", rng.randint(5, 20),
              "--t-max", 100.0, "--steps", 2000], "numeric"),
        _cli(["count", "magic", "--k", 0, "--j", rng.randint(1, 5)], "refusal", rc=2),
        _cli(["zeta", "pairs", "--k", 3, "--x", rng.randint(20, 40)], "refusal", rc=3),
    ]
    return [("cli", j) for j in jobs]


def known_defect_probe() -> dict:
    """The deep contingency call, run once per cli-short run outside the timed loop.

    It fails on every run until the counting kernel is made iterative.  It is
    reported by name (cli.known_defect_failed) rather than among the timed
    jobs, whose failed count would otherwise depend on how many rounds a run
    fits in.
    """
    args = _cli(["count", "contingency", "--rows", _join([1] * DEEP_ROWS), "--cols", DEEP_ROWS], "exact")
    return {"id": -1, "round": -1, "kind": "cli", "args": args}


def _library_round(rng, r, ph):
    return _exact_round(rng, r, ph) + _zeta_round(rng, r, ph) + _haar_round(rng, r, ph)


_ROUNDS = {
    "library": _library_round,
    "cli-short": _cli_round,
}
WORKLOADS = tuple(_ROUNDS)


def rounds(workload: str, seed: int):
    """Endless rounds of jobs; each job is {"id", "round", "kind", "args"}."""
    rng = random.Random(f"{workload}/{seed}")
    phases = [rng.randrange(1 << 20) for _ in range(10)]
    build = _ROUNDS[workload]
    next_id = 0
    r = 0
    while True:
        batch = build(rng, r, phases)
        rng.shuffle(batch)
        out = []
        for kind, args in batch:
            out.append({"id": next_id, "round": r, "kind": kind, "args": args})
            next_id += 1
        yield out
        r += 1


def warmups(workload: str) -> list:
    """One small untimed job of each kind, run during set-up."""
    small = {
        "library": [
            ("contingency", {"rows": [2, 1], "cols": [2, 1]}),
            ("magic", {"k": 3, "j": 2}),
            ("pseudomagic", {"k": 2, "l": 2}),
            ("pseudomagic_multi", {"bounds": [1, 2]}),
            ("symmetric_even", {"k": 3, "j": 2}),
            ("magic_polynomial", {"k": 2}),
            ("pseudomagic_polynomial", {"k": 1}),
            ("symmetric_even_bounded_polynomials", {"k": 1}),
            ("h_vector", {"k": 2}),
            ("volume", {"family": "birkhoff", "k": 2}),
            ("contour_coefficient", {"k": 1, "l": 1}),
            ("expansion_count", {"alpha": [1, 1], "beta": [2]}),
            ("arithmetic_factor_a", {"k": 2, "prime_limit": 50}),
            ("arithmetic_factor_b", {"k": 2, "prime_limit": 50}),
            ("mv_pseudomoment", {"k": 2, "bounds": [5, 5]}),
            ("convergence_ladder", {"k": 1, "x_list": [5], "prime_limit": 50}),
            ("pair_sum_oracle", {"k": 1, "x": 5}),
            ("numeric_moment", {"k": 1, "x": 3, "t_max": 10.0, "steps": 40, "threads": max_threads()}),
            ("secular_abs_moment_mc", {"j": 1, "k": 1, "n": 2, "samples": 64, "seed": 0,
                                       "threads": 1}),
            ("mixed_moment_mc", {"a": [1], "b": [1], "n": 2, "samples": 64, "seed": 0,
                                 "threads": max_threads()}),
            ("truncated_poly_moment_mc", {"l": 1, "k": 1, "n": 2, "z_angle": 0.0, "samples": 64,
                                          "seed": 0, "threads": 1}),
        ],
        "cli-short": [("cli", _cli(["count", "magic", "--k", 2, "--j", 1], "exact"))],
    }[workload]
    return [{"id": -1 - i, "round": -1, "kind": kind, "args": args} for i, (kind, args) in enumerate(small)]
