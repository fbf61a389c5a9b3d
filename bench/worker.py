"""One workload process: import, warm up, run jobs back to back, report.

Started fresh by run.py for every set-up probe and every timed run.  It
prints ``READY`` once ``import pseudomagic`` and one small job of each kind
are done, then runs the seeded job stream in a closed loop (each job starts
when the previous one returns) until the time is up, and prints one JSON
document with each job's latency and encoded output.  Outputs are encoded
after the loop so that encoding costs no job time.
"""

from __future__ import annotations

import argparse
import cmath
import json
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pseudomagic
from pseudomagic import counting, ehrhart, euler, genfun, rmt, zeta

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _cli(a):
    return subprocess.run(
        [sys.executable, "-m", "pseudomagic", *a["argv"]],
        capture_output=True, timeout=120, cwd=ROOT,
    )


def _volume(a):
    if a["family"] == "birkhoff":
        return ehrhart.birkhoff_volume(a["k"])
    return ehrhart.substochastic_volume(a["k"])


def _mv(a):
    return zeta.mv_pseudomoment(zeta.divisor_profile(a["k"], a["bounds"]))


# every call goes through a module attribute, so the tracer's wrappers see it
RUN = {
    "contingency": lambda a: counting.count_contingency(a["rows"], a["cols"]),
    "magic": lambda a: counting.count_magic(a["k"], a["j"]),
    "pseudomagic": lambda a: counting.count_pseudomagic(a["k"], a["l"]),
    "pseudomagic_multi": lambda a: counting.count_pseudomagic_multi(a["bounds"]),
    "symmetric_even": lambda a: counting.count_symmetric_even(a["k"], a["j"]),
    "magic_polynomial": lambda a: ehrhart.magic_polynomial(a["k"]),
    "pseudomagic_polynomial": lambda a: ehrhart.pseudomagic_polynomial(a["k"]),
    "symmetric_even_bounded_polynomials": lambda a: ehrhart.symmetric_even_bounded_polynomials(a["k"]),
    "h_vector": lambda a: ehrhart.h_vector(ehrhart.magic_polynomial(a["k"])),
    "volume": _volume,
    "contour_coefficient": lambda a: genfun.contour_coefficient(a["k"], a["l"]),
    "expansion_count": lambda a: genfun.expansion_count(a["alpha"], a["beta"]),
    "arithmetic_factor_a": lambda a: euler.arithmetic_factor_a(a["k"], prime_limit=a["prime_limit"]),
    "arithmetic_factor_b": lambda a: euler.arithmetic_factor_b(a["k"], prime_limit=a["prime_limit"]),
    "mv_pseudomoment": _mv,
    "convergence_ladder": lambda a: zeta.convergence_ladder(
        a["k"], a["x_list"], prime_limit=a["prime_limit"]),
    "pair_sum_oracle": lambda a: zeta.pair_sum_oracle(a["k"], a["x"]),
    "numeric_moment": lambda a: zeta.numeric_moment(
        a["k"], a["x"], a["t_max"], a["steps"], threads=a["threads"]),
    "secular_abs_moment_mc": lambda a: rmt.secular_abs_moment_mc(
        a["j"], a["k"], a["n"], a["samples"], a["seed"], threads=a["threads"]),
    "mixed_moment_mc": lambda a: rmt.mixed_moment_mc(
        a["a"], a["b"], a["n"], a["samples"], a["seed"], threads=a["threads"]),
    "truncated_poly_moment_mc": lambda a: rmt.truncated_poly_moment_mc(
        a["l"], a["k"], a["n"], cmath.exp(1j * a["z_angle"]), a["samples"], a["seed"],
        threads=a["threads"]),
    "cli": _cli,
}


def encode(v):
    """JSON form of a job's output; rationals travel as (residue mod Q, float)."""
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    if isinstance(v, Fraction):
        return {"residue": reference.residue(v), "float": float(v)}
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (list, tuple)):
        return [encode(u) for u in v]
    if isinstance(v, ehrhart.CountingPolynomial):
        return [str(c) for c in v.coefficients]
    if isinstance(v, ehrhart.ParityPolynomials):
        return {"even": encode(v.even), "odd": encode(v.odd)}
    if isinstance(v, ehrhart.HVector):
        return list(v.entries)
    if isinstance(v, euler.EulerFactorResult):
        return {"value": v.value, "tail_estimate": v.tail_estimate}
    if isinstance(v, zeta.LadderRow):
        return {"x": v.x, "exact": encode(v.exact), "full": v.prediction_full,
                "leading": v.prediction_leading, "ratio_full": v.ratio_full,
                "ratio_leading": v.ratio_leading}
    if isinstance(v, rmt.MomentEstimate):
        return {"mean": encode(complex(v.mean)) if isinstance(v.mean, complex) else float(v.mean),
                "stderr": v.stderr, "samples": v.samples, "target": v.target}
    if isinstance(v, subprocess.CompletedProcess):
        return {"rc": v.returncode, "stdout": v.stdout.decode("utf-8", "replace"),
                "stderr": v.stderr.decode("utf-8", "replace")[-300:]}
    raise TypeError(f"cannot encode {type(v)!r}")


def _run(job):
    try:
        return RUN[job["kind"]](job["args"]), None
    except Exception as exc:  # a failing job is a measured outcome, not a crash
        return None, f"{type(exc).__name__}: {exc}"[:300]


def _stream(args, deadline):
    """Jobs in seeded order until the deadline, or for a fixed number of rounds."""
    for batch in workloads.rounds(args.workload, args.seed):
        if args.rounds and batch[0]["round"] >= args.rounds:
            return
        for job in batch:
            if not args.rounds and time.perf_counter() >= deadline:
                return
            yield job


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=0, help="stop after this many rounds instead of on time")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if not Path(pseudomagic.__file__).resolve().is_relative_to(src):
        sys.exit(f"pseudomagic imported from {pseudomagic.__file__}, not from {src}")
    for job in workloads.warmups(args.workload):
        out, err = _run(job)
        if err is not None:
            sys.exit(f"warm-up job {job['kind']} failed: {err}")
    print("READY", flush=True)
    if args.setup_only:
        return

    tracer = None
    if args.trace:
        tracer = tracing.Tracer(reference.prime_count)
        tracer.install()
    records = []
    cpu0, child0 = time.process_time(), _children_cpu()
    start = end = time.perf_counter()
    for job in _stream(args, start + args.seconds):
        t0 = time.perf_counter()
        if tracer is None:
            out, err = _run(job)
        else:
            tracer.job = job["id"]
            if job["kind"] == "cli":
                with tracer.span("cli." + next(a for a in job["args"]["argv"] if a != "--json")):
                    out, err = _run(job)
            else:
                out, err = _run(job)
        end = time.perf_counter()
        records.append((job["id"], end - t0, out, err))
    wall = end - start
    cpu = time.process_time() - cpu0 + _children_cpu() - child0

    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    doc = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": child_rss if args.workload == "cli-short" else self_rss,
        "jobs": [{"id": i, "t": t, "out": None if err else encode(out), "error": err}
                 for i, t, out, err in records],
    }
    if tracer is not None:
        doc["layers"] = tracing.layer_metrics(tracer.spans)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(doc), flush=True)


if __name__ == "__main__":
    main()
