"""Benchmark of pseudomagic: seeded workloads, timed from outside, outputs checked.

Run from the root of a checkout:

    python3 bench/run.py --workload library --seed 1 --seconds 55 --trace 0

One client drives each workload in a closed loop inside a fresh worker
process (worker.py), which imports the package from ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics; set-up time is the
median over several fresh processes, from spawn to the worker's READY line.
With ``--trace 1`` the run spends half its time untraced and half traced,
and reports the per-layer metrics, the tracing overhead and the fraction of
failed jobs.  Every job output is checked against checks.py either way.
After the timed part, each run makes the one call known to fail (a deep
``count contingency``) once, outside the timed jobs, and reports whether it
still fails.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 9
PROBE_TIMEOUT = 60
CLI_PROBES = 5
DEEP_CALL = f"count contingency with {workloads.DEEP_ROWS} unit rows"


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args, extra, timeout):
    """Start worker.py; return (seconds from spawn to READY, its final JSON document or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not become ready (got {line!r})")
        out, _ = proc.communicate(timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def _timed(args, seconds, trace=0, spans_out=None):
    extra = ["--seconds", str(seconds), "--trace", str(trace), "--rounds", str(args.rounds)]
    if spans_out:
        extra += ["--spans-out", str(spans_out)]
    return _worker(args, extra, timeout=seconds + 150)


def _probe_seconds(argv):
    times = []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=_env(), cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=PROBE_TIMEOUT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _known_defect_failed():
    """Run the known-defect probe once; True while it still fails its check."""
    probe = workloads.known_defect_probe()
    proc = subprocess.run([sys.executable, "-m", "pseudomagic", *probe["args"]["argv"]],
                          env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT)
    ok, _ = checks.check(probe, {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr})
    if not ok:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        print(f"known defect still present: {DEEP_CALL} exits {proc.returncode}: {tail[0][:200]}",
              file=sys.stderr)
    return not ok


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for row in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if row.endswith(" " + name):
                    return row.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for row in fh:
                if row.startswith("model name"):
                    return row.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def machine_facts(args):
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "max_threads": workloads.max_threads(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "mpmath": _version("mpmath"),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _jobs_by_id(workload, seed, last_id):
    jobs = {}
    for batch in workloads.rounds(workload, seed):
        for job in batch:
            jobs[job["id"]] = job
        if batch[-1]["id"] >= last_id:
            return jobs


def _judge(run, jobs):
    """Check every record; return a list of (job, record, ok, z)."""
    judged = []
    for rec in run["jobs"]:
        job = jobs[rec["id"]]
        ok, z = (False, None) if rec["error"] else checks.check(job, rec["out"])
        judged.append((job, rec, ok, z))
    return judged


def _p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def _cli_p50(judged, category):
    times = [rec["t"] for job, rec, _, _ in judged
             if job["kind"] == "cli" and job["args"]["category"] == category]
    return statistics.median(times) if times else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--rounds", type=int, default=0,
                    help="run this many rounds (one job of each kind per round) instead of --seconds")
    args = ap.parse_args()

    if not (ROOT / "src" / "pseudomagic" / "__init__.py").is_file():
        sys.exit(f"no package source at {ROOT / 'src' / 'pseudomagic'}: run from a full checkout")
    facts = machine_facts(args)

    if args.trace == 0:
        setups = [_worker(args, ["--setup-only"], PROBE_TIMEOUT)[0] for _ in range(SETUPS - 1)]
        setup, run = _timed(args, args.seconds)
        setups.append(setup)
        runs = [run]
    else:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        _, base = _timed(args, args.seconds / 2)
        _, run = _timed(args, args.seconds / 2, trace=1, spans_out=spans)
        runs = [base, run]
        facts["spans_file"] = str(spans.relative_to(ROOT))

    last_id = max((rec["id"] for r in runs for rec in r["jobs"]), default=0)
    jobs = _jobs_by_id(args.workload, args.seed, last_id)
    judged = [_judge(r, jobs) for r in runs]
    every = [j for js in judged for j in js]
    attempted = len(every)
    failed = sum(1 for _, _, ok, _ in every if not ok)
    correct = attempted > 0 and failed == 0
    for job, rec, ok, _ in every:
        if not ok:
            detail = rec["error"] or json.dumps(rec["out"])[:300]
            print(f"failed job {job['id']} {job['kind']} {json.dumps(job['args'])[:300]}: {detail}",
                  file=sys.stderr)

    defect = _known_defect_failed()
    facts["known_defect_failed"] = defect

    latencies = [rec["t"] for rec in run["jobs"]]
    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "jobs_per_s": (len(latencies) / run["wall_s"], "1/s"),
            "job_p50_s": (statistics.median(latencies), "s"),
            "job_p90_s": (_p90(latencies), "s"),
            "ok_frac": (1 - failed / attempted, "1"),
            "cpu_per_job_s": (run["cpu_s"] / len(latencies), "s"),
        }
    else:
        traced = judged[1]
        metrics = {name: tuple(v) for name, v in run["layers"].items()}
        metrics["rmt.max_abs_z"] = (max((z for _, _, _, z in traced if z is not None and math.isfinite(z)),
                                        default=0.0), "1")
        metrics["cli.interpreter_s"] = (_probe_seconds(["-c", "pass"]), "s")
        metrics["cli.import_s"] = (_probe_seconds(["-c", "import pseudomagic"]), "s")
        metrics["cli.exact_cmd_p50_s"] = (_cli_p50(traced, "exact"), "s")
        metrics["cli.numeric_cmd_p50_s"] = (_cli_p50(traced, "numeric"), "s")
        metrics["cli.exit_mismatch"] = (sum(1 for job, rec, _, _ in traced if job["kind"] == "cli"
                                            and (rec["out"] or {}).get("rc") != job["args"]["rc"]), "count")
        metrics["cli.known_defect_failed"] = (int(defect), "count")
        base_rate = len(base["jobs"]) / base["wall_s"]
        metrics["trace.overhead_frac"] = (1 - len(latencies) / run["wall_s"] / base_rate, "1")
        metrics["fail_frac"] = (failed / attempted, "1")
        # the seed's draw moves peak memory of the zeta and Monte Carlo jobs by
        # 10-20%, too much for an end-to-end bound; the untraced half reports it
        metrics["mem.peak_rss_mb"] = (base["peak_rss_mb"], "MiB")

    print(json.dumps({"machine": facts}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
