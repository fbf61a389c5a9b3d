"""Correctness of every job output, judged against reference.py.

Exact values must equal the reference (rationals compare as residues mod a
prime plus their float).  Floats must fall within the handle the program
reports for them: the Euler tail estimate, the quadrature half-step
discrepancy, or a Monte Carlo z-score below Z_MAX, so that a deliberate
sampler change stays legal.  CLI calls must exit with the expected code and,
for exact commands, print the expected bytes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import reference as R

Z_MAX = 6.0
# float rounding allowed on top of a reported handle, relative to the value
ROUNDING = 1e-9
# a truncated Euler product against its closed-form twin at the same cutoff
SAME_CUTOFF = 1e-10
# the cutoff standing in for the infinite Euler product
FAR_CUTOFF = 10**6


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _rational(out, ref):
    """Encoded rational (or residue pair) against a reference Fraction or (residue, float)."""
    if isinstance(ref, Fraction):
        ref = (R.residue(ref), float(ref))
    return out["residue"] == ref[0] and _close(out["float"], ref[1], 1e-12)


def _mc(out, target, heavy=False):
    """Monte Carlo estimate: exact target, and the mean within Z_MAX standard errors of it.

    For heavy-tailed cases the naive standard error is known to understate
    the spread, so only a finite mean is required there; z is still returned.
    """
    mean = complex(*out["mean"]) if isinstance(out["mean"], list) else out["mean"]
    dev = abs(mean - target)
    z = dev / out["stderr"] if out["stderr"] else (0.0 if dev == 0 else math.inf)
    close = math.isfinite(dev) if heavy else z <= Z_MAX
    return out["target"] == target and close, z


def _euler(out, k, limit, closed_form):
    same = closed_form(k, limit)
    far = closed_form(k, FAR_CUTOFF)
    v = out["value"]
    return (_close(v, same, SAME_CUTOFF)
            and abs(v - far) <= out["tail_estimate"] + ROUNDING * abs(far))


def _quadrature(value, error, k, x, t_max):
    ref = R.window_mean(k, x, t_max)
    return abs(value - ref) <= error + ROUNDING * ref


def _real_poly(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + float(c)
    return acc


def _ladder(out, a):
    k = a["k"]
    factor = R.euler_a(k, a["prime_limit"])
    gpoly = R.bounded_poly(k)
    if [row["x"] for row in out] != a["x_list"]:
        return False
    for row in out:
        ref = R.mean_value((row["x"],) * k)
        logx = math.log(row["x"])
        full = factor * _real_poly(gpoly, logx)
        leading = factor * float(gpoly[-1]) * logx ** (k * k)
        if not (_rational(row["exact"], ref)
                and _close(row["full"], full, ROUNDING)
                and _close(row["leading"], leading, ROUNDING)
                and _close(row["ratio_full"], ref[1] / full, ROUNDING)
                and _close(row["ratio_leading"], ref[1] / leading, ROUNDING)):
            return False
    return True


def _parity_polys(out, k):
    d = k * (k + 1) // 2
    for parity, name in ((0, "even"), (1, "odd")):
        coeffs = [Fraction(c) for c in out[name]]
        if len(coeffs) > d + 1:
            return False
        for t in range(d + 1):
            l = 2 * t + parity
            if R.evaluate(coeffs, l) != R.symmetric_even(k, l, at_most=True):
                return False
    return True


def _padded_h(k):
    """The published h-vector with the trailing zeros h_vector keeps (d+1 entries)."""
    h = list(R.MAGIC_H[k])
    return h + [0] * ((k - 1) ** 2 + 1 - len(h))


def _volume(a):
    k = a["k"]
    if a["family"] == "birkhoff":
        return k ** (k - 1) * R.magic_poly(k)[-1]
    return R.bounded_poly(k)[-1]


def _mixed_target(a):
    mu = tuple(j for j, v in enumerate(a["a"], start=1) for _ in range(v))
    nu = tuple(j for j, v in enumerate(a["b"], start=1) for _ in range(v))
    return R.tables(mu, nu)


def _opt(argv, name):
    return argv[argv.index(name) + 1]


def expected_stdout(argv) -> str:
    """Exact stdout bytes of an exact CLI command, from the references."""
    group, op = [a for a in argv if a != "--json"][:2]
    k = int(_opt(argv, "--k")) if "--k" in argv else None
    if (group, op) == ("count", "magic"):
        value = R.magic_count(k, int(_opt(argv, "--j")))
    elif (group, op) == ("count", "contingency"):
        rows = tuple(int(v) for v in _opt(argv, "--rows").split(","))
        cols = tuple(int(v) for v in _opt(argv, "--cols").split(","))
        value = R.tables(rows, cols)
    elif (group, op) == ("ehrhart", "hvector"):
        value = " ".join(str(h) for h in R.MAGIC_H[k])
    elif (group, op) == ("ehrhart", "volume"):
        value = _volume({"family": "birkhoff", "k": k})
    elif (group, op) == ("oracle", "contour"):
        value = R.bounded((int(_opt(argv, "--l")),) * k)
    elif (group, op) in (("zeta", "mv"), ("zeta", "pairs")):
        value = R.mean_value_exact((int(_opt(argv, "--x")),) * k)
    elif (group, op) == ("rmt", "exact"):
        value = R.full_poly_moment(int(_opt(argv, "--n")), k)
    elif (group, op) == ("rmt", "gfactor"):
        value = R.g_factor(k)
    else:
        raise ValueError(f"no reference for {argv}")
    return f"{value}\n"


def _cli(a, out):
    if out["rc"] != a["rc"]:
        return False, None
    if a["rc"] != 0:
        return out["stdout"] == "", None
    if a["category"] == "exact":
        return out["stdout"] == expected_stdout(a["argv"]), None
    argv = a["argv"]
    value = json.loads(out["stdout"])["value"]
    if "moment" in argv:
        return _mc(value, R.magic_count(int(_opt(argv, "--k")), int(_opt(argv, "--j"))))
    return _quadrature(value["value"], value["error"], int(_opt(argv, "--k")),
                       int(_opt(argv, "--x")), float(_opt(argv, "--t-max"))), None


def check(job, out):
    """(ok, z-score or None) for one job's encoded output."""
    kind, a = job["kind"], job["args"]
    if kind == "cli":
        return _cli(a, out)
    if kind in ("secular_abs_moment_mc", "mixed_moment_mc", "truncated_poly_moment_mc"):
        if kind == "secular_abs_moment_mc":
            target = R.magic_count(a["k"], a["j"])
        elif kind == "mixed_moment_mc":
            target = _mixed_target(a)
        else:
            target = R.bounded((a["l"],) * a["k"])
        return _mc(out, target, a.get("heavy", False))
    return EXACT[kind](out, a), None


EXACT = {
    "contingency": lambda out, a: out == R.tables(tuple(a["rows"]), tuple(a["cols"])),
    "magic": lambda out, a: out == R.magic_count(a["k"], a["j"]),
    "pseudomagic": lambda out, a: out == R.bounded((a["l"],) * a["k"]),
    "pseudomagic_multi": lambda out, a: out == R.bounded(a["bounds"]),
    "symmetric_even": lambda out, a: out == R.symmetric_even(a["k"], a["j"]),
    "magic_polynomial": lambda out, a: tuple(Fraction(c) for c in out) == R.magic_poly(a["k"]),
    "pseudomagic_polynomial": lambda out, a: tuple(Fraction(c) for c in out) == R.bounded_poly(a["k"]),
    "symmetric_even_bounded_polynomials": lambda out, a: _parity_polys(out, a["k"]),
    "h_vector": lambda out, a: out == _padded_h(a["k"]),
    "volume": lambda out, a: _rational(out, _volume(a)),
    "contour_coefficient": lambda out, a: out == R.bounded((a["l"],) * a["k"]),
    "expansion_count": lambda out, a: out == R.tables(tuple(a["alpha"]), tuple(a["beta"])),
    "arithmetic_factor_a": lambda out, a: _euler(out, a["k"], a["prime_limit"], R.euler_a),
    "arithmetic_factor_b": lambda out, a: _euler(out, a["k"], a["prime_limit"], R.euler_b),
    "mv_pseudomoment": lambda out, a: _rational(out, R.mean_value(tuple(a["bounds"]))),
    "convergence_ladder": _ladder,
    "pair_sum_oracle": lambda out, a: _rational(out, R.mean_value((a["x"],) * a["k"])),
    "numeric_moment": lambda out, a: _quadrature(out[0], out[1], a["k"], a["x"], a["t_max"]),
}
