"""Command-line front end: every operation behind one argparse grammar.

Output discipline: plain mode prints a bare human-readable value; --json wraps
the same value in a {command, value, metadata} document.  Exact numbers are
serialized losslessly (integers natively, rationals as "p/q" strings); floats
are canonicalized to 15 significant digits before serialization so that the
emitted JSON re-serializes byte-identically after a parse round trip.  Exit
codes: 0 success, 2 usage or domain error, 3 resource-budget refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import counting, ehrhart, euler, genfun, rmt, zeta
from .errors import MAX_THREADS, BudgetError

_FAMILY_BUILDERS = {
    "contingency": ("rows cols", lambda a: counting.contingency_spec(a.rows, a.cols)),
    "magic": ("k j", lambda a: counting.magic_spec(a.k, a.j)),
    "pseudomagic": ("k l", lambda a: counting.pseudomagic_spec(a.k, a.l)),
    "pseudomagic-multi": ("bounds", lambda a: counting.pseudomagic_multi_spec(a.bounds)),
    "sym-even": ("k j", lambda a: counting.symmetric_even_spec(a.k, a.j)),
    "sym-even-bounded": ("k l", lambda a: counting.symmetric_even_bounded_spec(a.k, a.l)),
}


_J_TERMS_HELP = "accepted for compatibility and ignored: a_k's local series is in closed form"


def _int_list(text: str):
    toks = text.replace(",", " ").split()
    if not toks:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list")
    try:
        return tuple(int(t) for t in toks)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _round15(x: float) -> float:
    return float(f"{x:.15g}")


def _jsonable(v):
    if v is None or isinstance(v, (bool, str)):
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return _round15(float(v))
    if isinstance(v, (complex, np.complexfloating)):
        return [_round15(v.real), _round15(v.imag)]
    if isinstance(v, dict):
        return {str(k): _jsonable(u) for k, u in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_jsonable(u) for u in v]
    raise TypeError(f"cannot serialize {type(v)!r}")


def _plain(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.15g}"
    if isinstance(v, (int, str, Fraction)):
        return str(v)
    return json.dumps(_jsonable(v), sort_keys=True)


def _estimate_value(est: rmt.MomentEstimate) -> dict:
    z = est.z_score()
    return {
        "mean": est.mean,
        "stderr": est.stderr,
        "samples": est.samples,
        "target": est.target,
        "z": z,
    }


def _estimate_plain(est: rmt.MomentEstimate) -> str:
    mean = est.mean
    head = f"{mean:.15g}" if not isinstance(mean, complex) else f"{mean.real:.15g}{mean.imag:+.15g}j"
    out = f"mean={head} stderr={est.stderr:.6g} samples={est.samples}"
    if est.target is not None:
        out += f" target={est.target} z={est.z_score():.3g}"
    return out


#### handlers: each returns (value, metadata, plain_text_or_None) ####


def _require(a, names: str, family: str):
    for name in names.split():
        if getattr(a, name, None) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required for family {family}")


def _h_count_contingency(a):
    v = counting.count_contingency(a.rows, a.cols)
    return v, {"rows": list(a.rows), "cols": list(a.cols)}, None


def _h_count_magic(a):
    return counting.count_magic(a.k, a.j), {"k": a.k, "j": a.j}, None


def _h_count_pseudomagic(a):
    return counting.count_pseudomagic(a.k, a.l), {"k": a.k, "l": a.l}, None


def _h_count_multi(a):
    return counting.count_pseudomagic_multi(a.bounds), {"bounds": list(a.bounds)}, None


def _h_count_sym_even(a):
    return counting.count_symmetric_even(a.k, a.j), {"k": a.k, "j": a.j}, None


def _h_count_sym_even_bounded(a):
    return counting.count_symmetric_even_bounded(a.k, a.l), {"k": a.k, "l": a.l}, None


def _h_count_brute(a):
    needs, build = _FAMILY_BUILDERS[a.family]
    _require(a, needs, a.family)
    cap = a.budget if a.budget is not None else counting.DEFAULT_GRID_BUDGET
    v = counting.brute_force_count(build(a), explosion_cap=cap)
    return v, {"family": a.family, "explosion_cap": cap}, None


def _poly_payload(p: ehrhart.CountingPolynomial) -> dict:
    return {"degree": p.degree, "coefficients": p.as_strings()}


def _h_ehrhart_poly(a):
    if a.family == "sym-even-bounded":
        pair = ehrhart.symmetric_even_bounded_polynomials(a.k)
        value = {
            "even": _poly_payload(pair.even),
            "odd": _poly_payload(pair.odd),
            "leading_agree": pair.leading_coefficients_agree,
        }
        plain = (
            "even " + " ".join(pair.even.as_strings())
            + "\nodd " + " ".join(pair.odd.as_strings())
            + f"\nleading_agree {_plain(pair.leading_coefficients_agree)}"
        )
        return value, {"family": a.family, "k": a.k}, plain
    p = ehrhart.magic_polynomial(a.k) if a.family == "magic" else ehrhart.pseudomagic_polynomial(a.k)
    return _poly_payload(p), {"family": a.family, "k": a.k}, " ".join(p.as_strings())


def _h_ehrhart_hvector(a):
    p = ehrhart.magic_polynomial(a.k) if a.family == "magic" else ehrhart.pseudomagic_polynomial(a.k)
    hv = ehrhart.h_vector(p)
    value = {"entries": list(hv.entries), "stripped": list(hv.stripped())}
    return value, {"family": a.family, "k": a.k}, " ".join(str(e) for e in hv.stripped())


def _h_ehrhart_zeros(a):
    ok = ehrhart.check_trivial_zeros(ehrhart.magic_polynomial(a.k), a.k)
    return ok, {"k": a.k}, None


def _h_ehrhart_reciprocity(a):
    ok = ehrhart.check_reciprocity(ehrhart.magic_polynomial(a.k), a.k)
    return ok, {"k": a.k}, None


def _h_ehrhart_volume(a):
    v = ehrhart.substochastic_volume(a.k) if a.family == "pseudomagic" else ehrhart.birkhoff_volume(a.k)
    return v, {"family": a.family, "k": a.k}, None


def _h_oracle_contour(a):
    budget = a.budget if a.budget is not None else genfun.DEFAULT_TERM_BUDGET
    v = genfun.contour_coefficient(a.k, a.l, term_budget=budget)
    return v, {"k": a.k, "l": a.l, "term_budget": budget}, None


def _h_oracle_expansion(a):
    budget = a.budget if a.budget is not None else genfun.DEFAULT_TERM_BUDGET
    v = genfun.expansion_count(a.alpha, a.beta, cap=a.cap, term_budget=budget)
    meta = {"alpha": list(a.alpha), "beta": list(a.beta), "cap": a.cap, "term_budget": budget}
    return v, meta, None


def _profile_bounds(a):
    if a.bounds is not None:
        return a.bounds
    if a.x is None:
        raise ValueError("give either --x or --bounds")
    return a.x


def _h_zeta_profile(a):
    budget = a.budget if a.budget is not None else zeta.DEFAULT_TUPLE_BUDGET
    prof = zeta.divisor_profile(a.k, _profile_bounds(a), tuple_budget=budget)
    pairs = sorted(prof.counts.items())
    value = {
        "bounds": list(prof.bounds),
        "total_tuples": prof.total_tuples,
        "distinct_products": len(pairs),
        "counts": [[n, d] for n, d in pairs],
    }
    plain = "\n".join(f"{n} {d}" for n, d in pairs)
    return value, {"k": a.k, "tuple_budget": budget}, plain


def _h_zeta_mv(a):
    budget = a.budget if a.budget is not None else zeta.DEFAULT_TUPLE_BUDGET
    prof = zeta.divisor_profile(a.k, _profile_bounds(a), tuple_budget=budget)
    v = zeta.mv_pseudomoment(prof)
    return v, {"k": a.k, "bounds": list(prof.bounds), "tuple_budget": budget}, None


def _h_zeta_pairs(a):
    budget = a.budget if a.budget is not None else zeta.DEFAULT_PAIR_BUDGET
    v = zeta.pair_sum_oracle(a.k, a.x, pair_budget=budget)
    return v, {"k": a.k, "x": a.x, "pair_budget": budget}, None


def _h_zeta_integrate(a):
    v, err = zeta.numeric_moment(a.k, a.x, a.t_max, a.steps, threads=a.threads)
    value = {"value": v, "error": err}
    meta = {"k": a.k, "x": a.x, "t_max": a.t_max, "steps": a.steps, "threads": a.threads}
    return value, meta, f"{v:.15g} ± {err:.3g}"


def _h_zeta_predict(a):
    factor = euler.arithmetic_factor_a(a.k, prime_limit=a.prime_limit, j_terms=a.j_terms)
    gpoly = ehrhart.pseudomagic_polynomial(a.k)
    full, leading = zeta.prediction(a.k, a.x, factor.value, gpoly)
    value = {"full": full, "leading": leading, "arithmetic_factor": factor.value}
    meta = {"k": a.k, "x": a.x, "prime_limit": a.prime_limit, "j_terms": a.j_terms}
    return value, meta, f"{full:.15g} {leading:.15g}"


def _h_zeta_ladder(a):
    budget = a.budget if a.budget is not None else zeta.DEFAULT_TUPLE_BUDGET
    rows = zeta.convergence_ladder(
        a.k, a.x_list, prime_limit=a.prime_limit, j_terms=a.j_terms, tuple_budget=budget
    )
    value = [
        {
            "x": r.x,
            "exact": r.exact,
            "prediction_full": r.prediction_full,
            "prediction_leading": r.prediction_leading,
            "ratio_full": r.ratio_full,
            "ratio_leading": r.ratio_leading,
        }
        for r in rows
    ]
    meta = {"k": a.k, "prime_limit": a.prime_limit, "j_terms": a.j_terms}
    lines = ["x exact full leading ratio_full ratio_leading"]
    lines += [
        f"{r.x} {float(r.exact):.10g} {r.prediction_full:.10g} "
        f"{r.prediction_leading:.10g} {r.ratio_full:.6f} {r.ratio_leading:.6f}"
        for r in rows
    ]
    return value, meta, "\n".join(lines)


def _euler_meta(res: euler.EulerFactorResult) -> dict:
    return {
        "k": res.k,
        "prime_limit": res.prime_limit,
        "j_terms": res.j_terms,
        "tail_estimate": res.tail_estimate,
    }


def _h_euler_a(a):
    res = euler.arithmetic_factor_a(a.k, prime_limit=a.prime_limit, j_terms=a.j_terms)
    return res.value, _euler_meta(res), None


def _h_euler_b(a):
    res = euler.arithmetic_factor_b(a.k, prime_limit=a.prime_limit)
    return res.value, _euler_meta(res), None


def _h_rmt_sample(a):
    m = rmt.haar_unitary(a.n, a.seed)
    value = [[[x.real, x.imag] for x in row] for row in m]
    plain = np.array2string(m, precision=8, suppress_small=False)
    return value, {"n": a.n, "seed": a.seed}, plain


def _h_rmt_secular(a):
    e = rmt.secular_coefficients(rmt.haar_unitary(a.n, a.seed))
    value = [[x.real, x.imag] for x in e]
    plain = "\n".join(f"{j} {x.real:+.12e} {x.imag:+.12e}" for j, x in enumerate(e))
    return value, {"n": a.n, "seed": a.seed}, plain


def _h_rmt_moment(a):
    est = rmt.secular_abs_moment_mc(a.j, a.k, a.n, a.samples, a.seed, threads=a.threads)
    meta = {"j": a.j, "k": a.k, "n": a.n, "seed": a.seed, "threads": a.threads}
    return _estimate_value(est), meta, _estimate_plain(est)


def _h_rmt_mixed(a):
    est = rmt.mixed_moment_mc(a.a, a.b, a.n, a.samples, a.seed, threads=a.threads)
    meta = {"a": list(a.a), "b": list(a.b), "n": a.n, "seed": a.seed, "threads": a.threads}
    return _estimate_value(est), meta, _estimate_plain(est)


def _h_rmt_truncated(a):
    z = complex(np.exp(1j * a.z_angle))
    est = rmt.truncated_poly_moment_mc(a.l, a.k, a.n, z, a.samples, a.seed, threads=a.threads)
    meta = {
        "l": a.l, "k": a.k, "n": a.n, "z_angle": a.z_angle,
        "seed": a.seed, "threads": a.threads,
    }
    return _estimate_value(est), meta, _estimate_plain(est)


def _h_rmt_exact(a):
    return rmt.full_poly_moment_exact(a.n, a.k), {"n": a.n, "k": a.k}, None


def _h_rmt_gfactor(a):
    return rmt.g_factor(a.k), {"k": a.k}, None


#### parser construction ####


def _add_globals(p: argparse.ArgumentParser, leaf: bool):
    d = argparse.SUPPRESS if leaf else None
    p.add_argument("--json", action="store_true",
                   default=d if leaf else False, help="emit a JSON document")
    p.add_argument("--out", default=d if leaf else None, metavar="PATH",
                   help="also write the JSON document to a file")
    p.add_argument("--seed", type=int, default=d if leaf else 0, help="RNG seed")
    p.add_argument("--threads", type=int, default=d if leaf else 1,
                   help=f"worker threads for Monte Carlo and quadrature (1..{MAX_THREADS})")
    p.add_argument("--budget", type=int, default=d if leaf else None,
                   help="override the resource budget (tuples, terms, grid cells)")


def _leaf(sub, name: str, handler, help_text: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help_text)
    _add_globals(p, leaf=True)
    p.set_defaults(handler=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="pseudomagic",
        description="exact line-sum matrix counts, their polynomial laws, and the "
        "zeta-partial-sum / random-matrix statistics they predict",
    )
    _add_globals(root, leaf=False)
    groups = root.add_subparsers(dest="group", required=True)

    count = groups.add_parser("count", help="exact matrix counts").add_subparsers(
        dest="op", required=True)
    p = _leaf(count, "contingency", _h_count_contingency, "prescribed row and column sums")
    p.add_argument("--rows", type=_int_list, required=True)
    p.add_argument("--cols", type=_int_list, required=True)
    p = _leaf(count, "magic", _h_count_magic, "all line sums exactly j")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p = _leaf(count, "pseudomagic", _h_count_pseudomagic, "all line sums at most l")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p = _leaf(count, "pseudomagic-multi", _h_count_multi, "per-index line-sum bounds")
    p.add_argument("--bounds", type=_int_list, required=True)
    p = _leaf(count, "sym-even", _h_count_sym_even, "symmetric, even diagonal, exact sums")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p = _leaf(count, "sym-even-bounded", _h_count_sym_even_bounded,
              "symmetric, even diagonal, bounded sums")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p = _leaf(count, "brute", _h_count_brute, "entry-by-entry enumeration oracle")
    p.add_argument("--family", choices=sorted(_FAMILY_BUILDERS), required=True)
    p.add_argument("--rows", type=_int_list)
    p.add_argument("--cols", type=_int_list)
    p.add_argument("--bounds", type=_int_list)
    p.add_argument("--k", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--l", type=int)

    ehr = groups.add_parser("ehrhart", help="count polynomials and volumes").add_subparsers(
        dest="op", required=True)
    p = _leaf(ehr, "poly", _h_ehrhart_poly, "reconstruct the count polynomial")
    p.add_argument("--family", choices=["magic", "pseudomagic", "sym-even-bounded"],
                   required=True)
    p.add_argument("--k", type=int, required=True)
    p = _leaf(ehr, "hvector", _h_ehrhart_hvector, "numerator vector of the count series")
    p.add_argument("--family", choices=["magic", "pseudomagic"], default="magic")
    p.add_argument("--k", type=int, required=True)
    p = _leaf(ehr, "zeros", _h_ehrhart_zeros, "check the trivial negative zeros")
    p.add_argument("--k", type=int, required=True)
    p = _leaf(ehr, "reciprocity", _h_ehrhart_reciprocity, "check the reflection identity")
    p.add_argument("--k", type=int, required=True)
    p = _leaf(ehr, "volume", _h_ehrhart_volume, "polytope volume from the leading coefficient")
    p.add_argument("--family", choices=["pseudomagic", "magic"], required=True)
    p.add_argument("--k", type=int, required=True)

    orc = groups.add_parser("oracle", help="generating-function cross-checks").add_subparsers(
        dest="op", required=True)
    p = _leaf(orc, "contour", _h_oracle_contour, "bounded count as a master-series coefficient")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p = _leaf(orc, "expansion", _h_oracle_expansion, "contingency count as a series coefficient")
    p.add_argument("--alpha", type=_int_list, required=True)
    p.add_argument("--beta", type=_int_list, required=True)
    p.add_argument("--cap", type=int, default=None)

    zt = groups.add_parser("zeta", help="partial-sum pseudomoments").add_subparsers(
        dest="op", required=True)
    p = _leaf(zt, "profile", _h_zeta_profile, "restricted divisor counts")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=int)
    p.add_argument("--bounds", type=_int_list)
    p = _leaf(zt, "mv", _h_zeta_mv, "exact mean value of the squared partial sum")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=int)
    p.add_argument("--bounds", type=_int_list)
    p = _leaf(zt, "pairs", _h_zeta_pairs, "pair-enumeration oracle for the mean value")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p = _leaf(zt, "integrate", _h_zeta_integrate, "direct trapezoid time average")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p = _leaf(zt, "predict", _h_zeta_predict, "arithmetic-factor times count-polynomial")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--prime-limit", type=int, default=10**5)
    p.add_argument("--j-terms", type=int, default=64, help=_J_TERMS_HELP)
    p = _leaf(zt, "ladder", _h_zeta_ladder, "exact vs. prediction across cutoffs")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x-list", type=_int_list, required=True)
    p.add_argument("--prime-limit", type=int, default=10**5)
    p.add_argument("--j-terms", type=int, default=64, help=_J_TERMS_HELP)

    eu = groups.add_parser("euler", help="arithmetic factors").add_subparsers(
        dest="op", required=True)
    p = _leaf(eu, "a", _h_euler_a, "unitary arithmetic factor")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--prime-limit", type=int, default=10**5)
    p.add_argument("--j-terms", type=int, default=64, help=_J_TERMS_HELP)
    p = _leaf(eu, "b", _h_euler_b, "symplectic arithmetic factor")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--prime-limit", type=int, default=10**5)

    rm = groups.add_parser("rmt", help="Haar-unitary Monte Carlo").add_subparsers(
        dest="op", required=True)
    p = _leaf(rm, "sample", _h_rmt_sample, "draw one Haar unitary")
    p.add_argument("--n", type=int, required=True)
    p = _leaf(rm, "secular", _h_rmt_secular, "secular coefficients of one draw")
    p.add_argument("--n", type=int, required=True)
    p = _leaf(rm, "moment", _h_rmt_moment, "E|e_j|^(2k) against the magic count")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p = _leaf(rm, "mixed", _h_rmt_mixed, "mixed secular moment against the contingency count")
    p.add_argument("--a", type=_int_list, required=True)
    p.add_argument("--b", type=_int_list, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p = _leaf(rm, "truncated", _h_rmt_truncated,
              "truncated characteristic polynomial moment against the bounded count")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--z-angle", type=float, default=0.0)
    p = _leaf(rm, "exact", _h_rmt_exact, "full polynomial moment, exact rational")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p = _leaf(rm, "gfactor", _h_rmt_gfactor, "large-dimension moment scale, exact rational")
    p.add_argument("--k", type=int, required=True)

    return root


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(10**7)
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        value, metadata, plain = args.handler(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    doc = {
        "command": " ".join(argv),
        "value": _jsonable(value),
        "metadata": _jsonable(metadata),
    }
    text = json.dumps(doc, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if args.json:
        print(text)
    else:
        print(plain if plain is not None else _plain(value))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
