"""Command-line front end: every operation behind one argparse grammar.

Each leaf command is one row of COMMANDS: its group, name, help text, flags
(keys of FLAGS), the metadata keys of its JSON document and a handler.  One
loop builds the parser from the table.  A handler returns the value, or an
Out that adds the plain-mode text and any metadata not read from the parsed
arguments; main assembles the document.

Output discipline: plain mode prints a bare human-readable value; --json wraps
the same value in a {command, value, metadata} document.  Exact numbers are
serialized losslessly (integers natively, rationals as "p/q" strings); floats
are canonicalized to 15 significant digits before serialization so that the
emitted JSON re-serializes byte-identically after a parse round trip.  Exit
codes: 0 success, 1 failed internal verification (a RuntimeError), 2 usage or
domain error or an unwritable --out path, 3 resource-budget refusal, exhausted
memory, or a size past the machine's index range (an OverflowError, reported
by the first integer flag past sys.maxsize when one is) or a float result past
the float range: an infinite or NaN float anywhere in the value, which the
serializer refuses by its key, or an Euler factor that underflowed to 0.0 (a
_FloatRangeError, which names the value).  Each error is one stderr
line, and so is each warning the library raises ("warning: ...").

A call loads only what it runs: a _Layer imports its layer at the first read,
numpy and json load only where a handler or --json/--out uses them, and a group
or leaf parser adds its arguments at its first parse; help still names them all.
"""

from __future__ import annotations

import argparse
import cmath
import sys
import warnings
from functools import partial
from importlib import import_module
from types import ModuleType
from typing import Callable, NamedTuple

from .errors import (DEFAULT_GRID_BUDGET, DEFAULT_PAIR_BUDGET, DEFAULT_TERM_BUDGET,
                     DEFAULT_TUPLE_BUDGET, MAX_THREADS, BudgetError)


class _Layer(ModuleType):
    """A layer module, imported at the first attribute read; each read sees a patched name."""

    def __getattr__(self, attr):
        return getattr(import_module(self.__name__), attr)


counting, ehrhart, euler, genfun, rmt, zeta = (
    _Layer(f"{__package__}.{m}") for m in ("counting", "ehrhart", "euler", "genfun", "rmt", "zeta"))

_FAMILY_BUILDERS = {
    "contingency": ("rows cols", "contingency_spec"),
    "magic": ("k j", "magic_spec"),
    "pseudomagic": ("k l", "pseudomagic_spec"),
    "pseudomagic-multi": ("bounds", "pseudomagic_multi_spec"),
    "sym-even": ("k j", "symmetric_even_spec"),
    "sym-even-bounded": ("k l", "symmetric_even_bounded_spec"),
}

# A command's one budget, by its metadata name: --budget, else this default.
_BUDGETS = {
    "explosion_cap": DEFAULT_GRID_BUDGET,
    "term_budget": DEFAULT_TERM_BUDGET,
    "tuple_budget": DEFAULT_TUPLE_BUDGET,
    "pair_budget": DEFAULT_PAIR_BUDGET,
}


def _int_list(text: str):
    toks = text.replace(",", " ").split()
    if not toks:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list")
    try:
        return tuple(int(t) for t in toks)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# add_argument keywords per flag.  A flag is required unless it has a default
# or its row writes it with a trailing "?"; the option is "--" + the key up to
# any ".", so "family.poly" is --family with the choices of `ehrhart poly`.
FLAGS = {
    **{name: {"type": int} for name in ("k", "j", "l", "n", "x", "samples", "steps")},
    **{name: {"type": _int_list} for name in ("rows", "cols", "bounds", "alpha", "beta",
                                               "x-list", "a", "b")},
    "x.real": {"type": float},
    "t-max": {"type": float},
    "z-angle": {"type": float, "default": 0.0},
    "prime-limit": {"type": int, "default": 10**5},
    "family.brute": {"choices": sorted(_FAMILY_BUILDERS)},
    "family.poly": {"choices": ["magic", "pseudomagic", "sym-even-bounded"]},
    "family.hvector": {"choices": ["magic", "pseudomagic"], "default": "magic"},
    "family.volume": {"choices": ["pseudomagic", "magic"]},
}


def _round15(x: float) -> float:
    return float(f"{x:.15g}")


class _FloatRangeError(OverflowError):
    """A float result outside float64's range (exit 3); its text is the error line."""


def _jsonable(v, key="value"):
    """``v`` as JSON data; an infinite or NaN float or complex raises _FloatRangeError,
    named by ``key``, the dict key it sits under."""
    if v is None or isinstance(v, (bool, str)):
        return v
    # a Fraction or numpy value exists only once its module is loaded
    fractions, np = sys.modules.get("fractions"), sys.modules.get("numpy")
    if fractions is not None and isinstance(v, fractions.Fraction):
        return str(v)
    if np is not None and isinstance(v, (np.generic, np.ndarray)):
        return _jsonable(v.tolist(), key)
    if isinstance(v, int):
        return int(v)
    if isinstance(v, (float, complex)) and not cmath.isfinite(v):
        raise _FloatRangeError(f"{key} {v} is not finite: the result is past the float range")
    if isinstance(v, float):
        return _round15(float(v))
    if isinstance(v, complex):
        return [_round15(v.real), _round15(v.imag)]
    if isinstance(v, dict):
        return {str(k): _jsonable(u, str(k)) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(u, key) for u in v]
    raise TypeError(f"cannot serialize {type(v)!r}")


def _plain(v) -> str:
    """Plain text of a scalar value; a handler that returns a list or dict gives its own."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.15g}"
    return str(v)


class Out(NamedTuple):
    """A handler's value, its plain-mode text if not the value's own, and extra metadata."""

    value: object
    plain: str | None = None
    extra: dict = {}


#### handlers of the rows that are more than one call: each returns a value or an Out ####


def _brute(a):
    names, builder = _FAMILY_BUILDERS[a.family]
    params = [getattr(a, name) for name in names.split()]
    for name, v in zip(names.split(), params):
        if v is None:
            raise ValueError(f"--{name} is required for family {a.family}")
    spec = getattr(counting, builder)(*params)
    return counting.brute_force_count(spec, explosion_cap=a.explosion_cap)


def _poly_payload(p: ehrhart.CountingPolynomial) -> dict:
    return {"degree": p.degree, "coefficients": p.as_strings()}


def _polynomial(a) -> ehrhart.CountingPolynomial:
    return ehrhart.magic_polynomial(a.k) if a.family == "magic" else ehrhart.pseudomagic_polynomial(a.k)


def _poly(a):
    if a.family != "sym-even-bounded":
        p = _polynomial(a)
        return Out(_poly_payload(p), " ".join(p.as_strings()))
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
    return Out(value, plain)


def _hvector(a):
    hv = ehrhart.h_vector(_polynomial(a))
    value = {"entries": hv.entries, "stripped": hv.stripped()}
    return Out(value, " ".join(str(e) for e in hv.stripped()))


def _divisor_profile(a) -> zeta.DivisorProfile:
    if a.bounds is None and a.x is None:
        raise ValueError("give either --x or --bounds")
    if a.bounds is not None and a.x is not None:
        raise ValueError("give either --x or --bounds, not both")
    bounds = a.bounds if a.bounds is not None else a.x
    return zeta.divisor_profile(a.k, bounds, tuple_budget=a.tuple_budget)


def _profile(a):
    prof = _divisor_profile(a)
    pairs = sorted(prof.counts.items())
    value = {"bounds": prof.bounds, "total_tuples": prof.total_tuples,
             "distinct_products": len(pairs), "counts": pairs}
    return Out(value, "\n".join(f"{n} {d}" for n, d in pairs))


def _mv(a):
    prof = _divisor_profile(a)
    return Out(zeta.mv_pseudomoment(prof), extra={"bounds": prof.bounds})


def _integrate(a):
    v, err = zeta.numeric_moment(a.k, a.x, a.t_max, a.steps, threads=a.threads)
    return Out({"value": v, "error": err}, f"{v:.15g} ± {err:.3g}")


def _predict(a):
    factor = euler.arithmetic_factor_a(a.k, prime_limit=a.prime_limit).value
    full, leading = zeta.prediction(a.k, a.x, factor, ehrhart.pseudomagic_polynomial(a.k))
    value = {"full": full, "leading": leading, "arithmetic_factor": factor}
    return Out(value, f"{full:.15g} {leading:.15g}")


def _ladder(a):
    from dataclasses import asdict

    rows = zeta.convergence_ladder(a.k, a.x_list, prime_limit=a.prime_limit,
                                   tuple_budget=a.tuple_budget)
    lines = ["x exact full leading ratio_full ratio_leading"]
    lines += [
        f"{r.x} {float(r.exact):.10g} {r.prediction_full:.10g} {r.prediction_leading:.10g} "
        f"{r.ratio_full:.6f} " + ("n/a" if r.ratio_leading is None else f"{r.ratio_leading:.6f}")
        for r in rows
    ]
    return Out([asdict(r) for r in rows], "\n".join(lines))


def _euler(res: euler.EulerFactorResult):
    if res.value == 0.0:  # every local factor is positive, so the product is too
        raise _FloatRangeError(
            f"the k = {res.k} factor is below the float range: it underflowed to 0.0"
        )
    return Out(res.value, extra={"tail_estimate": res.tail_estimate})


def _sample(a):
    import numpy as np

    m = rmt.haar_unitary(a.n, a.seed)
    return Out(m, np.array2string(m, precision=8, suppress_small=False))


def _secular(a):
    rmt.check_secular_n(a.n)  # before the draw, which alone costs O(n^3)
    e = rmt.secular_coefficients(rmt.haar_unitary(a.n, a.seed))
    return Out(e, "\n".join(f"{j} {x.real:+.12e} {x.imag:+.12e}" for j, x in enumerate(e)))


def _unit(angle: float) -> complex:
    import numpy as np

    if not np.isfinite(angle):  # checked first: numpy warns on exp(1j * inf)
        raise ValueError(f"--z-angle must be finite, got {angle!r}")
    return complex(np.exp(1j * angle))


def _estimate(est: rmt.MomentEstimate):
    mean, z = est.mean, est.z_score()
    head = f"{mean:.15g}" if not isinstance(mean, complex) else f"{mean.real:.15g}{mean.imag:+.15g}j"
    plain = f"mean={head} stderr={est.stderr:.6g} samples={est.samples}"
    if est.target is not None:
        plain += f" target={est.target} z={z:.3g}"
    value = {"mean": mean, "stderr": est.stderr, "samples": est.samples, "target": est.target, "z": z}
    return Out(value, plain)


#### the command table ####


class Command(NamedTuple):
    group: str
    name: str
    help: str
    flags: str
    meta: str
    handler: Callable
    budget: str | None = None  # key of _BUDGETS that --budget sets


GROUPS = {
    "count": "exact matrix counts",
    "ehrhart": "count polynomials and volumes",
    "oracle": "generating-function cross-checks",
    "zeta": "partial-sum pseudomoments",
    "euler": "arithmetic factors",
    "rmt": "Haar-unitary Monte Carlo",
}

C = Command
COMMANDS = [
    C("count", "contingency", "prescribed row and column sums", "rows cols", "rows cols",
      lambda a: counting.count_contingency(a.rows, a.cols)),
    C("count", "magic", "all line sums exactly j", "k j", "k j",
      lambda a: counting.count_magic(a.k, a.j)),
    C("count", "pseudomagic", "all line sums at most l", "k l", "k l",
      lambda a: counting.count_pseudomagic(a.k, a.l)),
    C("count", "pseudomagic-multi", "per-index line-sum bounds", "bounds", "bounds",
      lambda a: counting.count_pseudomagic_multi(a.bounds)),
    C("count", "sym-even", "symmetric, even diagonal, exact sums", "k j", "k j",
      lambda a: counting.count_symmetric_even(a.k, a.j)),
    C("count", "sym-even-bounded", "symmetric, even diagonal, bounded sums", "k l", "k l",
      lambda a: counting.count_symmetric_even_bounded(a.k, a.l)),
    C("count", "brute", "entry-by-entry enumeration oracle",
      "family.brute rows? cols? bounds? k? j? l?", "family explosion_cap", _brute, "explosion_cap"),
    C("ehrhart", "poly", "reconstruct the count polynomial", "family.poly k", "family k", _poly),
    C("ehrhart", "hvector", "numerator vector of the count series", "family.hvector k",
      "family k", _hvector),
    C("ehrhart", "zeros", "confirm the trivial negative zeros that the fit imposes "
      "(a wrong count exits 1 first)", "k", "k",
      lambda a: ehrhart.check_trivial_zeros(ehrhart.magic_polynomial(a.k), a.k)),
    C("ehrhart", "reciprocity", "confirm the reflection identity that the fit imposes "
      "(a wrong count exits 1 first)", "k", "k",
      lambda a: ehrhart.check_reciprocity(ehrhart.magic_polynomial(a.k), a.k)),
    C("ehrhart", "volume", "polytope volume from the leading coefficient", "family.volume k",
      "family k", lambda a: ehrhart.substochastic_volume(a.k) if a.family == "pseudomagic"
      else ehrhart.birkhoff_volume(a.k)),
    C("oracle", "contour", "bounded count as a master-series coefficient", "k l",
      "k l term_budget", lambda a: genfun.contour_coefficient(a.k, a.l, term_budget=a.term_budget),
      "term_budget"),
    C("oracle", "expansion", "contingency count as a series coefficient", "alpha beta",
      "alpha beta term_budget",
      lambda a: genfun.expansion_count(a.alpha, a.beta, term_budget=a.term_budget),
      "term_budget"),
    C("zeta", "profile", "restricted divisor counts", "k x? bounds?", "k tuple_budget",
      _profile, "tuple_budget"),
    C("zeta", "mv", "exact mean value of the squared partial sum", "k x? bounds?",
      "k bounds tuple_budget", _mv, "tuple_budget"),
    C("zeta", "pairs", "pair-enumeration oracle for the mean value", "k x", "k x pair_budget",
      lambda a: zeta.pair_sum_oracle(a.k, a.x, pair_budget=a.pair_budget), "pair_budget"),
    C("zeta", "integrate", "direct trapezoid time average", "k x t-max steps",
      "k x t_max steps threads", _integrate),
    C("zeta", "predict", "arithmetic-factor times count-polynomial",
      "k x.real prime-limit", "k x prime_limit", _predict),
    C("zeta", "ladder", "exact vs. prediction across cutoffs", "k x-list prime-limit",
      "k prime_limit tuple_budget", _ladder, "tuple_budget"),
    C("euler", "a", "unitary arithmetic factor", "k prime-limit", "k prime_limit tail_estimate",
      lambda a: _euler(euler.arithmetic_factor_a(a.k, prime_limit=a.prime_limit))),
    C("euler", "b", "symplectic arithmetic factor", "k prime-limit", "k prime_limit tail_estimate",
      lambda a: _euler(euler.arithmetic_factor_b(a.k, prime_limit=a.prime_limit))),
    C("rmt", "sample", "draw one Haar unitary", "n", "n seed", _sample),
    C("rmt", "secular", "secular coefficients of one draw", "n", "n seed", _secular),
    C("rmt", "moment", "E|e_j|^(2k) against the magic count", "j k n samples",
      "j k n seed threads",
      lambda a: _estimate(rmt.secular_abs_moment_mc(a.j, a.k, a.n, a.samples, a.seed,
                                                    threads=a.threads))),
    C("rmt", "mixed", "mixed secular moment against the contingency count", "a b n samples",
      "a b n seed threads",
      lambda a: _estimate(rmt.mixed_moment_mc(a.a, a.b, a.n, a.samples, a.seed, threads=a.threads))),
    C("rmt", "truncated", "truncated characteristic polynomial moment against the bounded count",
      "l k n samples z-angle", "l k n z_angle seed threads",
      lambda a: _estimate(rmt.truncated_poly_moment_mc(
          a.l, a.k, a.n, _unit(a.z_angle), a.samples, a.seed, threads=a.threads))),
    C("rmt", "exact", "full polynomial moment, exact rational", "n k", "n k",
      lambda a: rmt.full_poly_moment_exact(a.n, a.k)),
    C("rmt", "gfactor", "large-dimension moment scale, exact rational", "k", "k",
      lambda a: rmt.g_factor(a.k)),
]


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


class _LazyParser(argparse.ArgumentParser):
    """A group or leaf parser that adds its arguments, by ``fill(self)``, on its first parse."""

    fill = None

    def parse_known_args(self, args=None, namespace=None):
        fill, self.fill = self.fill, None
        if fill is not None:
            fill(self)
        return super().parse_known_args(args, namespace)


def _fill_group(group: str, p: argparse.ArgumentParser):
    ops = p.add_subparsers(dest="op", required=True, parser_class=_LazyParser)
    for cmd in (c for c in COMMANDS if c.group == group):
        ops.add_parser(cmd.name, help=cmd.help).fill = partial(_fill_leaf, cmd)


def _fill_leaf(cmd: Command, p: argparse.ArgumentParser):
    _add_globals(p, leaf=True)
    p.set_defaults(command=cmd)
    for token in cmd.flags.split():
        kw = FLAGS[token.rstrip("?")]
        required = not token.endswith("?") and "default" not in kw
        p.add_argument("--" + token.rstrip("?").split(".")[0], required=required, **kw)


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="pseudomagic",
        description="exact line-sum matrix counts, their polynomial laws, and the "
        "zeta-partial-sum / random-matrix statistics they predict",
    )
    _add_globals(root, leaf=False)
    groups = root.add_subparsers(dest="group", required=True, parser_class=_LazyParser)
    for group, group_help in GROUPS.items():
        groups.add_parser(group, help=group_help).fill = partial(_fill_group, group)
    return root


def _call(cmd: Command, args) -> tuple[Out, dict]:
    """Run a handler and serialize its value and metadata, printing each warning either
    raises as one stderr line, before any error line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            out = cmd.handler(args)
            out = out if isinstance(out, Out) else Out(out)
            metadata = {key: out.extra[key] if key in out.extra else getattr(args, key)
                        for key in cmd.meta.split()}
            return out, {"value": _jsonable(out.value), "metadata": _jsonable(metadata)}
        except OverflowError:
            caught.clear()  # its one error line says what the float warnings led to
            raise
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


def _past_index_range(cmd: Command, args) -> str | None:
    """The first integer flag of ``cmd`` whose value passes sys.maxsize, as an error text."""
    for token in cmd.flags.split():
        key = token.rstrip("?")
        name = key.split(".")[0]
        v = getattr(args, name.replace("-", "_"))
        if FLAGS[key].get("type") is int and v is not None and abs(v) > sys.maxsize:
            return f"--{name} {v} is past this machine's index range ({sys.maxsize})"
    return None


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(10**7)
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    cmd = args.command
    try:
        if cmd.budget:
            budget = _BUDGETS[cmd.budget] if args.budget is None else args.budget
            if budget < 0:
                raise ValueError(f"--budget must be nonnegative, got {budget}")
            setattr(args, cmd.budget, budget)
        out, doc = _call(cmd, args)
    except OverflowError as exc:
        text = exc if isinstance(exc, _FloatRangeError) else _past_index_range(cmd, args) or exc
        print(f"error: {text}", file=sys.stderr)
        return 3
    except (BudgetError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json or args.out:
        import json
        text = json.dumps({"command": " ".join(argv), **doc}, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    if args.json:
        print(text)
    else:
        print(out.plain if out.plain is not None else _plain(out.value))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
