"""Command-line interface: exact stdout, JSON discipline, exit codes, reproducibility."""

import argparse
import importlib
import json
import math
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pseudomagic import cli
from pseudomagic.cli import main

UNIT_ROWS = ",".join(["1"] * 1200)


def run_cli(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# Every leaf once: its --json metadata keys and, where given, its plain and --json
# stdout bytes.  The exact values were taken from the implementation that built one
# argparse handler per leaf, so a rewrite of the front end must keep them.  The Monte
# Carlo, Haar and quadrature leaves are pinned at a fixed (seed, threads) from the
# front end that imported numpy eagerly, so the numpy-aware serialization and
# array2string paths cannot drift; the three Monte Carlo rows were re-pinned when the
# sampler moved to one random word per Verblunsky coefficient.
LEAVES = [
    (["count", "contingency", "--rows", "2,1,1", "--cols", "3,1"], "cols rows", "3\n",
     '{"metadata": {"cols": [3, 1], "rows": [2, 1, 1]}, "value": 3}'),
    (["count", "magic", "--k", "3", "--j", "2"], "j k", "21\n",
     '{"metadata": {"j": 2, "k": 3}, "value": 21}'),
    (["count", "pseudomagic", "--k", "2", "--l", "2"], "k l", "26\n",
     '{"metadata": {"k": 2, "l": 2}, "value": 26}'),
    (["count", "pseudomagic-multi", "--bounds", "3,1"], "bounds", "17\n",
     '{"metadata": {"bounds": [3, 1]}, "value": 17}'),
    (["count", "sym-even", "--k", "2", "--j", "4"], "j k", "3\n",
     '{"metadata": {"j": 4, "k": 2}, "value": 3}'),
    (["count", "sym-even-bounded", "--k", "2", "--l", "4"], "k l", "19\n",
     '{"metadata": {"k": 2, "l": 4}, "value": 19}'),
    (["count", "brute", "--family", "pseudomagic-multi", "--bounds", "2,1"],
     "explosion_cap family", "12\n",
     '{"metadata": {"explosion_cap": 10000000, "family": "pseudomagic-multi"}, "value": 12}'),
    (["ehrhart", "poly", "--family", "sym-even-bounded", "--k", "1"], "family k",
     "even 1 1/2\nodd 1/2 1/2\nleading_agree true\n",
     '{"metadata": {"family": "sym-even-bounded", "k": 1}, "value": {"even": {"coefficients": '
     '["1", "1/2"], "degree": 1}, "leading_agree": true, "odd": {"coefficients": ["1/2", "1/2"], '
     '"degree": 1}}}'),
    (["ehrhart", "hvector", "--family", "pseudomagic", "--k", "2"], "family k", "1 2 1\n",
     '{"metadata": {"family": "pseudomagic", "k": 2}, "value": {"entries": [1, 2, 1, 0, 0], '
     '"stripped": [1, 2, 1]}}'),
    (["ehrhart", "zeros", "--k", "3"], "k", "true\n",
     '{"metadata": {"k": 3}, "value": true}'),
    (["ehrhart", "reciprocity", "--k", "3"], "k", "true\n",
     '{"metadata": {"k": 3}, "value": true}'),
    (["ehrhart", "volume", "--family", "pseudomagic", "--k", "2"], "family k", "1/6\n",
     '{"metadata": {"family": "pseudomagic", "k": 2}, "value": "1/6"}'),
    (["oracle", "contour", "--k", "2", "--l", "2"], "k l term_budget", "26\n",
     '{"metadata": {"k": 2, "l": 2, "term_budget": 10000000}, "value": 26}'),
    (["oracle", "expansion", "--alpha", "2,1,1", "--beta", "3,1"], "alpha beta term_budget",
     "3\n", '{"metadata": {"alpha": [2, 1, 1], "beta": [3, 1], "term_budget": 10000000}, '
     '"value": 3}'),
    (["zeta", "profile", "--k", "2", "--bounds", "2,3"], "k tuple_budget",
     "1 1\n2 2\n3 1\n4 1\n6 1\n",
     '{"metadata": {"k": 2, "tuple_budget": 100000000}, "value": {"bounds": [2, 3], "counts": '
     '[[1, 1], [2, 2], [3, 1], [4, 1], [6, 1]], "distinct_products": 5, "total_tuples": 6}}'),
    (["zeta", "mv", "--k", "2", "--x", "3"], "bounds k tuple_budget", "193/36\n",
     '{"metadata": {"bounds": [3, 3], "k": 2, "tuple_budget": 100000000}, "value": "193/36"}'),
    (["zeta", "pairs", "--k", "2", "--x", "2"], "k pair_budget x", "13/4\n",
     '{"metadata": {"k": 2, "pair_budget": 1000000, "x": 2}, "value": "13/4"}'),
    (["zeta", "integrate", "--k", "1", "--x", "5", "--t-max", "10", "--steps", "200"],
     "k steps t_max threads x", "2.38752002044101 ± 1.11e-05\n",
     '{"metadata": {"k": 1, "steps": 200, "t_max": 10.0, "threads": 1, "x": 5}, "value": '
     '{"error": 1.11403717144576e-05, "value": 2.38752002044101}}'),
    (["zeta", "predict", "--k", "1", "--x", "100", "--prime-limit", "100"],
     "k prime_limit x", None, None),
    (["zeta", "ladder", "--k", "1", "--x-list", "10,100", "--prime-limit", "1000"],
     "k prime_limit tuple_budget", None, None),
    (["euler", "a", "--k", "2", "--prime-limit", "1000"],
     "k prime_limit tail_estimate", None, None),
    (["euler", "b", "--k", "2", "--prime-limit", "1000"],
     "k prime_limit tail_estimate", None, None),
    (["rmt", "sample", "--n", "3", "--seed", "1"], "n seed",
     "[[ 0.17786555+0.44213956j -0.35025609+0.46671548j  0.15667513+0.6386131j ]\n"
     " [-0.15603843+0.70461846j  0.49134181+0.26629122j -0.27495931-0.30205036j]\n"
     " [ 0.19096484+0.46429917j -0.46933437-0.35622295j  0.41906094-0.47452829j]]\n",
     '{"metadata": {"n": 3, "seed": 1}, "value": [[[0.177865551621191, 0.442139556831206], '
     '[-0.350256092076417, 0.466715483187722], [0.156675134462071, 0.638613097101127]], '
     '[[-0.156038433802469, 0.704618461355355], [0.491341813679874, 0.26629121526052], '
     '[-0.274959311641996, -0.302050358119125]], [[0.190964844719491, 0.464299167570371], '
     '[-0.469334368737988, -0.356222948225364], [0.419060942509504, -0.474528291060408]]]}'),
    (["rmt", "secular", "--n", "4", "--seed", "2"], "n seed",
     "0 +1.000000000000e+00 +0.000000000000e+00\n1 -1.225580232946e-01 +1.447234909320e-01\n"
     "2 -9.786388328479e-01 +6.042279190565e-01\n3 -1.842942884456e-01 +4.473223834950e-02\n"
     "4 +4.480127251726e-01 -8.940271797230e-01\n",
     '{"metadata": {"n": 4, "seed": 2}, "value": [[1.0, 0.0], [-0.122558023294568, '
     '0.144723490932043], [-0.978638832847854, 0.604227919056464], [-0.184294288445605, '
     '0.0447322383495021], [0.448012725172631, -0.894027179722962]]}'),
    (["rmt", "moment", "--j", "1", "--k", "1", "--n", "3", "--samples", "50", "--seed", "3",
      "--threads", "2"], "j k n seed threads",
     "mean=0.991149849936643 stderr=0.152551 samples=50 target=1 z=0.058\n",
     '{"metadata": {"j": 1, "k": 1, "n": 3, "seed": 3, "threads": 2}, "value": {"mean": '
     '0.991149849936643, "samples": 50, "stderr": 0.152551155176305, "target": 1, "z": '
     '0.0580143103677494}}'),
    (["rmt", "mixed", "--a", "1", "--b", "0", "--n", "3", "--samples", "50", "--seed", "4"],
     "a b n seed threads",
     "mean=0.0759070458998415+0.0576696498543149j stderr=0.141156 samples=50 target=0 z=0.675\n",
     '{"metadata": {"a": [1], "b": [0], "n": 3, "seed": 4, "threads": 1}, "value": {"mean": '
     '[0.0759070458998415, 0.0576696498543149], "samples": 50, "stderr": 0.141156412787575, '
     '"target": 0, "z": 0.675344887226419}}'),
    (["rmt", "truncated", "--l", "1", "--k", "1", "--n", "3", "--samples", "50", "--seed", "5",
      "--z-angle", "0.5"], "k l n seed threads z_angle",
     "mean=2.1839441706636 stderr=0.271644 samples=50 target=2 z=0.677\n",
     '{"metadata": {"k": 1, "l": 1, "n": 3, "seed": 5, "threads": 1, "z_angle": 0.5}, "value": '
     '{"mean": 2.1839441706636, "samples": 50, "stderr": 0.271644436961956, "target": 2, "z": '
     '0.677150516023127}}'),
    (["rmt", "exact", "--n", "20", "--k", "2"], "k n", "19481\n",
     '{"metadata": {"k": 2, "n": 20}, "value": "19481"}'),
    (["rmt", "gfactor", "--k", "2"], "k", "1/12\n",
     '{"metadata": {"k": 2}, "value": "1/12"}'),
]

# Each leaf's LEAVES call plus one of --seed, --threads and --budget that its row does not
# list, with the one argparse error it must end in.
_LEAF_ARGV = {tuple(argv[:2]): argv for argv, *_ in LEAVES}
UNREAD_FLAGS = [
    (_LEAF_ARGV[c.group, c.name] + [f"--{flag}", "1"], f"unrecognized arguments: --{flag} 1")
    for c in cli.COMMANDS for flag in ("seed", "threads", "budget")
    if flag not in {token.split(".")[0] for token in c.flags.split()}
]


@pytest.mark.numpy_free
class TestExactStdout:
    def test_count_magic(self, capsys):
        rc, out, _ = run_cli(["count", "magic", "--k", "3", "--j", "1"], capsys)
        assert rc == 0 and out == "6\n"

    def test_volume(self, capsys):
        rc, out, _ = run_cli(["ehrhart", "volume", "--family", "pseudomagic", "--k", "2"], capsys)
        assert rc == 0 and out == "1/6\n"

    def test_mv(self, capsys):
        rc, out, _ = run_cli(["zeta", "mv", "--k", "2", "--x", "2"], capsys)
        assert rc == 0 and out == "13/4\n"

    # H_1000, and a k = 2 mean value with 300 // M > 7 for every M <= 7, so that each
    # H_{300 // M} comes from the harmonic split; both pinned from the profile route
    @pytest.mark.parametrize("argv,value", [
        (["zeta", "mv", "--k", "1", "--x", "1000"], (
            "533629132822947850455910456240429804096524722803842600971013492484562688894971017575"
            "060979019850356914090887315504680983784421721178850094643023443265660225021002784256"
            "328520814055449412104425101426727702947747127089179639677796104532246924268664688882"
            "815820719848971051107968732493191555293970175089315645199760857344730141832840117244"
            "122806490743077037366831700558002936592350885893602352858528081607595747378366554131"
            "75508131522517/712886527466509305316638415571427292066835886188589304045200199115432"
            "408758111149947644415191387158691171781701957525651298026406762100925146587100430513"
            "107268626814320019660997486274593718834370501543445252373974529896314567498212823695"
            "623282379401106880926231770886197954079124775455804932647573782992335275179673524804"
            "246363805113703433121478174685087845348567802188807537324992199567205693202909939089"
            "1687487672697950931603520000")),
        (["zeta", "mv", "--k", "2", "--bounds", "7,300"], (
            "759161732757395818380660438211345083031571284468206046419594461265931533534856483912"
            "290692126567562925687773119495159143447962473917/16390394248726521133326497407173414"
            "263925508869055464253031492095973333908388408253587915640270208373764919524383883644"
            "505822080000")),
    ], ids=["k1-x1000", "k2-7-300"])
    def test_mv_closed_forms(self, capsys, argv, value):
        assert run_cli(argv, capsys) == (0, value + "\n", "")

    def test_subprocess_byte_level(self):
        out = subprocess.run(
            [sys.executable, "-m", "pseudomagic", "count", "magic", "--k", "3", "--j", "1"],
            capture_output=True, check=True,
        ).stdout
        assert out == b"6\n"


class TestBroadCoverage:
    @pytest.mark.parametrize(
        "args,expected",
        [
            (["count", "contingency", "--rows", "2,1,1", "--cols", "3,1"], "3\n"),
            (["count", "pseudomagic", "--k", "2", "--l", "2"], "26\n"),
            (["count", "pseudomagic-multi", "--bounds", "3,1"], "17\n"),
            (["count", "sym-even", "--k", "2", "--j", "4"], "3\n"),
            (["count", "sym-even-bounded", "--k", "2", "--l", "4"], "19\n"),
            (["count", "brute", "--family", "magic", "--k", "2", "--j", "3"], "4\n"),
            (["count", "brute", "--family", "contingency", "--rows", "2,1", "--cols", "2,1"], "2\n"),
            (["oracle", "contour", "--k", "2", "--l", "2"], "26\n"),
            (["oracle", "expansion", "--alpha", "2,1,1", "--beta", "3,1"], "3\n"),
            (["zeta", "pairs", "--k", "2", "--x", "2"], "13/4\n"),
            (["rmt", "exact", "--n", "2", "--k", "1"], "3\n"),
            (["rmt", "gfactor", "--k", "2"], "1/12\n"),
            (["ehrhart", "hvector", "--k", "3"], "1 1 1\n"),
            (["ehrhart", "zeros", "--k", "3"], "true\n"),
            (["ehrhart", "reciprocity", "--k", "3"], "true\n"),
            (["ehrhart", "volume", "--family", "magic", "--k", "3"], "9/8\n"),
        ],
    )
    def test_plain_scalars(self, capsys, args, expected):
        rc, out, _ = run_cli(args, capsys)
        assert rc == 0 and out == expected

    @pytest.mark.parametrize(
        "rows,cols", [(UNIT_ROWS, "1200"), ("1200", UNIT_ROWS)], ids=["unit-rows", "unit-cols"]
    )
    def test_deep_contingency(self, capsys, rows, cols):
        rc, out, _ = run_cli(["count", "contingency", "--rows", rows, "--cols", cols], capsys)
        assert rc == 0 and out == "1\n"

    def test_deep_brute(self, capsys):
        rc, out, _ = run_cli(["count", "brute", "--family", "contingency", "--rows", UNIT_ROWS,
                              "--cols", "1200", "--budget", "1" + "0" * 400], capsys)
        assert rc == 0 and out == "1\n"

    def test_poly_plain(self, capsys):
        rc, out, _ = run_cli(["ehrhart", "poly", "--family", "magic", "--k", "3"], capsys)
        assert rc == 0 and out == "1 9/4 15/8 3/4 1/8\n"

    def test_poly_parity_plain(self, capsys):
        rc, out, _ = run_cli(["ehrhart", "poly", "--family", "sym-even-bounded", "--k", "1"], capsys)
        assert rc == 0
        assert out == "even 1 1/2\nodd 1/2 1/2\nleading_agree true\n"

    def test_profile(self, capsys):
        rc, out, _ = run_cli(["zeta", "profile", "--k", "2", "--x", "2"], capsys)
        assert rc == 0 and out == "1 1\n2 2\n4 1\n"

    def test_profile_bounds(self, capsys):
        rc, out, _ = run_cli(["--json", "zeta", "mv", "--k", "2", "--bounds", "2,3"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["metadata"]["bounds"] == [2, 3]

    def test_integrate_trivial(self, capsys):
        rc, out, _ = run_cli(
            ["--json", "zeta", "integrate", "--k", "2", "--x", "1", "--t-max", "10", "--steps", "10"],
            capsys,
        )
        assert rc == 0
        assert json.loads(out)["value"] == {"error": 0.0, "value": 1.0}

    @pytest.mark.filterwarnings("error")  # the CLI must not pass the warning on
    @pytest.mark.parametrize("mode,stdout", [
        ([], "2.29179083695393 ± 0.0387\n"),
        (["--json"], '{"command": "--json zeta integrate --k 1 --x 5 --t-max 100 --steps 20", '
         '"metadata": {"k": 1, "steps": 20, "t_max": 100.0, "threads": 1, "x": 5}, '
         '"value": {"error": 0.0387490030435953, "value": 2.29179083695393}}\n'),
    ], ids=["plain", "json"])
    def test_integrate_aliasing_warning_is_one_line(self, capsys, mode, stdout):
        args = mode + ["zeta", "integrate", "--k", "1", "--x", "5", "--t-max", "100", "--steps", "20"]
        for _ in range(2):  # a repeated call warns again
            rc, out, err = run_cli(args, capsys)
            assert rc == 0 and out == stdout
            assert err == ("warning: steps=20 below the oscillation-resolving 512; "
                           "the quadrature may alias\n")

    def test_predict(self, capsys):
        rc, out, _ = run_cli(
            ["--json", "zeta", "predict", "--k", "1", "--x", "100", "--prime-limit", "100"],
            capsys,
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["value"]["full"] == pytest.approx(5.60517, rel=1e-4)

    def test_euler_json_fields(self, capsys):
        rc, out, _ = run_cli(["--json", "euler", "a", "--k", "1", "--prime-limit", "500"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["value"] == 1.0
        assert set(doc["metadata"]) == {"k", "prime_limit", "tail_estimate"}

    def test_euler_b(self, capsys):
        rc, out, _ = run_cli(["euler", "b", "--k", "1", "--prime-limit", "2"], capsys)
        assert rc == 0
        assert float(out) == pytest.approx(5 / 6, abs=1e-12)

    def test_rmt_sample_json_shape(self, capsys):
        rc, out, _ = run_cli(["--json", "rmt", "sample", "--n", "3", "--seed", "4"], capsys)
        assert rc == 0
        value = json.loads(out)["value"]
        assert len(value) == 3 and len(value[0]) == 3 and len(value[0][0]) == 2

    def test_rmt_secular(self, capsys):
        rc, out, _ = run_cli(["--json", "rmt", "secular", "--n", "4", "--seed", "4"], capsys)
        assert rc == 0
        value = json.loads(out)["value"]
        assert value[0] == [1.0, 0.0]
        assert len(value) == 5

    def test_rmt_moment_json(self, capsys):
        rc, out, _ = run_cli(
            ["--json", "rmt", "moment", "--j", "1", "--k", "1", "--n", "3",
             "--samples", "500", "--seed", "2"],
            capsys,
        )
        assert rc == 0
        v = json.loads(out)["value"]
        assert set(v) == {"mean", "stderr", "samples", "target", "z"}
        assert v["target"] == 1 and v["samples"] == 500

    def test_rmt_mixed_complex_mean(self, capsys):
        rc, out, _ = run_cli(
            ["--json", "rmt", "mixed", "--a", "1", "--b", "0", "--n", "3",
             "--samples", "500", "--seed", "2"],
            capsys,
        )
        assert rc == 0
        v = json.loads(out)["value"]
        assert isinstance(v["mean"], list) and len(v["mean"]) == 2

    def test_rmt_truncated(self, capsys):
        rc, out, _ = run_cli(
            ["--json", "rmt", "truncated", "--l", "0", "--k", "2", "--n", "3",
             "--samples", "100", "--seed", "2"],
            capsys,
        )
        assert rc == 0
        v = json.loads(out)["value"]
        assert v["mean"] == 1.0 and v["target"] == 1

    def test_ladder(self, capsys):
        rc, out, _ = run_cli(
            ["--json", "zeta", "ladder", "--k", "1", "--x-list", "10,100",
             "--prime-limit", "1000"],
            capsys,
        )
        assert rc == 0
        rows = json.loads(out)["value"]
        assert rows[0]["exact"] == "7381/2520"
        assert rows[0]["ratio_full"] < rows[1]["ratio_full"]


class TestJsonDiscipline:
    @pytest.mark.parametrize(
        "args",
        [
            ["count", "magic", "--k", "3", "--j", "2"],
            ["ehrhart", "poly", "--family", "magic", "--k", "3"],
            ["zeta", "mv", "--k", "2", "--x", "3"],
            ["euler", "b", "--k", "1", "--prime-limit", "100"],
            ["rmt", "moment", "--j", "1", "--k", "1", "--n", "3", "--samples", "200", "--seed", "3"],
        ],
    )
    def test_round_trip_idempotent(self, capsys, args):
        rc, out, _ = run_cli(["--json"] + args, capsys)
        assert rc == 0
        assert json.dumps(json.loads(out), sort_keys=True) + "\n" == out

    def test_flag_position_irrelevant(self, capsys):
        _, before, _ = run_cli(["--json", "count", "magic", "--k", "3", "--j", "1"], capsys)
        _, after, _ = run_cli(["count", "magic", "--k", "3", "--j", "1", "--json"], capsys)
        assert json.loads(before)["value"] == json.loads(after)["value"]

    def test_out_writes_json_document(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        rc, out, _ = run_cli(
            ["count", "magic", "--k", "3", "--j", "1", "--out", str(path)], capsys
        )
        assert rc == 0 and out == "6\n"  # stdout stays plain
        doc = json.loads(path.read_text())
        assert doc["value"] == 6

    def test_exact_values_lossless(self, capsys):
        rc, out, _ = run_cli(["--json", "rmt", "exact", "--n", "20", "--k", "2"], capsys)
        assert rc == 0
        from fractions import Fraction
        from pseudomagic.rmt import full_poly_moment_exact
        assert Fraction(json.loads(out)["value"]) == full_poly_moment_exact(20, 2)


class TestExitCodes:
    @pytest.mark.numpy_free
    @pytest.mark.parametrize("argv,text", [
        (["count", "magic", "--k", "3"], "the following arguments are required: --j"),
        (["count", "contingency", "--rows=", "--cols", "1"],
         "argument --rows: expected a comma-separated integer list"),
        (["count", "contingency", "--rows=1,x", "--cols", "1"],
         "argument --rows: invalid literal for int()"),
        # flags that did nothing, since removed
        (["oracle", "expansion", "--alpha", "2,1", "--beta", "3", "--cap", "3"],
         "unrecognized arguments: --cap 3"),
        (["zeta", "predict", "--k", "1", "--x", "10", "--j-terms", "5"],
         "unrecognized arguments: --j-terms 5"),
        (["zeta", "ladder", "--k", "1", "--x-list", "10", "--j-terms", "5"],
         "unrecognized arguments: --j-terms 5"),
        (["euler", "a", "--k", "2", "--j-terms", "5"], "unrecognized arguments: --j-terms 5"),
        # a flag its row does not list, on every leaf; before the group, only --json and --out,
        # and the root names any other option there rather than read its value as the group
        *UNREAD_FLAGS,
        (["--seed", "5", "count", "magic", "--k", "2", "--j", "2"],
         "argument --seed: only --json and --out go before the command; put --seed after it"),
        (["--json", "--threads=2", "rmt", "moment", "--j", "1", "--k", "1", "--n", "3"],
         "argument --threads: only --json and --out go before the command; put --threads after it"),
    ], ids=["missing-flag", "empty-list", "not-int-list", "expansion-cap", "predict-j-terms",
            "ladder-j-terms", "euler-a-j-terms",
            *[" ".join(argv[:2] + argv[-2:-1]) for argv, _ in UNREAD_FLAGS], "seed-before-group",
            "threads-after-json"])
    def test_usage_error_is_2(self, capsys, argv, text):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        # one error line, after the usage of the parser that refused: the leaf's once the
        # call names one, so a flag the leaf does not read is reported against the leaf
        prog = "pseudomagic" if argv[0].startswith("-") else "pseudomagic " + " ".join(argv[:2])
        assert err.startswith(f"usage: {prog} ") and err.count("error: ") == 1
        assert "error: " + text in err.splitlines()[-1]

    @pytest.mark.numpy_free
    def test_unknown_command_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cmd,text", [
        (["count", "magic", "--k", "0", "--j", "1"], "matrix shape must be positive"),
        (["rmt", "moment", "--j", "1", "--k", "0", "--n", "3", "--samples", "10"],
         "k must be positive"),
        (["rmt", "truncated", "--l", "1", "--k", "0", "--n", "3", "--samples", "10"],
         "k must be positive"),
        (["rmt", "exact", "--n", "3", "--k", "-1"], "k must be nonnegative"),
        (["zeta", "mv", "--k", "2"], "give either --x or --bounds"),
        (["zeta", "profile", "--k", "2"], "give either --x or --bounds"),
        (["zeta", "mv", "--k", "1", "--x", "3", "--bounds", "4"],
         "give either --x or --bounds, not both"),
        (["zeta", "profile", "--k", "2", "--x", "3", "--bounds", "4,5"],
         "give either --x or --bounds, not both"),
        (["rmt", "truncated", "--l", "0", "--k", "1", "--n", "0", "--samples", "5"],
         "n must be positive"),
        (["zeta", "predict", "--k", "1", "--x", "0", "--prime-limit", "100"],
         "x must be positive, got 0.0"),
        (["zeta", "predict", "--x", "0.5", "--k", "1", "--prime-limit", "100"],
         "x must be at least 1, got 0.5"),
        # a negative budget or seed is a domain error, not a size refusal or numpy's text
        (["zeta", "mv", "--k", "1", "--x", "5", "--budget", "-1"],
         "budget must be nonnegative, got -1"),
        (["count", "brute", "--family", "magic", "--k", "1", "--j", "1", "--budget", "-1"],
         "budget must be nonnegative, got -1"),
        (["rmt", "moment", "--j", "1", "--k", "1", "--n", "3", "--samples", "10", "--seed", "-1"],
         "seed must be nonnegative, got -1"),
        (["rmt", "sample", "--n", "3", "--seed", "-1"], "seed must be nonnegative, got -1"),
        # brute force refuses a line-sum flag that its family does not read
        (["count", "brute", "--family", "magic", "--k", "2", "--j", "2", "--rows", "1,2"],
         "--rows is not read by family magic"),
        (["count", "brute", "--family", "contingency", "--rows", "1", "--cols", "1", "--l", "4"],
         "--l is not read by family contingency"),
    ], ids=["magic-k", "moment-k", "truncated-k", "exact-k", "mv-no-x", "profile-no-x",
            "mv-x-and-bounds", "profile-x-and-bounds", "truncated-n", "predict-x",
            "predict-x-below-1", "negative-budget", "brute-negative-budget",
            "moment-negative-seed", "sample-negative-seed", "brute-unread-rows",
            "brute-unread-l"])
    def test_domain_error_is_2(self, capsys, cmd, text):
        assert run_cli(cmd, capsys) == (2, "", f"error: {text}\n")

    def test_budget_error_is_3(self, capsys):
        rc, _, err = run_cli(["zeta", "profile", "--k", "3", "--x", "1000", "--budget", "100"], capsys)
        assert rc == 3 and "budget" in err

    def test_zero_budget_is_3(self, capsys):
        rc, out, err = run_cli(["zeta", "mv", "--k", "1", "--x", "5", "--budget", "0"], capsys)
        assert (rc, out, err) == (3, "", "error: 5 tuples exceed the budget of 0\n")

    @pytest.mark.parametrize("cmd", [
        ["zeta", "integrate", "--k", "1", "--x", "5", "--t-max", "10", "--steps", "200"],
        ["rmt", "moment", "--j", "1", "--k", "1", "--n", "3", "--samples", "10"],
    ], ids=["zeta", "rmt"])
    def test_zero_threads_is_2(self, capsys, cmd):
        rc, out, err = run_cli(cmd + ["--threads", "0"], capsys)
        assert rc == 2 and out == "" and "threads" in err

    @pytest.mark.parametrize("factor,k,code", [
        ("a", "20", 0), ("a", "30", 3), ("a", "300", 3), ("a", "1000", 3), ("a", "10001", 3),
        ("b", "20", 0), ("b", "300", 3), ("b", "1200", 3),
    ])
    def test_large_k_euler_ends_in_a_value_or_a_refusal(self, capsys, factor, k, code):
        rc, out, err = run_cli(["euler", factor, "--k", k, "--prime-limit", "100"], capsys)
        assert rc == code
        if rc == 0:
            assert math.isfinite(float(out)) and err == ""
        else:
            assert out == "" and err.count("\n") == 1

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["plain", "json"])
    @pytest.mark.parametrize("factor,k", [
        ("a", "40"), ("b", "30"), ("b", "1" + "0" * 20),
    ], ids=["a-40", "b-30", "b-1e20"])
    def test_underflowed_euler_factor_is_3(self, capsys, mode, factor, k):
        # the factor is positive but below float64's range; 0 would be a wrong value
        rc, out, err = run_cli(mode + ["euler", factor, "--k", k], capsys)
        assert rc == 3 and out == ""
        assert err == f"error: the k = {k} factor is below the float range: it underflowed to 0.0\n"

    def test_euler_b_k20_keeps_its_bytes(self, capsys):
        rc, out, err = run_cli(["euler", "b", "--k", "20"], capsys)
        assert (rc, out, err) == (0, "8.51511055646834e-149\n", "")

    @pytest.mark.filterwarnings("error")  # a numpy warning would add stderr lines
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("cmd", [
        ["rmt", "truncated", "--l", "1", "--k", "1", "--n", "3", "--samples", "10", "--z-angle"],
        ["zeta", "integrate", "--k", "1", "--x", "5", "--steps", "200", "--t-max"],
        ["zeta", "predict", "--k", "1", "--prime-limit", "100", "--x"],
    ], ids=["z-angle", "t-max", "x"])
    def test_non_finite_float_is_2(self, capsys, cmd, value):
        # "--flag=-inf": argparse would read a separate "-inf" as an option
        rc, out, err = run_cli(cmd[:-1] + [f"{cmd[-1]}={value}"], capsys)
        assert rc == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("cmd,limit", [
        (["euler", "a", "--k", "1", "--prime-limit", "10000000000"], "100000000"),
        (["rmt", "sample", "--n", "100000"], "10000000"),
        (["rmt", "secular", "--n", "3162"], "400"),
        (["rmt", "moment", "--j", "1", "--k", "1", "--n", "1000000", "--samples", "4096"],
         "10000000"),
        (["zeta", "integrate", "--k", "1", "--x", "5", "--t-max", "10",
          "--steps", "100000000000"], "10000000"),
        (["zeta", "predict", "--x", "1000", "--k", "5", "--prime-limit", "50"], "k = 4"),
        (["ehrhart", "poly", "--family", "magic", "--k", "7"], "k = 6"),
        (["ehrhart", "poly", "--family", "pseudomagic", "--k", "5"], "k = 4"),
        (["ehrhart", "poly", "--family", "sym-even-bounded", "--k", "6"], "k = 5"),
        (["rmt", "gfactor", "--k", "1000"], "k = 300"),
        (["rmt", "exact", "--n", "10", "--k", "1000"], "k = 300"),
        (["rmt", "moment", "--j", "1", "--k", "1", "--n", "2440", "--samples", "16384",
          "--threads", "4"], "5000000000"),
        # over a ceiling and with an exact target or weight list that takes seconds or more
        (["rmt", "moment", "--j", "40", "--k", "8", "--n", "100000", "--samples", "1000"],
         "10000000"),
        (["rmt", "truncated", "--l", "20", "--k", "6", "--n", "100000", "--samples", "1000"],
         "10000000"),
        (["rmt", "mixed", "--a", "0,0,0,0,0,0,0,8", "--b", "0,0,0,0,0,0,0,8", "--n", "100000",
          "--samples", "1000"], "10000000"),
        (["rmt", "truncated", "--l", "3000000", "--k", "1", "--n", "3000000", "--samples", "1"],
         "5000000000"),
        (["rmt", "mixed", "--a", "1000000000", "--b", "1000000000", "--n", "100000",
          "--samples", "1000"], "10000000"),
        # a value of degree 2k = 2048 in each phase, past the 4096 phase angles' exact law
        (["rmt", "moment", "--j", "1", "--k", "1024", "--n", "3", "--samples", "10"], "4096"),
    ], ids=["prime-limit", "haar-n", "secular-n", "mc-buffer", "quadrature-grid",
            "predict-k", "magic-k", "pseudomagic-k", "sym-even-bounded-k", "gfactor-k",
            "exact-k", "mc-time", "moment-target", "truncated-target", "mixed-target",
            "truncated-weights", "mixed-multisets", "mc-phases"])
    def test_fixed_ceiling_is_3(self, capsys, cmd, limit):
        t0 = time.perf_counter()
        rc, out, err = run_cli(cmd, capsys)
        assert time.perf_counter() - t0 < 2  # refused before any allocation, draw or count
        assert rc == 3 and out == "" and err.count("\n") == 1 and limit in err

    def test_truncated_l0_has_degree_0(self, capsys):
        # |e_0 z^n|^(2k) is exactly 1, of degree 0 in every phase, so the phase law admits
        # any k at l = 0; at l = 1 the value has degree 2k and k = 1024 stays refused
        argv = ["rmt", "truncated", "--k", "1024", "--n", "1", "--samples", "10", "--l"]
        assert run_cli(argv + ["0"], capsys) == (
            0, "mean=1 stderr=0 samples=10 target=1 z=0\n", "")
        assert run_cli(argv + ["1"], capsys) == (
            3, "", "error: a Monte Carlo value of degree 2048 in each phase needs more than "
                   "4096 phase angles; the sampler draws 4096\n")

    def test_gfactor_at_its_ceiling_prints(self, capsys):
        rc, out, err = run_cli(["rmt", "gfactor", "--k", "300"], capsys)
        assert rc == 0 and err == "" and re.fullmatch(r"1/\d+\n", out)

    def test_verification_failure_is_1(self, capsys, monkeypatch):
        from pseudomagic import counting

        true = counting.count_pseudomagic
        monkeypatch.setattr(counting, "count_pseudomagic", lambda k, l: true(k, l) + (l == 2))
        rc, out, err = run_cli(["ehrhart", "poly", "--family", "pseudomagic", "--k", "3"], capsys)
        assert rc == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and "counting bug suspected" in err

    @pytest.mark.parametrize("message,line", [("", "error: out of memory\n"),
                                              ("no room", "error: no room\n")])
    def test_memory_error_is_3(self, capsys, monkeypatch, message, line):
        from pseudomagic import counting

        def exhausted(k, j):
            raise MemoryError(message)

        monkeypatch.setattr(counting, "count_magic", exhausted)
        rc, out, err = run_cli(["count", "magic", "--k", "3", "--j", "2"], capsys)
        assert rc == 3 and out == "" and err == line

    @pytest.mark.parametrize("cmd", [
        ["count", "magic", "--j", "1"],
        ["count", "pseudomagic", "--l", "1"],
        ["count", "sym-even", "--j", "1"],
        ["count", "sym-even-bounded", "--l", "1"],
        ["count", "brute", "--family", "magic", "--j", "1"],
        ["zeta", "profile", "--x", "1"],
        ["zeta", "pairs", "--x", "1"],
    ], ids=["magic", "pseudomagic", "sym-even", "sym-even-bounded", "brute", "profile", "pairs"])
    def test_overflowing_k_is_3(self, capsys, cmd):
        # k past the index range; a k between 10^8 and 2^63 would build a k-long tuple
        k = "1" + "0" * 20
        rc, out, err = run_cli(cmd + ["--k", k], capsys)
        assert rc == 3 and out == "" and err.count("\n") == 1
        assert err == f"error: --k {k} is past this machine's index range ({sys.maxsize})\n"

    def test_overflow_without_a_large_flag_keeps_its_text(self, capsys, monkeypatch):
        from pseudomagic import counting

        def overflow(k, j):
            raise OverflowError("int too large to convert to float")

        monkeypatch.setattr(counting, "count_magic", overflow)
        rc, out, err = run_cli(["count", "magic", "--k", "3", "--j", "2"], capsys)
        assert rc == 3 and out == "" and err == "error: int too large to convert to float\n"

    @pytest.mark.parametrize("cmd", [
        ["zeta", "pairs", "--k", "1000000", "--x", "2"],
        ["zeta", "pairs", "--k", "10000000", "--x", "2"],
        ["zeta", "mv", "--k", "300000", "--x", "2"],
    ], ids=["pairs-1e6", "pairs-1e7", "mv-3e5"])
    def test_giant_zeta_refusal_is_one_short_line(self, capsys, cmd):
        t0 = time.perf_counter()
        rc, out, err = run_cli(cmd, capsys)
        assert time.perf_counter() - t0 < 2  # decided without writing the count out
        assert rc == 3 and out == "" and err.count("\n") == 1 and len(err.encode()) < 200

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_unwritable_out_is_2(self, capsys, tmp_path, where):
        path = tmp_path / "no" / "x.json" if where == "missing-dir" else tmp_path
        rc, out, err = run_cli(["count", "magic", "--k", "2", "--j", "2", "--out", str(path)],
                               capsys)
        assert rc == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["plain", "json"])
    @pytest.mark.parametrize("cmd", [
        ["rmt", "moment", "--j", "2", "--k", "1000", "--n", "3", "--samples", "10"],
        ["rmt", "mixed", "--a", "1000", "--b", "1000", "--n", "3", "--samples", "10"],
        ["rmt", "truncated", "--l", "1", "--k", "1000", "--n", "3", "--samples", "10",
         "--threads", "2"],
        ["zeta", "integrate", "--k", "1000", "--x", "2", "--t-max", "1", "--steps", "4"],
        ["zeta", "integrate", "--k", "1" + "0" * 20, "--x", "2", "--t-max", "1", "--steps", "4"],
        # one sample has zero spread, so its z-score is infinite (n = 2: at n = 1,
        # |e_1| = 1 and the deviation is rounding alone, often exactly 0)
        ["rmt", "moment", "--j", "1", "--k", "1", "--n", "2", "--samples", "1"],
    ], ids=["moment", "mixed", "truncated", "integrate", "integrate-huge-k",
            "moment-one-sample"])
    def test_non_finite_result_is_3(self, capsys, cmd, mode):
        # inf or nan is no value (nor valid JSON); numpy's overflow warnings stay unprinted
        rc, out, err = run_cli(mode + cmd, capsys)
        assert rc == 3 and out == ""
        assert re.fullmatch(r"error: \w+ \S+ is not finite: the result is past the float range\n",
                            err)

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["plain", "json"])
    @pytest.mark.parametrize("k", ["1", "2"])
    def test_ladder_through_x1_keeps_every_row(self, capsys, k, mode):
        # the leading prediction is 0 at X = 1: that row's ratio to it is n/a (JSON null)
        cmd = mode + ["zeta", "ladder", "--k", k, "--prime-limit", "1000", "--x-list"]
        rc, out, err = run_cli(cmd + ["1,10"], capsys)
        _, alone, _ = run_cli(cmd + ["10"], capsys)
        assert (rc, err) == (0, "")
        if mode:
            rows, (row10,) = json.loads(out)["value"], json.loads(alone)["value"]
            assert rows[0]["x"] == 1 and rows[0]["ratio_leading"] is None
            assert rows[1] == row10
        else:
            header, row1, row10 = out.splitlines()
            assert row1.startswith("1 1 ") and row1.endswith(" n/a")
            assert [header, row10] == alone.splitlines()

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_exactly_determined_estimate_is_0(self, capsys, seed):
        # |e_1| = 1 exactly at n = 1: one sample has zero spread and a rounding-size deviation
        cmd = ["rmt", "moment", "--j", "1", "--k", "1", "--n", "1", "--samples", "1", "--seed", seed]
        rc, out, err = run_cli(cmd, capsys)
        assert (rc, err) == (0, "") and out.endswith(" stderr=0 samples=1 target=1 z=0\n")

    @pytest.mark.parametrize("cmd,family", [
        (["count", "magic", "--k", "0", "--j", "1"], "magic"),
        (["count", "sym-even-bounded", "--k", "2", "--l", "-1"], "sym-even-bounded"),
        (["count", "pseudomagic-multi", "--bounds", "2,-1"], "pseudomagic-multi"),
        (["oracle", "contour", "--k", "0", "--l", "1"], "pseudomagic"),
    ], ids=["magic", "sym-even-bounded", "pseudomagic-multi", "contour"])
    def test_one_message_per_fault(self, capsys, cmd, family):
        # the DP and the series read the spec that brute force reads, so each fault has one text
        rc, out, err = run_cli(cmd, capsys)
        brute = ["count", "brute", "--family", family] + cmd[2:]
        assert (rc, out, err) == run_cli(brute, capsys)
        assert rc == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_brute_missing_family_params_is_2(self, capsys):
        rc, _, err = run_cli(["count", "brute", "--family", "magic", "--k", "2"], capsys)
        assert rc == 2 and "--j" in err


# The cli-short commands that need no numpy: exact values and two refusals.
NUMPY_FREE = [
    ["count", "magic", "--k", "3", "--j", "5"],
    ["count", "contingency", "--rows", "3,3,3,3", "--cols", "4,4,4"],
    ["ehrhart", "hvector", "--k", "4"],
    ["ehrhart", "volume", "--family", "magic", "--k", "4"],
    ["oracle", "contour", "--k", "2", "--l", "3"],
    ["zeta", "mv", "--k", "2", "--x", "7"],
    ["zeta", "pairs", "--k", "2", "--x", "5"],
    ["rmt", "exact", "--n", "5", "--k", "2"],
    ["rmt", "gfactor", "--k", "3"],
    ["count", "magic", "--k", "0", "--j", "1"],
    ["zeta", "pairs", "--k", "3", "--x", "30"],
]

_FRESH_RUN = """
import contextlib, io, json, sys
from pseudomagic.cli import main
rows = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    rows.append([rc, out.getvalue(), err.getvalue(), sys.modules.get("numpy") is not None])
print(json.dumps(rows))
"""


def _fresh(code, *args):
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True)
    return done.stdout


# The layers each command group loads, beyond the package, cli and errors.
_GROUP_LAYERS = {"count": "counting", "ehrhart": "counting ehrhart", "oracle": "counting genfun",
                 "zeta": "euler zeta", "rmt": "rmt"}

_FRESH_LOADED = """
import contextlib, io, json, sys
from pseudomagic.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(json.loads(sys.argv[1]))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "pseudomagic")))
"""


@pytest.mark.numpy_free
class TestLazyImports:
    def test_import_loads_no_numpy(self):
        code = ("import sys, pseudomagic\nfrom pseudomagic import *\n"
                "print('numpy' in sys.modules)")
        assert _fresh(code) == "False\n"

    @pytest.mark.parametrize("prelude", ["", "import sys; sys.modules['numpy'] = None"],
                             ids=["numpy-unloaded", "numpy-blocked"])
    def test_exact_commands_run_without_numpy(self, capsys, prelude):
        rows = json.loads(_fresh(prelude + _FRESH_RUN, json.dumps(NUMPY_FREE)))
        for argv, (rc, out, err, numpy_loaded) in zip(NUMPY_FREE, rows, strict=True):
            assert not numpy_loaded, argv
            assert [rc, out, err] == list(run_cli(argv, capsys)), argv

    @pytest.mark.parametrize("argv", NUMPY_FREE, ids=[" ".join(a) for a in NUMPY_FREE])
    def test_each_command_loads_only_its_layers(self, argv):
        loaded = json.loads(_fresh(_FRESH_LOADED, json.dumps(argv)))
        layers = ["cli", "errors", *_GROUP_LAYERS[argv[0]].split()]
        assert loaded == sorted(["pseudomagic"] + [f"pseudomagic.{m}" for m in layers])

    def test_exports_are_the_submodule_objects(self):
        import importlib

        import pseudomagic

        for name in pseudomagic.__all__:
            module = importlib.import_module(f"pseudomagic.{pseudomagic._EXPORTS[name]}")
            assert getattr(pseudomagic, name) is getattr(module, name), name
        namespace = {}
        exec("from pseudomagic import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == pseudomagic.__all__
        assert set(pseudomagic.__all__) <= set(dir(pseudomagic))
        assert not hasattr(pseudomagic, "no_such_name")


class TestReproducibility:
    def test_mc_byte_identical(self, capsys):
        args = ["--json", "rmt", "moment", "--j", "2", "--k", "1", "--n", "5",
                "--samples", "2000", "--seed", "9", "--threads", "2"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_integrate_byte_identical(self, capsys):
        args = ["--json", "zeta", "integrate", "--k", "1", "--x", "5",
                "--t-max", "100", "--steps", "2000", "--threads", "2"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second

    def test_subprocess_byte_identical(self):
        cmd = [sys.executable, "-m", "pseudomagic", "--json", "rmt", "mixed",
               "--a", "2,0", "--b", "0,1", "--n", "4", "--samples", "3000",
               "--seed", "13", "--threads", "2"]
        a = subprocess.run(cmd, capture_output=True, check=True).stdout
        b = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert a == b


HELP_LISTS = [
    ([], "count ehrhart oracle zeta euler rmt"),
    (["count"], "contingency magic pseudomagic pseudomagic-multi sym-even sym-even-bounded brute"),
    (["ehrhart"], "poly hvector zeros reciprocity volume"),
    (["oracle"], "contour expansion"),
    (["zeta"], "profile mv pairs integrate predict ladder"),
    (["euler"], "a b"),
    (["rmt"], "sample secular moment mixed truncated exact gfactor"),
]


def _strict_json(text):
    """Parse a JSON document, refusing the Infinity, -Infinity and NaN that json.dumps writes."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestSurface:
    def test_every_leaf_listed_once(self):
        leaves = [" ".join(argv[:2]) for argv, *_ in LEAVES]
        listed = [f"{g[0]} {leaf}" for g, names in HELP_LISTS[1:] for leaf in names.split()]
        assert sorted(leaves) == sorted(listed) and len(listed) == 29

    @pytest.mark.parametrize("argv,keys,plain,doc", LEAVES, ids=[" ".join(c[0][:2]) for c in LEAVES])
    def test_leaf(self, capsys, argv, keys, plain, doc):
        rc, out, err = run_cli(["--json"] + argv, capsys)
        assert rc == 0 and err == ""
        assert sorted(_strict_json(out)["metadata"]) == keys.split()
        if doc is not None:
            command = json.dumps(" ".join(["--json"] + argv))
            assert out == '{"command": ' + command + ", " + doc[1:] + "\n"
            rc, out, err = run_cli(argv, capsys)
            assert rc == 0 and out == plain and err == ""

    @pytest.mark.parametrize("argv", [row[0] for row in LEAVES],
                             ids=[" ".join(row[0][:2]) for row in LEAVES])
    def test_every_listed_flag_is_read(self, argv):
        # a flag the handler never reads is accepted and ignored: it should not be listed
        reads = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        ns = cli.build_parser().parse_args(argv, namespace=Recording())
        cmd = ns.command
        reads.clear()
        cmd.handler(ns)
        flags = {cli.FLAGS[t].get("dest", t.split(".")[0].replace("-", "_"))
                 for t in cmd.flags.split() if not t.endswith("?")}
        assert flags <= reads, f"never read: {sorted(flags - reads)}"

    @pytest.mark.numpy_free
    @pytest.mark.parametrize("prefix,names", HELP_LISTS,
                             ids=[" ".join(p) or "root" for p, _ in HELP_LISTS])
    def test_help_lists_leaves_in_order(self, capsys, prefix, names):
        with pytest.raises(SystemExit) as exc:
            main(prefix + ["--help"])
        assert exc.value.code == 0
        listed = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1)
        assert listed.split(",") == names.split()

    @pytest.mark.numpy_free
    @pytest.mark.parametrize("cmd", cli.COMMANDS, ids=[f"{c.group} {c.name}" for c in cli.COMMANDS])
    def test_leaf_help_lists_every_flag(self, capsys, cmd):
        # each leaf's parser is filled only when it parses: its help must still be complete
        with pytest.raises(SystemExit) as exc:
            main([cmd.group, cmd.name, "--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)
        flags = ["--" + token.rstrip("?").split(".")[0] for token in cmd.flags.split()]
        assert listed == ["--json", "--out"] + flags


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _readme_number(text):
    """A README figure such as "400", "10^7" or "5 * 10^9" as an int."""
    return math.prod(int(b) ** int(e or 1) for b, e in re.findall(r"(\d+)(?:\^(\d+))?", text))


class TestReadmeTables:
    def test_ceilings_match_the_module_constants(self):
        rows = re.findall(r"^\| `(\w+)\.([A-Z_]+)` = ([^|]+?) \|", README, re.M)
        assert len(rows) == 13
        for module, name, value in rows:
            constant = getattr(importlib.import_module(f"pseudomagic.{module}"), name)
            assert constant == _readme_number(value), (module, name, value)

    def test_budget_defaults_match_the_cli(self):
        rows = re.findall(r"^\| ((?:`\w+ [\w-]+`(?:, )?)+) \| ([^|]+) \| ([^|]+?) \|$", README, re.M)
        assert len(rows) == 4
        budgets = {f"{c.group} {c.name}": token for c in cli.COMMANDS
                   for token in c.flags.split() if token.startswith("budget.")}
        named = []
        for commands, counts, default in rows:
            for command in re.findall(r"`([^`]+)`", commands):
                named.append(command)
                token = budgets[command]
                assert cli.FLAGS[token]["default"] == _readme_number(default), command
                assert token.split(".")[1] in counts, command
        # no other command accepts --budget, as the README says
        assert sorted(named) == sorted(budgets)


# The leaves that compute with numpy; every other README example joins the numpy-free job.
_NUMPY_LEAVES = {"rmt sample", "rmt secular", "rmt moment", "rmt mixed", "rmt truncated",
                 "zeta integrate"}


def _readme_examples():
    """README's command-line block as (argv, stdout) pairs, one per `$ pseudomagic` line."""
    block = README.split("## Command line", 1)[1].split("```\n", 2)[1]
    examples = []
    for line in block.splitlines(keepends=True):
        if line.startswith("$ pseudomagic "):
            examples.append([shlex.split(line.removeprefix("$ pseudomagic "), comments=True), ""])
        else:
            examples[-1][1] += line
    return [pytest.param(argv, out, id=" ".join(argv), marks=() if leaf in _NUMPY_LEAVES
                         else pytest.mark.numpy_free)
            for argv, out in examples
            for leaf in [" ".join([a for a in argv if not a.startswith("-")][:2])]]


class TestReadmeExamples:
    def test_every_example_is_listed(self):
        assert len(_readme_examples()) == README.count("\n$ pseudomagic ") == 8

    @pytest.mark.parametrize("argv,stdout", _readme_examples())
    def test_example_prints_its_stdout(self, capsys, argv, stdout):
        assert run_cli(argv, capsys) == (0, stdout, "")
