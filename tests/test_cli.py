"""CLI surface: commands, formats, exit codes, determinism, round trips."""

import collections
import contextlib
import csv
import io
import itertools
import json
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricarr
from toricarr import cli
from toricarr.cli import main

TESTS = Path(__file__).resolve().parent

COMMANDS = ["points", "layers", "census", "poincare", "euler", "identity", "poset", "verify"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_points_f4_json(capsys):
    code, out, _ = run_cli(capsys, "points", "--type", "F4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "F4"
    assert doc["rank"] == 4
    assert doc["command"] == "points"
    assert doc["results"]["total"] == "72"
    orbits = doc["results"]["factors"][0]["orbits"]
    assert len(orbits) == 5
    assert sorted(int(o["orbit_size"]) for o in orbits) == [1, 3, 12, 24, 32]


def test_points_product(capsys):
    code, out, _ = run_cli(capsys, "points", "--type", "A3xA1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["total"] == "8"
    assert [f["factor"] for f in doc["results"]["factors"]] == ["A1", "A3"]


def test_poincare_a1_text(capsys):
    code, out, _ = run_cli(capsys, "poincare", "--type", "A1")
    assert code == 0
    assert "3q + 1" in out
    assert "routes agree: True" in out


def test_poincare_route_flag(capsys):
    # poincare always computes and compares both routes; the former route flag is rejected.
    code, out, err = run_cli(capsys, "poincare", "--type", "B2", "--route", "closed")
    assert code == 1 and out == ""
    assert err == "error: unrecognized arguments: --route closed\n"
    code, out, _ = run_cli(capsys, "poincare", "--type", "B2", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["route"] == "both" and results["routes_agree"] is True
    assert results["closed"]["display"] == results["layers"]["display"] == "15q^2 + 8q + 1"


def test_layers_command(capsys):
    code, out, _ = run_cli(capsys, "layers", "--type", "F4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["by_dimension"] == ["72", "204", "140", "24", "1"]


def test_euler_command(capsys):
    code, out, _ = run_cli(capsys, "euler", "--type", "D4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["closed_form"] == "192"
    assert doc["results"]["point_sum"] == "192"
    assert doc["results"]["poincare_at_minus_one"] == "192"


def test_identity_command(capsys):
    code, out, _ = run_cli(capsys, "identity", "--type", "E8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["factors"][0]["holds"] is True


def test_euler_e7_reports_poincare_at_minus_one(capsys):
    code, out, _ = run_cli(capsys, "euler", "--type", "E7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["closed_form"] == str(-2903040)
    assert doc["results"]["poincare_at_minus_one"] == str(-2903040)


def test_euler_beyond_enumeration_flags_missing_poincare(capsys):
    code, out, _ = run_cli(capsys, "euler", "--type", "E8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["closed_form"] == str(696729600)
    assert doc["results"]["poincare_at_minus_one"] is None


def test_euler_text_names_the_refused_census(capsys):
    code, out, _ = run_cli(capsys, "euler", "--type", "E8")
    assert code == 0
    assert out == (
        "type E8: Euler characteristic\n"
        "  point-orbit sum: 696729600\n"
        "  (-1)^n |W|:      696729600\n"
        "  P(-1):           (flat orbit walk of E8: |W| = 696729600 exceeds the work bound 10000000)\n"
        "  equivariant: 1 * regular character\n"
    )


def test_bounds_must_be_positive(capsys):
    code, _, err = run_cli(capsys, "verify", "--type", "A1", "--poset-rank", "0")
    assert code == 1 and "positive" in err


def test_ignored_capability_flags_are_rejected(capsys):
    for command in COMMANDS:
        for flag in ("--brute-rank", "--max-group-order"):
            code, _, err = run_cli(capsys, command, "--type", "A1", flag, "3")
            assert code == 1 and flag in err, (command, flag)
    code, _, err = run_cli(capsys, "census", "--type", "A1", "--poset-rank", "3")
    assert code == 1 and "--poset-rank" in err


@pytest.mark.parametrize(
    "command, t, order", [("census", "E8", 696729600), ("poincare", "B8", 10321920)]
)
def test_work_bound_refusal_is_fast_and_names_the_group_order(capsys, command, t, order):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--type", t)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == (
        f"capability: flat orbit walk of {t}: |W| = {order} exceeds the work bound 10000000\n"
    )


def test_census_csv(capsys):
    code, out, _ = run_cli(capsys, "census", "--type", "B2", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0].keys() == {
        "dim", "theta_type", "theta_orbit_size", "n_theta", "phi_c_type", "count",
    }
    total_points = sum(
        int(r["theta_orbit_size"]) * int(r["count"]) for r in rows if r["dim"] == "0"
    )
    assert total_points == 4


def test_census_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "census", "--type", "F4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    by_dim = {}
    for rec in doc["results"]["records"]:
        by_dim.setdefault(rec["dim"], 0)
        by_dim[rec["dim"]] += int(rec["theta_orbit_size"]) * int(rec["layers_per_theta"])
    code, out, _ = run_cli(capsys, "layers", "--type", "F4", "--format", "json")
    counts = [int(x) for x in json.loads(out)["results"]["by_dimension"]]
    assert [by_dim[d] for d in range(5)] == counts


def test_poset_dot(capsys):
    code, out, _ = run_cli(capsys, "poset", "--type", "A1", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph layers {")
    assert out.count("->") == 2


def test_verify_g2(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "G2")
    assert code == 0
    assert "mismatch" not in out
    assert out.count("ok") >= 6


def test_verify_skips_out_of_capability(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "D4", "--poset-rank", "3")
    assert code == 0
    assert "poset_grading: skipped" in out


@pytest.mark.parametrize(
    "t, row",
    [
        ("F4", "ok (268 tangent subsystems checked)"),
        ("B4", "ok (116 tangent subsystems checked)"),
        (
            "E6",
            "skipped (16 of 17 orbits checked; grid scan of 18^6 candidates x 36 roots"
            " = 1224440064 exceeds the work bound 10000000)",
        ),
    ],
    ids=["F4", "B4", "E6"],
)
def test_verify_checks_component_counts_per_orbit_without_spans(capsys, monkeypatch, t, row):
    # Rank > --poset-rank 3, so nothing in verify may enumerate spans:
    # component_counts checks one census representative per W-orbit, and
    # every orbit within the work bound even when another is refused.
    from toricarr import subsys

    def forbidden(*args):
        raise AssertionError("verify enumerated spans")

    monkeypatch.setattr(subsys, "_span_levels", forbidden)
    code, out, _ = run_cli(capsys, "verify", "--type", t)
    assert code == 0
    assert f"  component_counts: {row}\n" in out


def test_poset_refuses_before_enumerating_spans(capsys, monkeypatch):
    # The quotient scan of theta = Phi is over the bound, so no subsystem is enumerated.
    from toricarr import subsys

    def forbidden(*args):
        raise AssertionError("poset enumerated spans")

    monkeypatch.setattr(subsys, "_span_levels", forbidden)
    code, out, err = run_cli(capsys, "poset", "--type", "E6", "--poset-rank", "6")
    assert (code, out) == (2, "")
    assert err == (
        "capability: grid scan of 18^6 candidates x 36 roots = 1224440064"
        " exceeds the work bound 10000000\n"
    )


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "points", "--type", "E9")
    assert code == 1 and "E9" in err
    code, _, err = run_cli(capsys, "census", "--type", "E8")
    assert code == 2 and err.startswith("capability: ")
    code, _, err = run_cli(capsys, "poincare", "--type", "A1", "--format", "dot")
    assert code == 1
    code, _, err = run_cli(capsys, "nonsense", "--type", "A1")
    assert code == 1


def test_byte_determinism(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "census", "--type", "F4", "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "poset", "--type", "B2", "--format", "dot")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "points", "--type", "A1", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err
    assert not target.parent.exists()


@pytest.mark.parametrize("flag", [["--out", ""], ["--out="]])
def test_empty_out_path_is_a_usage_error(capsys, flag):
    # An empty path is a path that cannot be written, not a request for stdout.
    code, out, err = run_cli(capsys, "points", "--type", "A1", *flag)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "f4.json"
    code, out, _ = run_cli(capsys, "points", "--type", "F4", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["results"]["total"] == "72"


# -- argument parsing -----------------------------------------------------------


def _argv_corpus():
    """Command lines that the parser reads or refuses, in every way it can."""
    corpus = [
        [], ["bogus"], ["bogus", "--type", "A1"], ["--type", "A1", "points"], ["-x", "points", "--type", "A1"],
        ["--x", "1", "points", "--type", "A1"], ["--", "points", "--type", "A1"], ["--"], ["-x", "--"],
        ["--version"], ["--vers"], ["--version=1"], ["-h"], ["--help"], ["--he"], ["-hh"], ["-hx"],
        ["--help=x"], ["-h", "bogus"], ["bogus", "-h"], ["--=x", "points", "--type", "A1"],
        ["points", "--type", "A1", "--=x"], ["points", "--type", "A1", "--", "--=x"],
    ]
    for command in COMMANDS:
        options = [("--type", "A3xA1"), ("--format", "json"), ("--out", "-")]
        for order in itertools.permutations(options):
            for length, equals in itertools.product((None, 4), (False, True)):  # --ty is --type
                argv = [command]
                for name, value in order:
                    argv += [f"{name[:length]}={value}"] if equals else [name[:length], value]
                corpus.append(argv)
        base = [command, "--type", "A1"]
        corpus += [
            [command, "--type", "A1", "--ty", "G2", "--form", "text", "--format=json", "--out", "a", "--o=b"],
            base + ["--bogus"], base + ["--bogus", "value"], base + ["-x", "1", "--flag=2", "stray"],
            base + ["--version"], base + ["--route", "closed"], base + ["-t", "A2"], base + ["--typo", "A2"],
            [command, "--type"], [command, "--type", "--format", "json"], [command, "--type", "--"],
            [command], [command, "--format", "json"], [command, "--out", "x", "stray"],
            base + ["--format", "xml"], base + ["--format", "xml", "--bogus"], base + ["--bogus", "--format", "xml"],
            base + ["--format", "dot"], base + ["--format", "csv"], base + ["--format="],
            base + ["-h"], [command, "--help", "--type"], [command, "--format", "xml", "-h"], base + ["-h=x"],
            base + ["--", "--format", "json"], [command, "--", "--type", "A1"], base + ["--"],
            [command, "--type", "-1"], [command, "--type", "-"], [command, "--out", "-", "--type=B2"],
            [command, "--type", "A1 x A2"], [command, "--type", "-A1 x"],
        ]
        for rank in ("3", "0", "-1", "x"):
            corpus += [base + ["--poset-rank", rank], base + [f"--poset-rank={rank}"], base + ["--po", rank]]
    return corpus


def _parse(argv):
    """What cli._parse_args makes of argv, in the reference's terms."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = cli._parse_args(argv)
    except ValueError as exc:
        return "error", str(exc)
    return ("printed", out.getvalue()) if args is None else ("args", vars(args))


def test_parse_matches_the_argparse_reference(reference_parse):
    def outcome(result):  # help layouts differ by design; the version does not
        return ("printed", "help") if result[0] == "printed" and "usage" in result[1] else result

    pairs = [(argv, outcome(reference_parse(argv)), outcome(_parse(argv))) for argv in _argv_corpus()]
    mismatches = [pair for pair in pairs if pair[1] != pair[2]]
    assert not mismatches, "\n".join(map(repr, mismatches[:10]))
    assert len(pairs) > 500 and {expected[0] for _, expected, _ in pairs} == {"args", "error", "printed"}


def test_options_read_in_any_order_by_prefix_and_last_repeat():
    argv = ["verify", "--po", "5", "--ty=G2", "--out", "-", "--type", "B3", "--form", "json", "--poset-rank=2"]
    fields = {"command": "verify", "type": "B3", "format": "json", "out": "-", "poset_rank": 2}
    assert vars(cli._parse_args(argv)) == fields


@pytest.mark.parametrize(
    "argv, message",
    [
        (["points", "--type", "A1", "--bogus", "1", "-x"], "unrecognized arguments: --bogus 1 -x"),
        (
            ["points", "--type", "A1", "--format", "xml"],
            "argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'dot', 'text')",
        ),
        (
            ["bogus", "--type", "A1"],
            "argument command: invalid choice: 'bogus' (choose from 'points', 'layers', 'census', "
            "'poincare', 'euler', 'identity', 'poset', 'verify')",
        ),
        (["points", "--format", "json"], "the following arguments are required: --type"),
        (
            ["verify", "--type", "A1", "--poset-rank", "0"],
            "argument --poset-rank: capability bounds must be positive integers, not '0'",
        ),
        (["poincare", "--type", "A1", "--format", "dot"], "format 'dot' is not available for 'poincare'"),
    ],
)
def test_usage_errors_keep_their_messages(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_a_rank_past_integer_conversion_is_a_usage_error(capsys):
    # int() refuses a numeral of more than 4300 digits with ValueError; the request is at fault.
    code, out, err = run_cli(capsys, "points", "--type", "A" + "1" * 5000)
    assert (code, out) == (1, "") and err.startswith("error: Exceeds the limit (4300 digits)")


def test_help_lists_the_commands(capsys):
    for flag in ("-h", "--help"):
        code, out, err = run_cli(capsys, flag)
        assert code == 0 and err == ""
        assert out.startswith("usage: toricarr ")
        for line in [
            "  points    count the points of the arrangement and their orbit table",
            "  layers    per-dimension layer counts",
            "  census    full layer census with tangent types",
            "  poincare  Poincare polynomial of the complement",
            "  euler     Euler characteristic, both routes",
            "  identity  the degree identity check",
            "  poset     explicit layer poset",
            "  verify    run the oracle-vs-formula suite",
        ]:
            assert line in out.splitlines()


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_lists_its_options(capsys, command):
    code, out, err = run_cli(capsys, command, "-h")
    assert code == 0 and err == ""
    formats = {"census": "json,text,csv", "poset": "json,text,dot"}.get(command, "json,text")
    usage = f"usage: toricarr {command} [-h] --type TYPE [--format {{{formats}}}] [--out PATH]"
    assert out.splitlines()[0] == usage + (" [--poset-rank N]" if command in ("poset", "verify") else "")
    assert run_cli(capsys, command, "--type", "A1", "--help") == (code, out, err)


def test_version(capsys):
    assert run_cli(capsys, "--version") == (0, "0.1.0\n", "")


def test_requests_import_no_argument_parsing_modules():
    # Every request used to build an argparse tree, which imports gettext and then locale.
    argvs = [[c, "--type", "A2"] for c in COMMANDS] + [["--version"], ["poset", "-h"], ["points"]]
    script = (
        "import io, sys\n"
        "from toricarr import cli\n"
        "sys.stdout = io.StringIO()\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "sys.stdout = sys.__stdout__\n"
        "print(codes, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(toricarr.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout == "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1] []\n", proc.stderr


def test_importing_the_cli_imports_neither_dataclasses_nor_inspect():
    # A @dataclass execs its generated methods at import, about a millisecond each, and
    # dataclasses pulls in inspect, ast and dis: records are NamedTuples instead.
    script = "import sys\nimport toricarr.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(toricarr.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout == "[]\n", proc.stderr


def test_importing_the_cli_imports_neither_fractions_nor_decimal():
    # fractions imports decimal and numbers, about 2-3 ms of each cold start; every number is an integer.
    script = "import sys\nimport toricarr.cli\nprint(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(toricarr.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout == "[]\n", proc.stderr


# -- the JSON writer ------------------------------------------------------------

# Quotes, backslashes, control characters, non-ASCII, a lone surrogate and a character past the BMP.
_AWKWARD = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\u00e9", "\u2028", "\ud800", "\U0001f600"])
_TEXT = st.text(st.one_of(_AWKWARD, st.characters()), max_size=6)
_LEAVES = st.one_of(
    _TEXT, st.integers(), st.integers(2**64, 2**200), st.integers(-(2**200), -(2**64)), st.booleans(), st.none()
)
_DOCUMENTS = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4), max_leaves=24
)


@settings(max_examples=400, deadline=None)
@given(_DOCUMENTS)
def test_json_writer_gives_the_bytes_of_the_stdlib_encoder(doc):
    assert cli._json(doc, "") == json.dumps(doc, indent=2, sort_keys=True)


def test_json_writer_refuses_a_float():
    with pytest.raises(TypeError, match="float"):
        cli._json({"results": [{"value": 0.5}]}, "")


def test_requests_run_no_frame_of_the_json_package_or_of_fractions(monkeypatch, tmp_path, clear_every_cache):
    # Replays every benchmark and golden request in process under a profiler: in a fresh process the first
    # call of each stdlib function is a fixed cost, so the JSON is written by cli._json and every number is
    # an integer.
    files = [TESTS.parent / "perfbench" / "reference" / f"{w}.json" for w in ("census", "verify", "closed-forms")]
    rows = [row for path in files + [TESTS / "cli_golden.json"] for row in json.loads(path.read_text())]
    stdlib = (os.path.dirname(json.__file__) + os.sep, os.path.join(os.path.dirname(os.__file__), "fractions.py"))
    frames = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(stdlib):
            frames.add(f"{frame.f_code.co_filename}:{frame.f_code.co_name}")

    monkeypatch.chdir(tmp_path)
    for row in rows:
        clear_every_cache()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            sys.setprofile(profile)
            try:
                code = cli.main(list(row["argv"]))
            finally:
                sys.setprofile(None)
        assert (out.getvalue(), code) == (row["stdout"], row["exit"]), row["argv"]
        assert not frames, (row["argv"], sorted(frames))


@pytest.mark.parametrize("command", ["census"])
def test_root_closure_is_refused_before_it_is_built(capsys, command):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--type", "A150")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == (
        "capability: root closure of A150: positive roots x rank^2 = 254812500 exceeds the work bound 10000000\n"
    )


def test_points_beyond_the_closure_bound_answer_from_per_type_data(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "points", "--type", "A150")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out.startswith("type A150: 151 points\n")


def test_points_are_refused_on_their_own_work_estimate(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "points", "--type", "A215")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == (
        "capability: affine vertex deletions of A215: sum of (rank + 1)^3 = 10077696 exceeds the work bound 10000000\n"
    )


@pytest.mark.parametrize("t, total", [("A30", 31), ("D20", 2097072), ("E8", 157200)])
def test_per_type_data_answers_points_on_large_types(capsys, t, total):
    code, out, _ = run_cli(capsys, "points", "--type", t)
    assert code == 0 and out.startswith(f"type {t}: {total} points\n")


def test_root_closure_bound_admits_a66(capsys, monkeypatch, clear_every_cache):
    # A66 has 2211 positive roots: 2211 x 66^2 = 9631116 is within the bound, so poincare
    # closes it and is refused only afterwards, by the flat orbit walk's bound on |W| = 67!.
    clear_every_cache()
    built = []
    init = toricarr.rootsys.RootSystem.__init__
    monkeypatch.setattr(
        toricarr.rootsys.RootSystem, "__init__",
        lambda self, factors: built.append(toricarr.rootsys.format_type(factors)) or init(self, factors),
    )
    code, out, err = run_cli(capsys, "poincare", "--type", "A66")
    assert code == 2 and out == ""
    assert err.startswith("capability: flat orbit walk of A66: |W| = 3647111091818868528")
    assert built == ["A66"]


def test_root_closure_bound_refuses_a67(capsys):
    code, out, err = run_cli(capsys, "poincare", "--type", "A67")
    assert code == 2 and out == ""
    assert err == (
        "capability: root closure of A67: positive roots x rank^2 = 10225942 exceeds the work bound 10000000\n"
    )


@pytest.mark.parametrize("argv", [["points", "--type", "E8"], ["identity", "--type", "E7xA1"]])
def test_closed_forms_compute_no_smith_normal_form(capsys, monkeypatch, argv, clear_every_cache):
    # The closed forms need |W| and the degrees only; |Z| is the oracles' business,
    # and no other quantity of theirs needs a lattice normal form.
    clear_every_cache()
    calls = []
    hnf = toricarr.intlat.hermite_normal_form
    monkeypatch.setattr(toricarr.intlat, "hermite_normal_form", lambda rows: calls.append(rows) or hnf(rows))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    assert calls == []


_PER_TYPE_DATA = {"cartan", "ascent", "diagram"}


@pytest.mark.parametrize(
    "argv, built",
    [
        (["verify", "--type", "F4"], _PER_TYPE_DATA | {"center"}),
        (["verify", "--type", "B2xA1"], _PER_TYPE_DATA | {"center"}),
        (["poset", "--type", "B3"], _PER_TYPE_DATA | {"center"}),
        (["census", "--type", "F4"], _PER_TYPE_DATA),  # the grid modulus, and with it the center, is the oracles'
    ],
    ids=["verify-F4", "verify-B2xA1", "poset-B3", "census-F4"],
)
def test_each_type_is_built_once_per_request(capsys, monkeypatch, argv, built, clear_every_cache):
    # Every irreducible type a request meets, a factor or the type of a deletion or of a Theta,
    # gets its Cartan matrix, theta's ascent, its affine diagram and its center's HNF once.
    clear_every_cache()
    rootsys = toricarr.rootsys
    calls = collections.Counter()

    def counted(name, fn, key):
        def wrapper(*args):
            calls[name, key(*args)] += 1
            return fn(*args)
        return wrapper

    def matrix(rows):
        return tuple(map(tuple, rows))

    by_type, by_matrix = (lambda sym: sym), (lambda cartan, root: matrix(cartan))
    monkeypatch.setattr(rootsys, "_cartan_matrix", counted("cartan", rootsys._cartan_matrix, by_type))
    monkeypatch.setattr(rootsys, "_ascend", counted("ascent", rootsys._ascend, by_matrix))
    monkeypatch.setattr(rootsys, "affine_diagram", counted("diagram", rootsys.affine_diagram, by_type))
    hnf = toricarr.intlat.hermite_normal_form

    def center_hnf(rows):
        if sys._getframe(1).f_globals is vars(rootsys):  # called from rootsys: a center
            calls["center", matrix(rows)] += 1
        return hnf(rows)

    monkeypatch.setattr(toricarr.intlat, "hermite_normal_form", center_hnf)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    assert max(calls.values()) == 1, sorted(key for key, n in calls.items() if n > 1)
    assert {name for name, _ in calls} == built


def test_verify_scans_each_flat_once(capsys, monkeypatch, clear_every_cache):
    # component_counts and poset_grading read the same quotient scans: one per
    # flat of B3, besides the point scan.
    clear_every_cache()
    scans = []
    scan = toricarr.oracle._grid_points
    monkeypatch.setattr(toricarr.oracle, "_grid_points", lambda *args: scans.append(args) or scan(*args))
    code, out, _ = run_cli(capsys, "verify", "--type", "B3")
    assert code == 0 and out.count(": ok") == 7
    rs = toricarr.build_str("B3")
    flats = sum(len(toricarr.enumerate_complete(rs, d).members) for d in range(rs.rank + 1))
    assert len(scans) == flats + 1


def test_verify_poset_takes_no_residues_of_the_order(capsys, monkeypatch, clear_every_cache):
    # The poset's layers take two residues each, the lift and the base point;
    # poset_grading reads no covers, so no residue of the order is taken.
    clear_every_cache()
    residues = 0
    residue = toricarr.intlat.residue

    def counting(basis, vec):
        nonlocal residues
        residues += 1
        return residue(basis, vec)

    # Only the calls made from oracle's own code are counted.
    monkeypatch.setattr(
        toricarr.oracle, "intlat", types.SimpleNamespace(**{**vars(toricarr.intlat), "residue": counting})
    )
    code, out, _ = run_cli(capsys, "verify", "--type", "B3")
    assert code == 0 and "poset_grading: ok" in out
    rs = toricarr.build_str("B3")
    assert residues == 2 * sum(toricarr.count_layers(rs, d) for d in range(rs.rank + 1))


@pytest.mark.parametrize(
    "argv, closed",
    [
        (["points", "--type", "E7xA1"], []),
        (["identity", "--type", "E7xA1"], []),
        (["census", "--type", "F4"], ["F4"]),
        (["verify", "--type", "A2xA1"], ["A1xA2"]),
        (["verify", "--type", "B2xA1"], ["A1xB2"]),
        (["euler", "--type", "E7xA1"], ["A1xE7"]),
    ],
)
def test_per_type_data_closes_no_other_root_system(capsys, monkeypatch, argv, closed, clear_every_cache):
    # Affine diagrams and marks come from each type's Cartan matrix: no factor or Theta type is closed,
    # and only a command that reads roots (euler for P(-1)) closes the requested system.
    clear_every_cache()
    built = []
    init = toricarr.rootsys.RootSystem.__init__
    monkeypatch.setattr(
        toricarr.rootsys.RootSystem, "__init__",
        lambda self, factors: built.append(toricarr.rootsys.format_type(factors)) or init(self, factors),
    )
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    assert built == closed
