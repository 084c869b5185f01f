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

import toricarr
from toricarr import cli
from toricarr.cli import main

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


def _run_with_defect(patch, argv, *python_flags):
    """Run the CLI in a fresh interpreter after applying `patch` to the library."""
    script = f"import sys\nfrom toricarr import cli, layers\n{patch}\nsys.exit(cli.main({argv!r}))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(toricarr.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, *python_flags, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_verify_mismatch_survives_optimized_mode():
    patch = "count = layers.count_points\nlayers.count_points = lambda rs: count(rs) + 1"
    proc = _run_with_defect(patch, ["verify", "--type", "A2"], "-O")
    assert proc.returncode == 3
    assert "points_oracle: mismatch" in proc.stdout


def test_orbit_closure_check_survives_optimized_mode():
    # Drop the last grid point: its W-conjugates then map outside the scan.
    patch = (
        "from toricarr import oracle\n"
        "scan = oracle._grid_points\n"
        "oracle._grid_points = lambda rows, m, rank: scan(rows, m, rank)[:-1]"
    )
    proc = _run_with_defect(patch, ["verify", "--type", "G2"], "-O")
    assert proc.returncode == 3
    assert "points_oracle: mismatch" in proc.stdout and "is not a point" in proc.stdout


def test_dropped_point_grid_hit_fails_only_the_points_oracle():
    # Drop the last hit of the first grid scan, the point oracle's: the
    # W-orbit walk then leaves the scan.  The quotient scans stay intact.
    patch = (
        "from toricarr import oracle\n"
        "scan = oracle._grid_points\n"
        "first = iter([True])\n"
        "def drop_one(rows, m, rank):\n"
        "    hits = scan(rows, m, rank)\n"
        "    return hits[:-1] if next(first, False) else hits\n"
        "oracle._grid_points = drop_one"
    )
    proc = _run_with_defect(patch, ["verify", "--type", "B4"], "-O")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count("mismatch") == 1
    assert "points_oracle: mismatch" in proc.stdout and "is not a point" in proc.stdout
    assert "component_counts: ok" in proc.stdout


def test_dropped_grid_lane_row_survives_optimized_mode():
    # The first row of the point scan gets an empty lane, so it vanishes
    # nowhere and no sum of vanishing rows is taken from it.
    patch = (
        "from toricarr import oracle\n"
        "lane = oracle._row_lane\n"
        "first = iter([True])\n"
        "def drop_one(*args):\n"
        "    return 0 if next(first, False) else lane(*args)\n"
        "oracle._row_lane = drop_one"
    )
    proc = _run_with_defect(patch, ["verify", "--type", "B3"], "-O")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "points_oracle: mismatch" in proc.stdout


def test_grid_scan_premise_guard_survives_optimized_mode():
    # A zero row in the point scan is the sum of itself and any row, so no
    # row is simple at the origin, which is then no point.
    patch = (
        "from toricarr import oracle\n"
        "scan = oracle._grid_points\n"
        "first = iter([True])\n"
        "def zero_row(rows, m, rank):\n"
        "    return scan([*rows, (0,) * rank] if next(first, False) else rows, m, rank)\n"
        "oracle._grid_points = zero_row"
    )
    proc = _run_with_defect(patch, ["verify", "--type", "B3"], "-O")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert (
        "points_oracle: mismatch (the rows are not the positive roots of a rank-3 system)"
        in proc.stdout
    )
    assert "component_counts: ok" in proc.stdout


def test_center_order_check_survives_optimized_mode():
    # One element more in |Z| than the grid points at which every root vanishes.
    patch = (
        "from toricarr import oracle\n"
        "order = oracle.center_order\n"
        "oracle.center_order = lambda factors: order(factors) + 1"
    )
    proc = _run_with_defect(patch, ["verify", "--type", "B3"], "-O")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count("mismatch") == 1
    assert "  points_oracle: mismatch (center grid vectors do not match the center order)\n" in proc.stdout


def test_simple_root_count_check_survives_optimized_mode():
    # One simple root short: a closed subsystem of rank n would have n of them.
    # B4 is past the default poset rank, so only the point oracle types subsystems.
    patch = (
        "from toricarr import subsys\n"
        "simples = subsys.simple_system\n"
        "subsys.simple_system = lambda rs, pos: simples(rs, pos)[:-1]"
    )
    proc = _run_with_defect(patch, ["verify", "--type", "B4"], "-O")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count("mismatch") == 1
    assert "  points_oracle: mismatch (a closed subsystem of rank 4 of B4 has 3 simple roots)\n" in proc.stdout


def test_cartan_pairing_check_survives_optimized_mode():
    # With the symmetrizer reversed, the simple roots still pair as the Cartan
    # matrix says, but a short and a long root off the simple ones do not.
    # G2's poset types only subsystems on simple roots, so only the point oracle fails.
    patch = (
        "from toricarr import rootsys\n"
        "init = rootsys.RootSystem.__init__\n"
        "def reversed_symmetrizer(rs, factors):\n"
        "    init(rs, factors)\n"
        "    rs.symmetrizer = rs.symmetrizer[::-1]\n"
        "rootsys.RootSystem.__init__ = reversed_symmetrizer"
    )
    proc = _run_with_defect(patch, ["verify", "--type", "G2"], "-O")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count("mismatch") == 1
    assert "  points_oracle: mismatch (non-integral Cartan pairing)\n" in proc.stdout


def test_poset_base_point_check_survives_optimized_mode():
    # Drop the first row of each theta's graph HNF: the layers off ker gamma then have no lift.
    patch = (
        "from toricarr import oracle\n"
        "arrangement = oracle._quotient_arrangement\n"
        "def defective(rs, theta):\n"
        "    qa = arrangement(rs, theta)\n"
        "    return qa._replace(graph=qa.graph[1:])\n"
        "oracle._quotient_arrangement = defective"
    )
    proc = _run_with_defect(patch, ["verify", "--type", "B2"], "-O")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "poset_grading: mismatch" in proc.stdout
    assert "layer contains no grid point" in proc.stdout


# Adding q + q^2 to the layer sum keeps P(0) and P(-1), so only the route comparison can catch it.
_ROUTE_DEFECT = (
    "layer_sum = layers._layer_sum\n"
    "layers._layer_sum = lambda rs, records: layer_sum(rs, records) + layers.IntPolynomial.of([0, 1, 1])"
)
_ROUTE_MISMATCH = "closed-form and layer-sum Poincare polynomials differ"


@pytest.mark.parametrize("command", ["poincare", "euler"])
def test_poincare_route_mismatch_survives_optimized_mode(command):
    proc = _run_with_defect(_ROUTE_DEFECT, [command, "--type", "B3"], "-O")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"mismatch: {_ROUTE_MISMATCH}\n"


def test_verify_reports_a_poincare_route_mismatch():
    proc = _run_with_defect(_ROUTE_DEFECT, ["verify", "--type", "B3"], "-O")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count("mismatch") == 1
    assert f"  poincare_routes: mismatch ({_ROUTE_MISMATCH})\n" in proc.stdout


def test_verify_reports_a_wrong_center_subgroup():
    # Without its last element, A3's W_Z has 3 elements but |Z| = 4.
    patch = (
        "from toricarr import weyl\n"
        "center = weyl.center_subgroup\n"
        "weyl.center_subgroup = lambda rs: center(rs)[:-1]"
    )
    proc = _run_with_defect(patch, ["verify", "--type", "A3"], "-O")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count("mismatch") == 1
    assert "  iwahori_matsumoto: mismatch (A3)\n" in proc.stdout


def test_library_value_error_exits_as_a_mismatch():
    # An extra edge in a rank-3 flat's carried Cartan matrix: classify_dynkin raises
    # ValueError, a fault of the library and not of the request.
    patch = (
        "from toricarr import subsys\n"
        "classify = subsys.classify_dynkin\n"
        "def extra_edge(cartan):\n"
        "    rows = [list(row) for row in cartan]\n"
        "    if len(rows) == 3:\n"
        "        rows[0][2] = rows[2][0] = -1\n"
        "    return classify(rows)\n"
        "subsys.classify_dynkin = extra_edge"
    )
    proc = _run_with_defect(patch, ["census", "--type", "A3"], "-O")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "mismatch: graph is not a tree: not a finite Dynkin diagram\n"


def test_verify_reports_a_value_error_as_a_mismatch(capsys, monkeypatch):
    # The other checks still report their rows.
    def broken(sym):
        raise ValueError("an internal fault")

    monkeypatch.setattr(toricarr.layers, "verify_degree_identity", broken)
    code, out, err = run_cli(capsys, "verify", "--type", "A2")
    assert (code, err) == (3, "")
    assert out.count("mismatch") == 1 and out.count(": ok") == 6
    assert "  degree_identity: mismatch (an internal fault)\n" in out


def test_point_oracle_value_error_is_its_mismatch_row_in_optimized_mode():
    # The roots vanishing at a grid point do not type: brute_points lets the ValueError
    # through, and verify reports it in the points_oracle row alone.
    patch = (
        "from toricarr import oracle\n"
        "def untyped(rs, roots, rank):\n"
        "    raise ValueError('vanishing roots are not a subsystem')\n"
        "oracle.simple_type = untyped"
    )
    proc = _run_with_defect(patch, ["verify", "--type", "G2"], "-O")
    assert (proc.returncode, proc.stderr) == (3, "")
    assert proc.stdout.count("mismatch") == 1 and proc.stdout.count(": ok") == 6
    assert "  points_oracle: mismatch (vanishing roots are not a subsystem)\n" in proc.stdout


def test_verify_reports_a_wrong_highest_root_in_the_center_subgroup():
    # B3's highest short root (1, 1, 1) in place of the theta that weyl reads from the record, after
    # the record's null-vector check: z_1 = w_0^1 w_0 does not send -theta to alpha_1.
    patch = (
        "from toricarr import weyl\n"
        "data = weyl.type_data\n"
        "def short_theta(sym):\n"
        "    record = data(sym)\n"
        "    return record._replace(diagram=record.diagram._replace(marks=(1, 1, 1, 1)))\n"
        "weyl.type_data = short_theta"
    )
    proc = _run_with_defect(patch, ["verify", "--type", "B3"], "-O")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "  iwahori_matsumoto: mismatch (z_1.alpha_0 != alpha_1)\n" in proc.stdout


def test_verify_reports_a_false_degree_identity():
    patch = (
        "identity = layers.verify_degree_identity\n"
        "layers.verify_degree_identity = lambda rs: identity(rs)._replace(holds=False, total=2)"
    )
    proc = _run_with_defect(patch, ["verify", "--type", "G2"], "-O")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count("mismatch") == 1
    assert "  degree_identity: mismatch (G2: sum = 2)\n" in proc.stdout


def test_internal_cross_check_failure_exits_3_without_traceback():
    patch = "layers.euler_characteristic = lambda rs: 0"
    proc = _run_with_defect(patch, ["poincare", "--type", "A2"])
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "mismatch" in proc.stderr and "Euler" in proc.stderr


def _merged_vertex_orbits(monkeypatch):
    # G2's vertices 0 and 1 carry 1 and 2 points; a Q-orbit holding both counts 2 x 1 of them.
    automorphisms = toricarr.layers.diagram_automorphisms

    def merged(diagram):
        autos, orbits = automorphisms(diagram)
        return autos, (orbits[0] + orbits[1],) + orbits[2:]

    monkeypatch.setattr(toricarr.layers, "diagram_automorphisms", merged)


def _one_more_point_at_a_vertex(monkeypatch):
    # The point sum then moves by the exponent product of that vertex's type.
    data = toricarr.layers.type_data

    def perturbed(sym):
        record = data(sym)
        (p, ptype, wp, size), *rest = record.vertices
        return record._replace(vertices=((p, ptype, wp, size + 1), *rest))

    monkeypatch.setattr(toricarr.layers, "type_data", perturbed)


def _weyl_order_off_by_one(monkeypatch):
    # The exponent products stay, so the census and its Orlik-Solomon check pass.
    invariants = toricarr.layers.type_invariants

    def wrong(factors):
        inv = invariants(factors)
        return inv._replace(weyl_order=inv.weyl_order + 1)

    monkeypatch.setattr(toricarr.layers, "type_invariants", wrong)


def _doubled_binomial_shift(monkeypatch):
    # Both Poincare routes double alike, so they agree and only the constant term is off.
    shift = toricarr.layers._binomial_shift
    monkeypatch.setattr(toricarr.layers, "_binomial_shift", lambda d, m: shift(d, m) * 2)


# The layers.py guards that no other test trips: (argv, defect, the mismatch line).
_LAYERS_GUARD_DEFECTS = {
    "vertex_orbits": (["points", "--type", "G2"], _merged_vertex_orbits, "vertex and Q-orbit point counts disagree"),
    "n_theta_divides_points": (
        ["census", "--type", "A2"],
        # A2's three points are all of type A2, and 4 does not divide 3.
        lambda monkeypatch: monkeypatch.setattr(toricarr.layers, "n_theta", lambda rs, theta: 4),
        "n_theta does not divide a point-type count",
    ),
    "euler_routes": (
        ["euler", "--type", "G2"],
        _one_more_point_at_a_vertex,
        "point-sum and closed-form Euler characteristics differ",
    ),
    "n_theta_divides_w_theta": (
        ["poincare", "--type", "A2"], _weyl_order_off_by_one, "n_theta does not divide |W^Theta|"
    ),
    "constant_term": (
        ["poincare", "--type", "A2"], _doubled_binomial_shift, "Poincare polynomial has nonunit constant term"
    ),
}


@pytest.mark.parametrize("defect", sorted(_LAYERS_GUARD_DEFECTS))
def test_layers_guard_exits_3_with_its_line(capsys, monkeypatch, clear_every_cache, defect):
    argv, patch, line = _LAYERS_GUARD_DEFECTS[defect]
    clear_every_cache()  # a cached census would skip the patched code
    patch(monkeypatch)
    assert run_cli(capsys, *argv) == (3, "", f"mismatch: {line}\n")


def _repeated_simples(monkeypatch):
    # A2's class at d = 0 with its first simple root twice: its Cartan matrix [[2, 2], [2, 2]] has rank 1.
    classes = toricarr.layers.parabolic_classes

    def repeated(rs, d):
        out = list(classes(rs, d))
        if d == 0:
            theta, size = out[0]
            simples = theta.simples[:1] * len(theta.simples)
            out[0] = (theta._replace(simples=simples, cartan=rs.cartan_of(simples)), size)
        return tuple(out)

    monkeypatch.setattr(toricarr.layers, "parabolic_classes", repeated)


def _vertex_0_typed_a3(monkeypatch):
    # |W(A3)| = 24 does not divide |W(G2)| = 12.
    delete = toricarr.rootsys.delete_vertex
    a3 = (toricarr.rootsys.TypeSymbol("A", 3),)
    monkeypatch.setattr(toricarr.rootsys, "delete_vertex", lambda diagram, p: a3 if p == 0 else delete(diagram, p))


def _parabolic_longest_times_s2(monkeypatch):
    # Each w_0^p becomes w_0^p s_2, so z_p = w_0^p s_2 w_0 still sends -theta to alpha_p (s_2 fixes A3's
    # theta) but moves the simple roots off the extended ones.
    longest = toricarr.weyl.longest_element

    def times_s2(cartan, J):
        J = list(J)
        w = longest(cartan, J)
        if len(J) == len(cartan):
            return w
        cols = list(zip(*w))  # (w s_2) alpha_i = w alpha_i - <alpha_i, alpha_2^vee> w alpha_2
        cols = [tuple(x - cartan[1][i] * y for x, y in zip(col, cols[1])) for i, col in enumerate(cols)]
        return tuple(zip(*cols))

    monkeypatch.setattr(toricarr.weyl, "longest_element", times_s2)


def _one_stabilizer_more(monkeypatch):
    # The point count stays, so only the multisets of types and stabilizers differ.
    orbits = toricarr.layers.point_orbits

    def wrong(sym):
        first, *rest = orbits(sym)
        return (first._replace(stabilizer_order=first.stabilizer_order + 1), *rest)

    monkeypatch.setattr(toricarr.layers, "point_orbits", wrong)


def _merged_aut_orbits(monkeypatch):
    # G2's W_Z is trivial, so its vertex orbits are single vertices; verify alone reads the merged orbits.
    automorphisms = toricarr.verify.diagram_automorphisms

    def merged(diagram):
        autos, orbits = automorphisms(diagram)
        return autos, (orbits[0] + orbits[1],) + orbits[2:]

    monkeypatch.setattr(toricarr.verify, "diagram_automorphisms", merged)


# The guards outside layers.py that no other test trips: (argv, defect, lines).  The lines are
# the stderr of a command, or the mismatch rows of verify, which writes nothing to stderr.
_GUARD_DEFECTS = {
    "index_in_zk": (["census", "--type", "A2"], _repeated_simples, ["mismatch: a lattice of rank 1 in Z^2"]),
    "parabolic_order": (
        ["points", "--type", "G2"], _vertex_0_typed_a3, ["mismatch: parabolic order does not divide |W|"]
    ),
    "center_subgroup_permutes": (
        ["verify", "--type", "A3"],
        _parabolic_longest_times_s2,
        [f"  {row}: mismatch (z_p does not permute the extended simple roots)"
         for row in ("points_oracle", "iwahori_matsumoto")],
    ),
    "point_multisets": (
        ["verify", "--type", "G2"],
        _one_stabilizer_more,
        ["  points_oracle: mismatch (type/stabilizer multisets differ)"],
    ),
    "vertex_orbits": (
        ["verify", "--type", "G2"], _merged_aut_orbits, ["  iwahori_matsumoto: mismatch (G2: orbit mismatch)"]
    ),
}


@pytest.mark.parametrize("defect", sorted(_GUARD_DEFECTS))
def test_guard_exits_3_with_its_line(capsys, monkeypatch, clear_every_cache, defect):
    argv, patch, lines = _GUARD_DEFECTS[defect]
    clear_every_cache()  # a cached record would skip the patched code
    patch(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    if argv[0] == "verify":
        assert (code, err) == (3, "")
        assert [row for row in out.splitlines() if ": mismatch" in row] == lines
    else:
        assert (code, out, err.splitlines()) == (3, "", lines)


def test_orlik_solomon_check_catches_a_wrong_orbit_size():
    patch = (
        "classes = layers.parabolic_classes\n"
        "layers.parabolic_classes = lambda rs, d: tuple(\n"
        "    (theta, size + (d == 1)) for theta, size in classes(rs, d))"
    )
    proc = _run_with_defect(patch, ["poincare", "--type", "B3"])
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "mismatch" in proc.stderr and "Orlik-Solomon" in proc.stderr


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


def test_component_count_mismatch_survives_optimized_mode():
    # One more component for the theta of type B2 than the quotient torus has.
    patch = (
        "from toricarr import oracle\n"
        "from toricarr.rootsys import format_type\n"
        "count = oracle.component_count\n"
        "oracle.component_count = lambda rs, theta: count(rs, theta) + (format_type(theta.type) == 'B2')"
    )
    proc = _run_with_defect(patch, ["verify", "--type", "B3"], "-O")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "  component_counts: mismatch (theta B2: components 3 != 4/2)\n" in proc.stdout


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


def test_affine_null_vector_check_survives_optimized_mode():
    # Ascent from B3's short simple root alpha_3 ends at the highest short root (1, 1, 1), not at theta.
    patch = (
        "from toricarr import rootsys\n"
        "ascend = rootsys._ascend\n"
        "rootsys._ascend = lambda cartan, root: ascend(cartan, [0, 0, 1])"
    )
    proc = _run_with_defect(patch, ["points", "--type", "B3"], "-O")
    assert proc.returncode == 3 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "mismatch: the marks of B3 are not a null vector of its affine Cartan matrix\n"


def test_n_theta_division_check_survives_optimized_mode():
    # An identity Cartan matrix makes <Theta^vee> all of Z^k, which cannot lie inside B3's R^Phi(Theta).
    patch = (
        "def identity(theta):\n"
        "    k = range(len(theta.simples))\n"
        "    return theta._replace(cartan=tuple(tuple(int(i == j) for j in k) for i in k))\n"
        "classes = layers.parabolic_classes\n"
        "layers.parabolic_classes = lambda rs, d: tuple((identity(t), size) for t, size in classes(rs, d))"
    )
    proc = _run_with_defect(patch, ["census", "--type", "B3"], "-O")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "mismatch: theta's coroot lattice is not inside R^Phi(Theta)\n"


_CARRIED_BASE_DEFECTS = {
    # The n highest positive roots in place of the simple ones: J's base then lies outside X_J.
    "highest": "tuple(range(rs.n_positive - rs.rank, rs.n_positive))",
    # One simple root n times: J's base then has rank 1.
    "repeated": "simple(rs)[:1] * rs.rank",
}


@pytest.mark.parametrize("defect", sorted(_CARRIED_BASE_DEFECTS))
def test_carried_base_check_survives_optimized_mode(defect):
    patch = (
        "from toricarr import rootsys\n"
        "simple = rootsys.RootSystem.simple_indices.func\n"
        f"rootsys.RootSystem.simple_indices = property(lambda rs: {_CARRIED_BASE_DEFECTS[defect]})"
    )
    proc = _run_with_defect(patch, ["census", "--type", "B3"], "-O")
    assert proc.returncode == 3 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("mismatch: the carried simple roots ")
    assert line.endswith(" of a flat of B3 are not positive roots of it of full rank")


_ROOT_DATA_DEFECTS = {
    "closure": (
        "from toricarr import rootsys\n"
        "closure = rootsys._closure\n"
        "rootsys._closure = lambda cartan: tuple(part[:-1] for part in closure(cartan))",
        "G2",
        "closure produced 5 positive roots, expected 6 for G2",
        "layers",
    ),
    "symmetrizer": (
        "from toricarr import rootsys\n"
        "symmetrizer = rootsys._symmetrizer\n"
        "rootsys._symmetrizer = lambda cartan: symmetrizer(cartan)[::-1]",
        "B3",
        "non-integral Cartan pairing",
        "points",
    ),
}


@pytest.mark.parametrize("defect", sorted(_ROOT_DATA_DEFECTS))
def test_root_data_checks_survive_optimized_mode(defect):
    patch, t, message, command = _ROOT_DATA_DEFECTS[defect]
    proc = _run_with_defect(patch, [command, "--type", t], "-O")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == f"mismatch: {message}\n"
