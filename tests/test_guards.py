"""Every internal check in `src/` fires: one row of DEFECTS per guard, found by AST.

A guard site is a `raise AssertionError(...)` statement, or a call of
`verify._require`, in a function of `src/toricarr`.  It is named
`module.function#k`, the k-th guard of that function in source order.  Each
row of DEFECTS names its site, a command line, a defect (a function that
patches the library through `monkeypatch`) and what the defective request
prints: exit 3, nothing on stdout and exactly the listed `mismatch:` lines
on stderr, or for `verify` exit 3, nothing on stderr, exactly the listed
mismatch rows, and every other line as without the defect.  A row with no
site names a library ValueError, which exits 3 the same way.

Three tests read the table: the set of sites the rows name must equal the
set of guards in `src/`; each row, run in process with a tracer on the
site's function, must give its output and must raise at its site, so
sites with one message are told apart; and one `python -O` interpreter
replays every row and must print what the rows print in process.  `src/`
has no `assert` and reads no optimization flag (`tests/test_layout.py`),
which is why the rows can run in process at all.
"""

import ast
import contextlib
import functools
import importlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import pytest

import toricarr
from toricarr import cli, intlat, layers, oracle, rootsys, subsys, verify, weyl
from toricarr.rootsys import RootSystem, TypeSymbol, format_type

SRC = Path(toricarr.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


class Defect(NamedTuple):
    site: Optional[str]  # module.function#k, or None for a library ValueError
    argv: list[str]
    patch: Callable  # patch(monkeypatch) applies the defect
    expected: list[str]  # stderr lines, or for verify the mismatch rows of stdout


def _wrap(monkeypatch, owner, name, defective, first_only=False):
    """Replace owner.name by defective(original, *args), on every call or on the first only."""
    original = getattr(owner, name)
    calls = itertools.count()

    def patched(*args, **kwargs):
        if first_only and next(calls):
            return original(*args, **kwargs)
        return defective(original, *args, **kwargs)

    monkeypatch.setattr(owner, name, patched)


def _raise_value_error(message):
    def raising(*args):
        raise ValueError(message)

    return raising


def _extra_edge(classify, cartan):
    # An extra edge in a rank-3 flat's carried Cartan matrix, so classify_dynkin raises ValueError.
    rows = [list(row) for row in cartan]
    if len(rows) == 3:
        rows[0][2] = rows[2][0] = -1
    return classify(rows)


def _reversed_symmetrizer(init, rs, factors):
    # The simple roots still pair as the Cartan matrix says, but a short and a long root off them do not.
    init(rs, factors)
    rs.symmetrizer = rs.symmetrizer[::-1]


def _identity_cartan(classes, rs, d):
    # An identity Cartan matrix makes <Theta^vee> all of Z^k, which cannot lie inside B3's R^Phi(Theta).
    def identity(theta):
        k = range(len(theta.simples))
        return theta._replace(cartan=tuple(tuple(int(i == j) for j in k) for i in k))

    return tuple((identity(theta), size) for theta, size in classes(rs, d))


def _repeated_simples(classes, rs, d):
    # A2's class at d = 0 with its first simple root twice: its Cartan matrix [[2, 2], [2, 2]] has rank 1.
    out = list(classes(rs, d))
    if d == 0:
        theta, size = out[0]
        simples = theta.simples[:1] * len(theta.simples)
        out[0] = (theta._replace(simples=simples, cartan=rs.cartan_of(simples)), size)
    return tuple(out)


def _carried_simples(simples):
    """A defect that carries simples(rs, the true simple indices) as the simple roots of rs."""
    true = RootSystem.simple_indices.func
    carried = property(lambda rs: simples(rs, true(rs)))
    return lambda monkeypatch: monkeypatch.setattr(RootSystem, "simple_indices", carried)


def _vertex_0_typed_a3(classify, adj, cartan, deleted=None):
    return (TypeSymbol("A", 3),) if deleted == 0 else classify(adj, cartan, deleted)


def _merged_vertex_orbits(automorphisms, diagram):
    # Vertices 0 and 1 in one orbit: G2's carry 1 and 2 points.
    autos, orbits = automorphisms(diagram)
    return autos, (orbits[0] + orbits[1],) + orbits[2:]


def _one_more_point_at_vertex_0(data, sym):
    record = data(sym)
    (p, ptype, wp, size), *rest = record.vertices
    return record._replace(vertices=((p, ptype, wp, size + 1), *rest))


def _weyl_order_plus_1(invariants, factors):
    inv = invariants(factors)
    return inv._replace(weyl_order=inv.weyl_order + 1)


def _times_s2(longest, cartan, J):
    # Each w_0^p becomes w_0^p s_2, so z_p = w_0^p s_2 w_0 still sends -theta to alpha_p (s_2 fixes A3's
    # theta) but moves the simple roots off the extended ones.
    J = list(J)
    w = longest(cartan, J)
    if len(J) == len(cartan):
        return w
    cols = list(zip(*w))  # (w s_2) alpha_i = w alpha_i - <alpha_i, alpha_2^vee> w alpha_2
    cols = [tuple(x - cartan[1][i] * y for x, y in zip(col, cols[1])) for i, col in enumerate(cols)]
    return tuple(zip(*cols))


def _one_stabilizer_more(orbits, sym):
    # The point count stays, so only the multisets of types and stabilizers differ.
    first, *rest = orbits(sym)
    return (first._replace(stabilizer_order=first.stabilizer_order + 1), *rest)


def _vertex_1_alone(orbits, sym):
    # Vertex 1 leaves the Aut-orbit it shares with vertex 0, so points_oracle expects twice their W x Z stabilizers.
    return tuple(r._replace(aut_orbit=-1) if r.vertex == 1 else r for r in orbits(sym))


def _row_at_rank_0(scan, rows, m, rank):
    # The quotient of the flat of no roots is a rank-0 torus, and its scan is given a row.
    return scan([*rows, ()] if not rank else rows, m, rank)


def _zero_row(scan, rows, m, rank):
    # A zero row is the sum of itself and any row, so no row is simple at the origin, which is then no point.
    return scan([*rows, (0,) * rank], m, rank)


def _one_more_component_on_b2(count, rs, theta):
    return count(rs, theta) + (format_type(theta.type) == "B2")


def _last_coordinate_dropped(residue):
    # A residue that forgets the last coordinate: points that differ there alone get one name.
    return lambda basis, vec: residue(basis, vec)[:-1] + (0,)


def _without_first_layer(build, rs, **kwargs):
    # The poset loses its first point.
    poset = build(rs, **kwargs)
    return poset._replace(layers=poset.layers[1:])


def _route_defect(monkeypatch):
    # On B3 the terms (2, 1) and (1, -1) add (q+1)^2 q - (q+1) q^2 = q + q^2, that is (0, 1, 1, 0), to the
    # layer sum's coefficients.  It keeps P(0) and P(-1), so only the route comparison can catch it.
    _wrap(monkeypatch, layers, "_layer_terms", lambda terms, records: terms(records) + [(2, 1), (1, -1)])


_ROUTES = "closed-form and layer-sum Poincare polynomials differ"
_CARRIED = "the carried simple roots {} of a flat of B3 are not positive roots of it of full rank"
_POSET_LAYERS = "a flat has no layer, or the flat of all roots not one layer per point"

DEFECTS = {
    # -- intlat
    "index_in_zk": Defect(
        "intlat.index_in_zk#1", ["census", "--type", "A2"],
        lambda mp: _wrap(mp, layers, "parabolic_classes", _repeated_simples),
        ["mismatch: a lattice of rank 1 in Z^2"],
    ),
    # -- layers
    "vertex_orbits": Defect(
        "layers.point_orbits#1", ["points", "--type", "G2"],
        lambda mp: _wrap(mp, layers, "diagram_automorphisms", _merged_vertex_orbits),
        ["mismatch: vertex and Q-orbit point counts disagree"],
    ),
    "n_theta_division": Defect(
        "layers.n_theta#1", ["census", "--type", "B3"],
        lambda mp: _wrap(mp, layers, "parabolic_classes", _identity_cartan),
        ["mismatch: theta's coroot lattice is not inside R^Phi(Theta)"],
    ),
    "n_theta_divides_points": Defect(
        # A2's three points are all of type A2, and 4 does not divide 3.
        "layers.layer_census#1", ["census", "--type", "A2"],
        lambda mp: mp.setattr(layers, "n_theta", lambda rs, theta: 4),
        ["mismatch: n_theta does not divide a point-type count"],
    ),
    "orlik_solomon": Defect(
        "layers._check_orlik_solomon#1", ["poincare", "--type", "B3"],
        lambda mp: _wrap(
            mp, layers, "parabolic_classes",
            lambda classes, rs, d: tuple((theta, size + (d == 1)) for theta, size in classes(rs, d)),
        ),
        ["mismatch: Orlik-Solomon factorisation fails: flats give [1, 9, 29, 15], degrees give [1, 9, 23, 15]"],
    ),
    "euler_routes": Defect(
        # The point sum moves by the exponent product of vertex 0's type.
        "layers.euler_characteristic#1", ["euler", "--type", "G2"],
        lambda mp: _wrap(mp, layers, "type_data", _one_more_point_at_vertex_0),
        ["mismatch: point-sum and closed-form Euler characteristics differ"],
    ),
    "n_theta_divides_w_theta": Defect(
        # The exponent products stay, so the census and its Orlik-Solomon check pass.
        "layers._closed_form_terms#1", ["poincare", "--type", "A2"],
        lambda mp: _wrap(mp, layers, "type_invariants", _weyl_order_plus_1),
        ["mismatch: n_theta does not divide |W^Theta|"],
    ),
    "routes_poincare": Defect(
        "layers.poincare#1", ["poincare", "--type", "B3"], _route_defect, [f"mismatch: {_ROUTES}"]
    ),
    "routes_euler": Defect("layers.poincare#1", ["euler", "--type", "B3"], _route_defect, [f"mismatch: {_ROUTES}"]),
    "routes_verify": Defect(
        "layers.poincare#1", ["verify", "--type", "B3"], _route_defect, [f"  poincare_routes: mismatch ({_ROUTES})"]
    ),
    "constant_term": Defect(
        # Every term of both Poincare routes doubles, so they agree and only the constant term is off.
        "layers.poincare#2", ["poincare", "--type", "A2"],
        lambda mp: _wrap(
            mp, layers, "_assemble", lambda assemble, n, terms: assemble(n, [(d, 2 * c) for d, c in terms])
        ),
        ["mismatch: Poincare polynomial has nonunit constant term"],
    ),
    "poincare_at_minus_1": Defect(
        "layers.poincare#3", ["poincare", "--type", "A2"],
        lambda mp: mp.setattr(layers, "euler_characteristic", lambda factors: 0),
        ["mismatch: Poincare polynomial disagrees with the Euler characteristic"],
    ),
    # -- oracle
    "rank_0_scan_with_a_row": Defect(
        # The component count of the flat of no roots scans a rank-0 quotient torus.
        "oracle._grid_points#1", ["verify", "--type", "A1"],
        lambda mp: _wrap(mp, oracle, "_grid_points", _row_at_rank_0),
        ["  component_counts: mismatch (the rows are not the positive roots of a rank-0 system)"],
    ),
    "zero_row": Defect(
        # The point scan alone gets the zero row.
        "oracle._grid_points#2", ["verify", "--type", "B3"],
        lambda mp: _wrap(mp, oracle, "_grid_points", _zero_row, first_only=True),
        ["  points_oracle: mismatch (the rows are not the positive roots of a rank-3 system)"],
    ),
    "center_order": Defect(
        # One element more in |Z| than the grid points at which every root vanishes.
        "oracle.brute_points#1", ["verify", "--type", "B3"],
        lambda mp: _wrap(mp, oracle, "center_order", lambda order, factors: order(factors) + 1),
        ["  points_oracle: mismatch (center grid vectors do not match the center order)"],
    ),
    "dropped_grid_points": Defect(
        # Drop the last point of every scan: its W-conjugates then map outside the scan.  The poset's
        # one point scan loses the point (4, 0), and with it one layer of dimension 0; every layer of
        # dimension 1 still has another point on it.
        "oracle.brute_points#2", ["verify", "--type", "G2"],
        lambda mp: _wrap(mp, oracle, "_grid_points", lambda scan, *args: scan(*args)[:-1]),
        [
            "  points_oracle: mismatch (a W-image of the grid point (2, 0) is not a point)",
            "  component_counts: mismatch (theta G2: components 5 != 6/1)",
            "  poset_grading: mismatch (d=0: poset 5 != census 6)",
        ],
    ),
    "dropped_point_grid_hit": Defect(
        # Drop the last hit of the point scan alone: the quotient scans stay intact.
        "oracle.brute_points#2", ["verify", "--type", "B4"],
        lambda mp: _wrap(mp, oracle, "_grid_points", lambda scan, *args: scan(*args)[:-1], first_only=True),
        ["  points_oracle: mismatch (a W-image of the grid point (0, 0, 2, 0) is not a point)"],
    ),
    "dropped_grid_lane_row": Defect(
        # The first row of the point scan gets an empty lane, so it vanishes nowhere, not even at the origin.
        "oracle._grid_points#2", ["verify", "--type", "B3"],
        lambda mp: _wrap(mp, oracle, "_row_lane", lambda lane, *args: 0, first_only=True),
        ["  points_oracle: mismatch (the rows are not the positive roots of a rank-3 system)"],
    ),
    "orbit_size_divides_w": Defect(
        # With |W| off by one, 49, B3's point orbits of sizes 2 and 6 no longer divide it.
        "oracle.brute_points#3", ["verify", "--type", "B3"],
        lambda mp: _wrap(mp, oracle, "type_invariants", _weyl_order_plus_1),
        [
            "  points_oracle: mismatch (the W-orbit of the grid point (0, 2, 0) has 6 points,"
            " which does not divide |W| = 49)"
        ],
    ),
    "poset_flat_without_layer": Defect(
        # The spanning test reads every rank one short: only the flat of no roots is spanned anywhere.
        "oracle.build_poset#1", ["poset", "--type", "A2"],
        lambda mp: _wrap(mp, oracle, "simple_system", lambda simples, rs, pos: simples(rs, pos)[:-1]),
        [f"mismatch: {_POSET_LAYERS}"],
    ),
    "poset_points_merged": Defect(
        # A1's two points differ in their last coordinate alone, so the flat Phi gets one layer.
        "oracle.build_poset#1", ["verify", "--type", "A1"],
        lambda mp: mp.setattr(
            oracle, "intlat", SimpleNamespace(**{**vars(intlat), "residue": _last_coordinate_dropped(intlat.residue)})
        ),
        [f"  poset_grading: mismatch ({_POSET_LAYERS})"],
    ),
    # -- rootsys
    "symmetrizer": Defect(
        "rootsys._pairing_matrix#1", ["points", "--type", "B3"],
        lambda mp: _wrap(mp, rootsys, "_symmetrizer", lambda symmetrizer, cartan: symmetrizer(cartan)[::-1]),
        ["mismatch: non-integral Cartan pairing"],
    ),
    "cartan_pairing": Defect(
        # G2's poset types only subsystems on simple roots, so only the point oracle fails.
        "rootsys._pairing_matrix#1", ["verify", "--type", "G2"],
        lambda mp: _wrap(mp, RootSystem, "__init__", _reversed_symmetrizer),
        ["  points_oracle: mismatch (non-integral Cartan pairing)"],
    ),
    "closure": Defect(
        "rootsys.RootSystem.__init__#1", ["layers", "--type", "G2"],
        lambda mp: _wrap(mp, rootsys, "_closure", lambda closure, cartan: tuple(part[:-1] for part in closure(cartan))),
        ["mismatch: closure produced 5 positive roots, expected 6 for G2"],
    ),
    "short_theta": Defect(
        # Ascent from B3's short simple root alpha_3 ends at the highest short root (1, 1, 1), not at theta.
        "rootsys.affine_diagram#1", ["points", "--type", "B3"],
        lambda mp: _wrap(mp, rootsys, "_ascend", lambda ascend, cartan, root: ascend(cartan, [0, 0, 1])),
        ["mismatch: the marks of B3 are not a left null vector of its symmetrized affine Cartan matrix"],
    ),
    "parabolic_order": Defect(
        # |W(A3)| = 24 does not divide |W(G2)| = 12.
        "rootsys.type_data#1", ["points", "--type", "G2"],
        lambda mp: _wrap(mp, rootsys, "_classify_diagram", _vertex_0_typed_a3),
        ["mismatch: parabolic order does not divide |W|"],
    ),
    # -- subsys
    "simple_root_count": Defect(
        # One simple root short.  B4 is past the default poset rank, so only the point oracle types subsystems.
        "subsys.simple_type#1", ["verify", "--type", "B4"],
        lambda mp: _wrap(mp, subsys, "simple_system", lambda simples, rs, pos: simples(rs, pos)[:-1]),
        ["  points_oracle: mismatch (a closed subsystem of rank 4 of B4 has 3 simple roots)"],
    ),
    "carried_highest": Defect(
        # The n highest positive roots in place of the simple ones: J's base then lies outside X_J.
        "subsys.parabolic_classes#1", ["census", "--type", "B3"],
        _carried_simples(lambda rs, simples: tuple(range(rs.n_positive - rs.rank, rs.n_positive))),
        [f"mismatch: {_CARRIED.format((2, 6))}"],
    ),
    "carried_repeated": Defect(
        # One simple root n times: J's base then has rank 1.
        "subsys.parabolic_classes#1", ["census", "--type", "B3"],
        _carried_simples(lambda rs, simples: simples[:1] * rs.rank),
        [f"mismatch: {_CARRIED.format((2, 2, 2))}"],
    ),
    # -- verify
    "degree_identity": Defect(
        "verify.degree_identity#1", ["verify", "--type", "G2"],
        lambda mp: _wrap(mp, layers, "verify_degree_identity", lambda identity, sym: identity(sym)._replace(total=(2, 1))),
        ["  degree_identity: mismatch (G2: sum = 2)"],
    ),
    "point_count": Defect(
        "verify.points_oracle#1", ["verify", "--type", "A2"],
        lambda mp: _wrap(mp, layers, "count_points", lambda count, factors: count(factors) + 1),
        [
            "  points_oracle: mismatch (brute 3 != formula 4)",
            "  component_counts: mismatch (theta A2: components 3 != 4/1)",
        ],
    ),
    "point_multisets": Defect(
        "verify.points_oracle#2", ["verify", "--type", "G2"],
        lambda mp: _wrap(mp, layers, "point_orbits", _one_stabilizer_more),
        ["  points_oracle: mismatch (type/stabilizer multisets differ)"],
    ),
    "aut_orbit_column": Defect(
        # The brute W x Z stabilizers check the aut_orbit column that `points` prints.
        "verify.points_oracle#2", ["verify", "--type", "B3"],
        lambda mp: _wrap(mp, layers, "point_orbits", _vertex_1_alone),
        ["  points_oracle: mismatch (type/stabilizer multisets differ)"],
    ),
    "component_count": Defect(
        # One more component for the theta of type B2 than the quotient torus has.
        "verify.component_counts#1", ["verify", "--type", "B3"],
        lambda mp: _wrap(mp, oracle, "component_count", _one_more_component_on_b2),
        ["  component_counts: mismatch (theta B2: components 3 != 4/2)"],
    ),
    "poset_grading": Defect(
        "verify.poset_grading#1", ["verify", "--type", "A2"],
        lambda mp: _wrap(mp, oracle, "build_poset", _without_first_layer),
        ["  poset_grading: mismatch (d=0: poset 2 != census 3)"],
    ),
    "center_subgroup_order": Defect(
        # Without its last element, A3's W_Z has 3 elements but |Z| = 4.
        "verify.iwahori_matsumoto#1", ["verify", "--type", "A3"],
        lambda mp: _wrap(mp, weyl, "center_subgroup", lambda center, sym: center(sym)[:-1]),
        ["  iwahori_matsumoto: mismatch (A3: |W_Z| = 3 != |Z| = 4)"],
    ),
    "aut_orbits": Defect(
        # G2's W_Z is trivial, so its vertex orbits are single vertices; verify alone reads the merged orbits.
        "verify.iwahori_matsumoto#2", ["verify", "--type", "G2"],
        lambda mp: _wrap(mp, verify, "diagram_automorphisms", _merged_vertex_orbits),
        ["  iwahori_matsumoto: mismatch (G2: orbit mismatch)"],
    ),
    # -- weyl
    "short_theta_in_center_subgroup": Defect(
        # B3's highest short root (1, 1, 1) in place of the theta that weyl reads from the record, after the
        # record's null-vector check: z_1 = w_0^1 w_0 does not send -theta to alpha_1.  Only iwahori_matsumoto
        # builds W_Z, so its row alone reports the guard, here and in the next row.
        "weyl.center_subgroup#1", ["verify", "--type", "B3"],
        lambda mp: _wrap(
            mp, weyl, "type_data",
            lambda data, sym: data(sym)._replace(diagram=data(sym).diagram._replace(marks=(1, 1, 1, 1))),
        ),
        ["  iwahori_matsumoto: mismatch (z_1.alpha_0 != alpha_1)"],
    ),
    "center_subgroup_permutes": Defect(
        "weyl.center_subgroup#2", ["verify", "--type", "A3"],
        lambda mp: _wrap(mp, weyl, "longest_element", _times_s2),
        ["  iwahori_matsumoto: mismatch (z_p does not permute the extended simple roots)"],
    ),
    # -- a ValueError from the library, which no guard raises
    "classify_value_error": Defect(
        None, ["census", "--type", "A3"],
        lambda mp: _wrap(mp, subsys, "classify_dynkin", _extra_edge),
        ["mismatch: graph is not a tree: not a finite Dynkin diagram"],
    ),
    "check_value_error": Defect(
        # The other checks still report their rows.
        None, ["verify", "--type", "A2"],
        lambda mp: mp.setattr(layers, "verify_degree_identity", _raise_value_error("an internal fault")),
        ["  degree_identity: mismatch (an internal fault)"],
    ),
    "point_oracle_value_error": Defect(
        # The roots vanishing at a grid point do not type: verify reports it in the points_oracle row alone.
        None, ["verify", "--type", "G2"],
        lambda mp: mp.setattr(oracle, "simple_type", _raise_value_error("vanishing roots are not a subsystem")),
        ["  points_oracle: mismatch (vanishing roots are not a subsystem)"],
    ),
}


def run_row(row, clear_every_cache):
    """(exit code, stdout, stderr) of the row's request with its defect applied, from cold caches."""
    clear_every_cache()  # a cached result would skip the patched code
    out, err = io.StringIO(), io.StringIO()
    try:
        with pytest.MonkeyPatch.context() as monkeypatch:
            row.patch(monkeypatch)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(row.argv)
    finally:
        clear_every_cache()  # nor may a result of the defect outlive it
    return code, out.getvalue(), err.getvalue()


@functools.cache
def guard_sites():
    """{site: (file, first line of its function, line of the guard)} for every guard in src/."""
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        file = importlib.import_module("toricarr" if path.stem == "__init__" else f"toricarr.{path.stem}").__file__
        found = []  # (qualified function name, its first line, guard line)

        def visit(node, prefix, function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    visit(child, f"{prefix}{child.name}.<locals>.", (f"{prefix}{child.name}", first))
                    continue
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", function)
                    continue
                raised = isinstance(child, ast.Raise) and child.exc is not None and "AssertionError" in {
                    getattr(child.exc, "id", None), getattr(getattr(child.exc, "func", None), "id", None)
                }
                required = isinstance(child, ast.Call) and getattr(child.func, "id", None) == "_require"
                if (raised and function[0] != "_require") or required:
                    found.append((*function, child.lineno))
                visit(child, prefix, function)

        visit(ast.parse(path.read_text()), "", ("<module>", 0))
        for (name, first), guards in itertools.groupby(sorted(found), key=lambda g: g[:2]):
            for k, (_, _, line) in enumerate(guards, 1):
                sites[f"{path.stem}.{name}#{k}"] = (file, first, line)
    return sites


def _traced(site, run):
    """run()'s result, and the lines of the site's function at which an AssertionError was raised or passed."""
    file, first, _ = guard_sites()[site]
    lines = set()

    def local(frame, event, arg):
        if event == "exception" and issubclass(arg[0], AssertionError):
            lines.add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        code = frame.f_code
        return local if code.co_firstlineno == first and code.co_filename == file else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        return run(), lines
    finally:
        sys.settrace(previous)


def test_every_guard_site_has_a_row():
    sites, named = set(guard_sites()), {row.site for row in DEFECTS.values() if row.site}
    assert (sorted(sites - named), sorted(named - sites)) == ([], []), "(guards with no row, rows with no guard)"


@pytest.mark.parametrize("name", list(DEFECTS))
def test_row_trips_its_guard(clear_every_cache, name):
    row = DEFECTS[name]
    if row.site:
        (code, out, err), fired = _traced(row.site, lambda: run_row(row, clear_every_cache))
        assert guard_sites()[row.site][2] in fired, f"{row.site} did not raise"
    else:
        code, out, err = run_row(row, clear_every_cache)
    if row.argv[0] != "verify":
        assert (code, out, err.splitlines()) == (3, "", row.expected)
        return
    clean_code, clean, _ = run_row(Defect(None, row.argv, lambda monkeypatch: None, []), clear_every_cache)
    lines, clean = out.splitlines(), clean.splitlines()
    assert (code, err, clean_code, len(lines)) == (3, "", 0, len(clean))
    assert [line for line in lines if ": mismatch" in line] == row.expected
    assert [line for line, ok in zip(lines, clean) if line != ok] == row.expected


_REPLAY = """
import json
from conftest import _clear_every_cache
from test_guards import DEFECTS, run_row
print(json.dumps([__debug__, {name: run_row(row, _clear_every_cache) for name, row in DEFECTS.items()}]))
"""


def test_every_row_prints_the_same_under_python_O(clear_every_cache):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), str(TESTS)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _REPLAY], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    debug, optimized = json.loads(proc.stdout)
    assert debug is False
    for name, row in DEFECTS.items():
        assert optimized[name] == list(run_row(row, clear_every_cache)), name
