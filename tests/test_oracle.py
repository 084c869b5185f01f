"""Brute-force oracles: grid point enumeration, component counts, the poset."""

from collections import Counter
from fractions import Fraction
from itertools import product as iproduct
from operator import mul
from types import SimpleNamespace
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricarr import intlat, oracle
from toricarr.errors import CapabilityError
from toricarr.layers import count_layers, count_points, n_theta, point_orbits
from toricarr.oracle import (
    BrutePoint,
    _grid_points,
    _quotient_arrangement,
    _quotient_layers,
    brute_points,
    build_poset,
    component_count,
    order_bound,
)
from toricarr.rootsys import build_str, center_order, format_type, parse_type
from toricarr.subsys import Subsystem, enumerate_complete, simple_type

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]


def test_order_bound_values():
    assert order_bound(parse_type("A2")) == 3   # marks 1, exp Z = 3
    assert order_bound(parse_type("F4")) == 12  # lcm(1,2,3,4,2), trivial center
    assert order_bound(parse_type("B3")) == 4   # lcm 2 * exp 2
    assert order_bound(parse_type("G2")) == 6


def test_brute_points_c2():
    pts = brute_points(build_str("C2"))
    assert len(pts) == 4


def test_brute_points_a2(brute_point_grid):
    grid = brute_point_grid(build_str("A2"))
    assert len(grid) == 3
    assert all(format_type(p.phi_type) == "A2" for _, p in grid)
    assert all(p.stabilizer_order == 6 for _, p in grid)
    # the three points are the center, the cube roots of the identity: x_2 = 2 x_1 mod 3
    assert [x for x, _ in grid] == [(0, 0), (1, 2), (2, 1)]


def test_brute_points_g2():
    pts = brute_points(build_str("G2"))
    types = Counter(format_type(p.phi_type) for p in pts)
    assert types == {"G2": 1, "A1xA1": 3, "A2": 2}


@pytest.mark.parametrize("t", ["G2", "A3", "B3", "C3", "A4", "B4", "D4", "F4", "A2xA1", "B2xA1", "A1xA1xA1"])
def test_brute_center_equals_the_smith_form_reference(reference_center_grid_vectors, brute_point_grid, t):
    # The central points are those at which every root vanishes: the type of the whole system.
    rs = build_str(t)
    centers = {x for x, p in brute_point_grid(rs) if p.phi_type == rs.factors}
    assert centers == set(reference_center_grid_vectors(rs, order_bound(rs.factors)))


def test_brute_points_capability():
    # rank alone refuses nothing: D5's grid is 8^5 x 20, inside the work bound
    rs = build_str("D5")
    assert len(brute_points(rs)) == count_points(rs.factors) == 44


@pytest.mark.parametrize("t", RANK_LE_4)
def test_brute_count_and_types_match_formula(t):
    rs = build_str(t)
    pts = brute_points(rs)
    assert len(pts) == count_points(rs.factors)
    brute_types = Counter(p.phi_type for p in pts)
    formula_types = Counter()
    for r in point_orbits(*rs.factors):
        formula_types[r.point_type] += r.orbit_size
    assert brute_types == formula_types


# B7 and C7 (242 and 128 points) have |W| = 645120, too large for a table of W's elements.
@pytest.mark.parametrize("t", RANK_LE_4 + ["B7", "C7"])
def test_brute_stabilizers_match_parabolic_orders(t):
    rs = build_str(t)
    pts = brute_points(rs)
    brute = Counter((p.phi_type, p.stabilizer_order) for p in pts)
    expected = Counter()
    for r in point_orbits(*rs.factors):
        expected[(r.point_type, r.stabilizer_order)] += r.orbit_size
    assert brute == expected


def _dot_mod(u, x, m):
    return sum(a * b for a, b in zip(u, x)) % m


def _naive_brute_points(rs, matrices, make_subsystem):
    """The torsion-grid scan written out per candidate and per point: (grid point, record), in lexicographic order.

    Stabilizers are counted over the given coroot matrices of every element
    of W, and each point's type is that of its vanishing roots' saturation.
    """
    n, m = rs.rank, order_bound(rs.factors)
    pairings = [[sum(map(mul, row, r)) for row in rs.cartan] for r in rs.positive_roots]
    grid = list(iproduct(range(m), repeat=n))

    def vanishing(x):
        return [i for i, u in enumerate(pairings) if _dot_mod(u, x, m) == 0]

    # The center: grid points where every root is integral.
    centers = [x for x in grid if len(vanishing(x)) == len(pairings)]
    records = []
    for x in grid:
        van = vanishing(x)
        if len(intlat.hermite_normal_form([rs.positive_roots[i] for i in van])) < n:
            continue
        images = [tuple(_dot_mod(row, x, m) for row in mat) for mat in matrices]
        stab = images.count(x)
        shifts = sum(1 for z in centers if tuple((a - b) % m for a, b in zip(x, z)) in images)
        records.append((x, BrutePoint(make_subsystem(rs, van).type, stab, stab * shifts)))
    return records


def _naive_component_count(rs, theta):
    """Points of theta's arrangement on its quotient torus, one candidate at a time."""
    qa = _quotient_arrangement(rs, theta)
    rank, m = len(theta.simples), qa.modulus
    count = 0
    for x in iproduct(range(m), repeat=rank):
        van = [row for row in qa.rows if _dot_mod(row, x, m) == 0]
        count += len(intlat.hermite_normal_form(van)) == rank
    return count


@pytest.mark.parametrize("t", ["G2", "B3", "C3", "A2xA1", "B2xA1", "B4"])
def test_grid_kernel_matches_naive_scan(t, weyl_elements, coroot_matrix, make_subsystem, brute_point_grid):
    rs = build_str(t)
    matrices = [coroot_matrix(rs, w) for w in weyl_elements(rs)]
    assert brute_point_grid(rs) == _naive_brute_points(rs, matrices, make_subsystem)
    for d in range(rs.rank + 1):
        for theta in enumerate_complete(rs, d).members:
            assert component_count(rs, theta) == _naive_component_count(rs, theta), (d, theta)


@pytest.mark.parametrize("t", ["G2", "B3", "C3", "A2xA1", "B2xA1", "B4", "F4", "D5"])
def test_point_grid_matches_per_candidate_loop(t):
    rs = build_str(t)
    n, m = rs.rank, order_bound(rs.factors)
    rows = rs.pairings
    expected = []
    for x in iproduct(range(m), repeat=n):
        van = tuple(i for i, u in enumerate(rows) if _dot_mod(u, x, m) == 0)
        if len(van) >= n and len(intlat.hermite_normal_form([rows[i] for i in van])) == n:
            expected.append(x)
    assert _grid_points(rows, m, n) == expected


@pytest.mark.parametrize("t", ["A1", "B2"])
def test_grid_scan_rejects_a_zero_row(t):
    # A zero row is the sum of itself and any row, so no row is simple at
    # the origin, and the origin is no point.
    rs = build_str(t)
    rows = [*rs.pairings, (0,) * rs.rank]
    with pytest.raises(AssertionError, match=f"not the positive roots of a rank-{rs.rank} system"):
        _grid_points(rows, order_bound(rs.factors), rs.rank)


def test_rank_zero_scan_is_the_origin_alone():
    # A rank-0 system has no roots, so a row given to its scan breaks the premise.
    assert _grid_points([], 5, 0) == [()]
    with pytest.raises(AssertionError, match="not the positive roots of a rank-0 system"):
        _grid_points([()], 5, 0)


TYPES_LE_4 = RANK_LE_4 + [
    "A2xA1", "B2xA1", "G2xA1", "A3xA1", "A2xA2", "B2xG2", "A1xA1xA1", "A1xA1xA1xA1"
]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lane_scan_matches_recursive_kernel(recursive_grid_points, data):
    # The positive roots of a system of rank <= 4, in random unimodular
    # coordinates and a random order.
    rs = build_str(data.draw(st.sampled_from(TYPES_LE_4)))
    n = rs.rank
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    index = st.integers(0, n - 1)
    for i, j, s in data.draw(st.lists(st.tuples(index, index, st.integers(-2, 2)), max_size=8)):
        if i != j:
            basis[i] = [a + s * b for a, b in zip(basis[i], basis[j])]
    columns = list(zip(*basis))
    rows = [tuple(sum(map(mul, u, col)) for col in columns) for u in rs.pairings]
    rows = data.draw(st.permutations(rows))
    m = data.draw(st.integers(2, 12))
    assert _grid_points(rows, m, n) == [x for x, _ in recursive_grid_points(rows, m, n)]


@pytest.mark.parametrize("t", RANK_LE_4 + ["A2xA1", "B2xA1", "A1xA1xA1", "G2xG2", "D5"])
def test_quotient_scans_match_recursive_kernel(t, recursive_grid_points):
    rs = build_str(t)
    for d in range(rs.rank + 1):
        for theta in enumerate_complete(rs, d).members:
            qa = _quotient_arrangement(rs, theta)
            args = (qa.rows, qa.modulus, len(theta.simples))
            assert _grid_points(*args) == [x for x, _ in recursive_grid_points(*args)], (d, theta.roots)


@pytest.mark.parametrize("t", TYPES_LE_4 + ["D5"])
def test_brute_points_shortcuts_hold_at_every_point(t, weyl_elements, coroot_matrix, brute_point_grid):
    # brute_points types one point per W-orbit, and finds the center as the
    # points at which every simple root vanishes.  At every point, the type
    # of its own vanishing roots is the recorded one; and the centers are the
    # points at which every positive root vanishes, as the W x Z stabilizers
    # show: each counts the central shifts that keep the point in its orbit.
    rs = build_str(t)
    m = order_bound(rs.factors)
    rows = rs.pairings
    grid = brute_point_grid(rs)
    centers = [x for x, _ in grid if all(_dot_mod(u, x, m) == 0 for u in rows)]
    assert len(centers) == center_order(rs.factors)
    matrices = [coroot_matrix(rs, w) for w in weyl_elements(rs)]
    for x, p in grid:
        vanishing = [i for i, u in enumerate(rows) if _dot_mod(u, x, m) == 0]
        assert simple_type(rs, vanishing, rs.rank)[2] == p.phi_type, x
        orbit = {tuple(_dot_mod(row, x, m) for row in mat) for mat in matrices}
        shifts = sum(1 for z in centers if tuple((a - b) % m for a, b in zip(x, z)) in orbit)
        assert p.wz_stabilizer_order == p.stabilizer_order * shifts, x


@pytest.mark.parametrize("t", ["B3", "C3", "B4", "D4", "F4"])
def test_brute_stabilizers_count_fixing_elements(t, weyl_elements, coroot_matrix, brute_point_grid):
    rs = build_str(t)
    m = order_bound(rs.factors)
    matrices = [coroot_matrix(rs, w) for w in weyl_elements(rs)]
    for x, p in brute_point_grid(rs):
        fixing = sum(1 for mat in matrices if tuple(_dot_mod(row, x, m) for row in mat) == x)
        assert p.stabilizer_order == fixing, x


def test_orbit_size_must_divide_group_order(monkeypatch):
    # With |W| off by one, 49, B3's point orbits of sizes 2 and 6 no longer divide it.
    invariants = oracle.type_invariants

    def wrong_order(factors):
        inv = invariants(factors)
        return inv._replace(weyl_order=inv.weyl_order + 1)

    monkeypatch.setattr(oracle, "type_invariants", wrong_order)
    with pytest.raises(AssertionError, match="does not divide"):
        brute_points(build_str("B3"))


@pytest.mark.parametrize("t, orbits", [("F4", 5), ("B4", 5), ("B6", 7)])
def test_brute_points_classifies_once_per_point_orbit(monkeypatch, t, orbits):
    # F4 has 72 points in 5 W-orbits, one per affine vertex.
    calls = 0
    classify = oracle.simple_type

    def counting(rs, positives, rank):
        nonlocal calls
        calls += 1
        return classify(rs, positives, rank)

    monkeypatch.setattr(oracle, "simple_type", counting)
    rs = build_str(t)
    brute_points(rs)
    assert calls == orbits == len(point_orbits(*rs.factors))


@pytest.mark.parametrize("t", ["G2", "B3", "F4", "B2xA1"])
def test_brute_points_saturates_nothing(monkeypatch, t):
    # Each point orbit is typed from the simple system of its vanishing roots alone.
    def forbidden(rows):
        raise AssertionError("brute_points saturated")

    monkeypatch.setattr(intlat, "saturate", forbidden)
    rs = build_str(t)
    assert len(brute_points(rs)) == count_points(rs.factors)


@pytest.mark.parametrize("t", ["B3", "C3", "F4"])
def test_quotient_rows_equal_the_coordinates_through_r_basis(t, reference_coords_solver):
    # A root's grid row is r_basis applied to its coordinates in theta's simple basis.
    rs = build_str(t)
    for d in range(rs.rank + 1):
        for theta in enumerate_complete(rs, d).members:
            qa = _quotient_arrangement(rs, theta)
            solve = reference_coords_solver([rs.positive_roots[i] for i in theta.simples])
            coords = [solve(rs.positive_roots[i]) for i in theta.roots]
            assert qa.rows == tuple(
                tuple(sum(map(mul, basis_row, c)) for basis_row in qa.r_basis) for c in coords
            ), (d, theta.roots)


@pytest.mark.parametrize("t", ["B3", "F4"])
def test_quotient_arrangement_takes_one_hnf_per_theta(monkeypatch, t):
    # The scan of each quotient arrangement takes none, and a second reading of a flat is cached.
    rs = build_str(t)
    thetas = [theta for d in range(rs.rank + 1) for theta in enumerate_complete(rs, d).members]
    _quotient_layers.cache_clear()
    calls = 0
    hnf = intlat.hermite_normal_form

    def counting(rows):
        nonlocal calls
        calls += 1
        return hnf(rows)

    monkeypatch.setattr(intlat, "hermite_normal_form", counting)
    for theta in thetas + thetas:
        _quotient_layers(rs, theta)
    assert calls == len(thetas)


@pytest.mark.parametrize("t, run", [("F4", brute_points), ("B3", build_poset)], ids=["F4", "B3"])
def test_grid_scans_take_no_hermite_normal_form(monkeypatch, t, run):
    # Points are found by counting simple vanishing rows: no rank test runs
    # in F4's point scan or in the quotient scans of B3's poset.
    inside, scans, calls = False, 0, 0
    hnf, scan = intlat.hermite_normal_form, oracle._grid_points

    def counting(rows):
        nonlocal calls
        calls += inside
        return hnf(rows)

    def flagged(rows, m, rank):
        nonlocal inside, scans
        inside, scans = True, scans + 1
        try:
            return scan(rows, m, rank)
        finally:
            inside = False

    monkeypatch.setattr(intlat, "hermite_normal_form", counting)
    monkeypatch.setattr(oracle, "_grid_points", flagged)
    _quotient_layers.cache_clear()
    run(build_str(t))
    assert scans and calls == 0


def test_grid_scan_work_bound(completion):
    with pytest.raises(CapabilityError, match=r"18\^6 candidates x 36 roots = 1224440064"):
        brute_points(build_str("E6"))
    rs = build_str("A7")
    with pytest.raises(CapabilityError, match=r"8\^7 candidates x 28 roots = 58720256"):
        component_count(rs, completion(rs, range(rs.n_positive)))


def test_component_count_examples(completion):
    rs = build_str("A2")
    theta = completion(rs, [rs.root_index[(1, 0)]])
    assert component_count(rs, theta) == 1
    rs = build_str("B2")
    # the long root e1+e2: locus with two components
    theta = completion(rs, [rs.root_index[(1, 2)]])
    assert component_count(rs, theta) == 2
    # the whole system: all points
    theta = completion(rs, range(rs.n_positive))
    assert component_count(rs, theta) == 4


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4"])
def test_component_count_equals_quotient_formula(t):
    rs = build_str(t)
    for d in range(rs.rank + 1):
        for theta in enumerate_complete(rs, d).members:
            cc = component_count(rs, theta)
            assert cc * n_theta(rs, theta) == count_points(theta.type)


def test_poset_a1(poset_order):
    poset = build_poset(build_str("A1"))
    assert poset.layers == ((0, 0, (0,)), (0, 0, (1,)), (1, 1, (0,)))
    assert poset.modulus == 2
    order = poset_order(poset)
    for i in range(3):
        assert (i, 2) in order


def test_poset_a2_seven_elements():
    poset = build_poset(build_str("A2"))
    assert len(poset.layers) == 7
    assert Counter(d for d, _, _ in poset.layers) == {0: 3, 1: 3, 2: 1}


@pytest.mark.parametrize("t", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_poset_graded_and_partial_order(t, poset_order):
    rs = build_str(t)
    poset = build_poset(rs)
    dims = [d for d, _, _ in poset.layers]
    for d in range(rs.rank + 1):
        assert dims.count(d) == count_layers(rs, d), (t, d)
    n = len(poset.layers)
    rel = poset_order(poset)
    for i in range(n):
        assert (i, i) in rel
    for (i, j) in rel:
        assert (j, i) not in rel or i == j
        for k in range(n):
            if (j, k) in rel:
                assert (i, k) in rel
    # comparable layers have comparable dimensions
    for (i, j) in rel:
        assert dims[i] <= dims[j]


@pytest.mark.parametrize("t", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_poset_zero_layers_are_brute_points(t, brute_point_grid):
    rs = build_str(t)
    poset = build_poset(rs)
    assert poset.modulus == order_bound(rs.factors)
    zero = sorted(base for d, _, base in poset.layers if d == 0)
    assert zero == [x for x, _ in brute_point_grid(rs)]


def test_poset_theta_is_completion_of_integral_roots(completion):
    # every theta root is constant on its layer; the integral ones have
    # full rank in theta and complete back to it (theta itself need not be
    # integral pointwise -- that is exactly the n_theta > 1 phenomenon)
    rs = build_str("B2")
    poset = build_poset(rs)
    for _, t, base in poset.layers:
        theta = poset.thetas[t]
        # beta takes the value sum_k <beta, alpha_k^vee> base_k / modulus on the base point
        integral = [i for i in theta.roots if sum(map(mul, rs.pairings[i], base)) % poset.modulus == 0]
        comp = completion(rs, integral)
        assert comp.roots == theta.roots
        assert completion(rs, theta.roots).roots == theta.roots


def test_poset_layer_multiplicity_per_theta():
    rs = build_str("B2")
    poset = build_poset(rs)
    per_theta = Counter(poset.thetas[t].roots for _, t, _ in poset.layers)
    for d in range(rs.rank + 1):
        for theta in enumerate_complete(rs, d).members:
            assert per_theta[theta.roots] == component_count(rs, theta)


def test_poset_capability():
    with pytest.raises(CapabilityError, match="poset_rank"):
        build_poset(build_str("D4"))


def _reference_covers(relation, size):
    """The transitive reduction of an order: strict pairs (i, j) with no k strictly between."""
    strict = {(i, j) for (i, j) in relation if i != j}
    return tuple(
        (i, j)
        for (i, j) in sorted(strict)
        if not any((i, k) in strict and (k, j) in strict for k in range(size))
    )


@pytest.mark.parametrize("t", ["B3", "C3", "G2xA1", "B4", "D4", "A3xA1"])
def test_poset_covers_match_former_definition(t):
    # The former build: layer i lies in layer j when theta_j lies in theta_i
    # and base_i reduces to base_j modulo M_j, over every pair of flats and
    # not only those one rank apart; the covers are its transitive reduction.
    poset = build_poset(build_str(t), max_rank=4)
    roots = [frozenset(theta.roots) for theta in poset.thetas]
    relation = {
        (i, j)
        for i, (_, f, base) in enumerate(poset.layers)
        for j, (_, u, base_u) in enumerate(poset.layers)
        if roots[u] <= roots[f] and intlat.residue(poset.lattices[u], base) == base_u
    }
    assert poset.covers() == _reference_covers(relation, len(poset.layers))


def test_poset_covers_respect_grading():
    poset = build_poset(build_str("A2"))
    for i, j in poset.covers():
        assert poset.layers[i][0] < poset.layers[j][0]


def _in_fiber(qa, values):
    """Whether rational theta-functional values lie in the lattice R^Phi(Theta)."""
    return all(v.denominator == 1 for v in values) and not any(
        intlat.residue(qa.r_basis, [int(v) for v in values])
    )


class _ReferenceLayer(NamedTuple):
    dimension: int
    span_basis: tuple[tuple[int, ...], ...]  # canonical HNF basis of the saturated span of theta
    base_point: tuple[Fraction, ...]
    theta: Subsystem


def _reference_poset(rs):
    """The former algorithm: a Fraction grid search per layer, then every pair.

    The base point of a layer is the first grid point whose image lies on
    the layer's fiber, and the layers are sorted by dimension, the span
    basis of theta and the base point.  Layer i lies in layer j when
    dim i <= dim j, the span of theta_j lies in that of theta_i (by lattice
    membership), and gamma_j (base_i - base_j) lies in R^Phi(Theta_j).
    """
    n, m = rs.rank, order_bound(rs.factors)
    grid = [tuple(Fraction(c, m) for c in x) for x in iproduct(range(m), repeat=n)]
    layers = []
    for d in range(n + 1):
        for theta in enumerate_complete(rs, d).members:
            qa, points = _quotient_layers(rs, theta)
            gamma = [rs.pairings[i] for i in theta.simples]
            rank = len(gamma)
            for combo in points:
                func = [
                    Fraction(sum(combo[i] * qa.r_basis[i][j] for i in range(rank)), qa.modulus)
                    for j in range(rank)
                ]
                base = next(
                    x for x in grid
                    if _in_fiber(qa, [sum(g * c for g, c in zip(row, x)) - f
                                      for row, f in zip(gamma, func)])
                )
                basis, _ = intlat.saturate([rs.positive_roots[i] for i in theta.roots])
                layers.append((_ReferenceLayer(d, basis, base, theta), qa))
    layers.sort(key=lambda l: l[0][:3])

    def leq(lower, upper, qa_upper):
        if lower.dimension > upper.dimension:
            return False
        if any(any(intlat.residue(lower.span_basis, row)) for row in upper.span_basis):
            return False
        diff = [a - b for a, b in zip(lower.base_point, upper.base_point)]
        gamma = [rs.pairings[i] for i in upper.theta.simples]
        return _in_fiber(qa_upper, [sum(g * x for g, x in zip(row, diff)) for row in gamma])

    relation = {
        (i, j)
        for i, (lower, _) in enumerate(layers)
        for j, (upper, qa) in enumerate(layers)
        if leq(lower, upper, qa)
    }
    return tuple(el for el, _ in layers), frozenset(relation)


POSET_TYPES = ["A1", "A2", "B2", "G2", "A3", "B3", "C3", "A2xA1", "B2xA1", "A1xA1xA1", "G2xA1"]


@pytest.mark.parametrize("t", POSET_TYPES + ["A4", "B4", "C4", "D4", "A3xA1"])
def test_poset_matches_per_layer_grid_search(t):
    rs = build_str(t)
    poset = build_poset(rs, max_rank=4)
    elements, relation = _reference_poset(rs)
    assert [
        (d, poset.thetas[t], tuple(Fraction(c, poset.modulus) for c in base)) for d, t, base in poset.layers
    ] == [(el.dimension, el.theta, el.base_point) for el in elements]
    assert poset.covers() == _reference_covers(relation, len(elements))


@pytest.mark.parametrize("t", POSET_TYPES + ["A4", "B4", "C4", "D4", "F4", "A3xA1"])
def test_poset_covers_join_consecutive_dimensions(t):
    # The poset is graded: every cover goes up one dimension, and every layer
    # below the top one lies in some layer one dimension up.
    rs = build_str(t)
    poset = build_poset(rs, max_rank=4)
    dims = [d for d, _, _ in poset.layers]
    covers = poset.covers()
    assert all(dims[j] == dims[i] + 1 for i, j in covers)
    assert {i for i, _ in covers} == {i for i, d in enumerate(dims) if d < rs.rank}


@pytest.mark.parametrize("t", POSET_TYPES)
def test_poset_relation_keeps_theta_roots_constant(t, poset_order):
    # On layer j every root of theta_j is constant mod 1, so a layer inside
    # it has base point with the same root values.
    rs = build_str(t)
    poset = build_poset(rs)

    def value(r, point):
        """Root r's value on a grid point mod 1, in units of 1/modulus."""
        return sum(map(mul, rs.pairings[r], point)) % poset.modulus

    for i, j in poset_order(poset):
        (_, _, lower), (_, u, upper) = poset.layers[i], poset.layers[j]
        for r in poset.thetas[u].roots:
            assert value(r, lower) == value(r, upper), (i, j, r)


@pytest.mark.parametrize("t", ["B3", "A4", "B4"])
def test_poset_scans_only_the_quotient_grids(t, monkeypatch):
    # One _grid_points call per theta, its quotient scan; besides, each layer
    # takes two residues (lift and base point), and no residue of the order is
    # taken until the covers are asked for: then one per layer and flat one
    # rank below its theta.
    rs = build_str(t)
    _quotient_layers.cache_clear()
    thetas = [theta for d in range(rs.rank + 1) for theta in enumerate_complete(rs, d).members]
    expected = []
    for theta in thetas:
        qa = _quotient_arrangement(rs, theta)
        expected.append((list(qa.rows), qa.modulus, len(theta.simples)))
    scans, residues = [], 0
    scan = oracle._grid_points

    def recording_scan(rows, m, rank):
        scans.append((list(rows), m, rank))
        return scan(rows, m, rank)

    def counting_residue(basis, vec):
        nonlocal residues
        residues += 1
        return intlat.residue(basis, vec)

    monkeypatch.setattr(oracle, "_grid_points", recording_scan)
    # Only the calls made from oracle's own code are counted.
    monkeypatch.setattr(oracle, "intlat", SimpleNamespace(**{**vars(intlat), "residue": counting_residue}))
    poset = build_poset(rs, max_rank=4)
    assert scans == expected
    assert residues == 2 * len(poset.layers)
    below = {
        (i, upper.roots)
        for i, (_, t, _) in enumerate(poset.layers)
        for theta in [poset.thetas[t]]
        for upper in thetas
        if len(upper.simples) == len(theta.simples) - 1 and set(upper.roots) <= set(theta.roots)
    }
    poset.covers()
    assert residues == 2 * len(poset.layers) + len(below)


def test_poset_grid_work_bound():
    with pytest.raises(CapabilityError, match=r"7\^6 points x 877 subsystems = 103178173"):
        build_poset(build_str("A6"), max_rank=6)
