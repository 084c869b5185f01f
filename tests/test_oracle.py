"""Brute-force oracles: grid point enumeration, component counts, the poset."""

from collections import Counter
from fractions import Fraction
from itertools import product as iproduct

import pytest

from toricarr import intlat
from toricarr.errors import CapabilityError
from toricarr.layers import count_layers, count_points, count_points_of_type, n_theta, point_orbits
from toricarr.oracle import (
    BrutePoint,
    _quotient_arrangement,
    brute_points,
    build_poset,
    component_count,
    order_bound,
)
from toricarr.rootsys import build, build_str, format_type, parse_type
from toricarr.subsys import completion, enumerate_complete, make_subsystem
from toricarr.weyl import WeylGroup

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]


def test_order_bound_values():
    assert order_bound(parse_type("A2")) == 3   # marks 1, exp Z = 3
    assert order_bound(parse_type("F4")) == 12  # lcm(1,2,3,4,2), trivial center
    assert order_bound(parse_type("B3")) == 4   # lcm 2 * exp 2
    assert order_bound(parse_type("G2")) == 6


def test_brute_points_c2():
    pts = brute_points(build_str("C2"))
    assert len(pts) == 4


def test_brute_points_a2():
    pts = brute_points(build_str("A2"))
    assert len(pts) == 3
    assert all(format_type(p.phi_type) == "A2" for p in pts)
    assert all(p.stabilizer_order == 6 for p in pts)
    # the three points are the cube roots of the identity along the center
    assert sorted(p.point for p in pts)[0] == (Fraction(0), Fraction(0))


def test_brute_points_g2():
    pts = brute_points(build_str("G2"))
    types = Counter(format_type(p.phi_type) for p in pts)
    assert types == {"G2": 1, "A1xA1": 3, "A2": 2}


def test_brute_points_capability():
    with pytest.raises(CapabilityError, match="brute_rank"):
        brute_points(build_str("D5"))


@pytest.mark.parametrize("t", RANK_LE_4)
def test_brute_count_and_types_match_formula(t):
    rs = build_str(t)
    pts = brute_points(rs)
    assert len(pts) == count_points(rs)
    brute_types = Counter(p.phi_type for p in pts)
    formula_types = Counter()
    for r in point_orbits(rs):
        formula_types[r.point_type] += r.orbit_size
    assert brute_types == formula_types


@pytest.mark.parametrize("t", RANK_LE_4)
def test_brute_stabilizers_match_parabolic_orders(t):
    rs = build_str(t)
    pts = brute_points(rs)
    brute = Counter((p.phi_type, p.stabilizer_order) for p in pts)
    expected = Counter()
    for r in point_orbits(rs):
        expected[(r.point_type, r.stabilizer_order)] += r.orbit_size
    assert brute == expected


def _dot_mod(u, x, m):
    return sum(a * b for a, b in zip(u, x)) % m


def _naive_brute_points(rs):
    """The torsion-grid scan written out per candidate and per point."""
    n, m = rs.rank, order_bound(rs.factors)
    pairings = [[rs.pairing(r, k) for k in range(n)] for r in rs.positive_roots]
    grid = list(iproduct(range(m), repeat=n))

    def vanishing(x):
        return [i for i, u in enumerate(pairings) if _dot_mod(u, x, m) == 0]

    # The center: grid points where every root is integral.
    centers = [x for x in grid if len(vanishing(x)) == len(pairings)]
    matrices = WeylGroup(rs).element_matrices()
    records = []
    for x in grid:
        van = vanishing(x)
        if len(intlat.hermite_normal_form([rs.all_roots[i] for i in van])) < n:
            continue
        images = [tuple(_dot_mod(row, x, m) for row in mat) for mat in matrices]
        stab = images.count(x)
        shifts = sum(1 for z in centers if tuple((a - b) % m for a, b in zip(x, z)) in images)
        records.append(
            BrutePoint(
                point=tuple(Fraction(c, m) for c in x),
                phi_type=make_subsystem(rs, van).type,
                stabilizer_order=stab,
                wz_stabilizer_order=stab * shifts,
            )
        )
    return tuple(records)


def _naive_component_count(rs, theta):
    """Points of theta's arrangement on its quotient torus, one candidate at a time."""
    qa = _quotient_arrangement(rs, theta)
    rank, m = len(qa.gamma), qa.modulus
    count = 0
    for x in iproduct(range(m), repeat=rank):
        func = [sum(x[i] * qa.r_basis[i][j] for i in range(rank)) for j in range(rank)]
        van = [c for c in qa.theta_coords if _dot_mod(c, func, m) == 0]
        count += len(intlat.hermite_normal_form(van)) == rank
    return count


@pytest.mark.parametrize("t", ["G2", "B3", "C3", "A2xA1", "B2xA1", "B4"])
def test_grid_kernel_matches_naive_scan(t):
    rs = build_str(t)
    assert brute_points(rs) == _naive_brute_points(rs)
    for d in range(rs.rank + 1):
        for theta in enumerate_complete(rs, d).members:
            assert component_count(rs, theta) == _naive_component_count(rs, theta), (d, theta)


@pytest.mark.parametrize("t", ["B3", "C3"])
def test_brute_stabilizers_count_fixing_elements(t):
    rs = build_str(t)
    m = order_bound(rs.factors)
    matrices = WeylGroup(rs).element_matrices()
    for p in brute_points(rs):
        x = tuple(int(c * m) for c in p.point)
        fixing = sum(1 for mat in matrices if tuple(_dot_mod(row, x, m) for row in mat) == x)
        assert p.stabilizer_order == fixing, p.point


def test_f4_grid_scan_rank_tests_once_per_vanishing_set(monkeypatch):
    calls = 0
    hnf = intlat.hermite_normal_form

    def counting(rows):
        nonlocal calls
        calls += 1
        return hnf(rows)

    monkeypatch.setattr(intlat, "hermite_normal_form", counting)
    brute_points(build_str("F4"))
    assert calls <= 400  # 302: the rank memo, plus make_subsystem per point


def test_grid_scan_work_bound():
    with pytest.raises(CapabilityError, match=r"18\^6 candidates x 36 roots = 1224440064"):
        brute_points(build_str("E6"), max_rank=6)
    rs = build_str("A7")
    with pytest.raises(CapabilityError, match=r"8\^7 candidates x 28 roots = 58720256"):
        component_count(rs, completion(rs, range(rs.n_positive)))


def test_component_count_examples():
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


def test_component_count_rejects_non_complete():
    rs = build_str("G2")
    norms = [rs.inner(r, r) for r in rs.positive_roots]
    longs = [i for i, r in enumerate(rs.positive_roots) if rs.inner(r, r) == max(norms)]
    from toricarr.subsys import make_subsystem

    with pytest.raises(ValueError):
        component_count(rs, make_subsystem(rs, longs))


@pytest.mark.parametrize("t", ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4"])
def test_component_count_equals_quotient_formula(t):
    rs = build_str(t)
    for d in range(rs.rank + 1):
        for theta in enumerate_complete(rs, d).members:
            cc = component_count(rs, theta)
            assert cc * n_theta(rs, theta) == count_points_of_type(theta.type)


def test_poset_a1():
    poset = build_poset(build_str("A1"))
    assert len(poset.elements) == 3
    dims = sorted(el.dimension for el in poset.elements)
    assert dims == [0, 0, 1]
    top = next(i for i, el in enumerate(poset.elements) if el.dimension == 1)
    for i, el in enumerate(poset.elements):
        assert (i, top) in poset.relation


def test_poset_a2_seven_elements():
    poset = build_poset(build_str("A2"))
    assert len(poset.elements) == 7
    assert poset.levels() == {0: 3, 1: 3, 2: 1}


@pytest.mark.parametrize("t", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_poset_graded_and_partial_order(t):
    rs = build_str(t)
    poset = build_poset(rs)
    for d in range(rs.rank + 1):
        level = sum(1 for el in poset.elements if el.dimension == d)
        assert level == count_layers(rs, d), (t, d)
    n = len(poset.elements)
    rel = poset.relation
    for i in range(n):
        assert (i, i) in rel
    for (i, j) in rel:
        assert (j, i) not in rel or i == j
        for k in range(n):
            if (j, k) in rel:
                assert (i, k) in rel
    # comparable layers have comparable dimensions
    for (i, j) in rel:
        assert poset.elements[i].dimension <= poset.elements[j].dimension


@pytest.mark.parametrize("t", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_poset_zero_layers_are_brute_points(t):
    rs = build_str(t)
    poset = build_poset(rs)
    zero = sorted(el.base_point for el in poset.elements if el.dimension == 0)
    assert zero == sorted(p.point for p in brute_points(rs))


def test_poset_theta_is_completion_of_integral_roots():
    # every theta root is constant on its layer; the integral ones have
    # full rank in theta and complete back to it (theta itself need not be
    # integral pointwise -- that is exactly the n_theta > 1 phenomenon)
    rs = build_str("B2")
    poset = build_poset(rs)
    for el in poset.elements:
        integral = []
        for i in el.theta.roots:
            root = rs.all_roots[i]
            value = sum(
                Fraction(rs.pairing(root, k)) * el.base_point[k] for k in range(rs.rank)
            )
            if value.denominator == 1:
                integral.append(i)
        comp = completion(rs, integral)
        assert comp.roots == el.theta.roots
        assert completion(rs, el.theta.roots).roots == el.theta.roots


def test_poset_layer_multiplicity_per_theta():
    rs = build_str("B2")
    poset = build_poset(rs)
    per_theta = Counter(el.theta.roots for el in poset.elements)
    for d in range(rs.rank + 1):
        for theta in enumerate_complete(rs, d).members:
            assert per_theta[theta.roots] == component_count(rs, theta)


def test_poset_capability():
    with pytest.raises(CapabilityError, match="poset_rank"):
        build_poset(build_str("D4"))


def test_poset_covers_respect_grading():
    poset = build_poset(build_str("A2"))
    for i, j in poset.covers():
        assert poset.elements[i].dimension < poset.elements[j].dimension
