"""Weyl groups as root permutations: orders, orbits, W_Z."""

from fractions import Fraction
from math import prod

import pytest

from toricarr.oracle import brute_points
from toricarr.rootsys import affine_diagram, build_str, center_order, diagram_automorphisms, type_invariants
from toricarr.weyl import center_subgroup, compose, longest_element

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]


def test_simple_reflection_examples():
    rs = build_str("A1")
    s = rs.reflection_perms[0]
    assert s[rs.root_index[(1,)]] == rs.root_index[(-1,)]
    rs = build_str("A2")
    # s_1(alpha_2) = alpha_1 + alpha_2
    assert rs.reflection_perms[0][rs.root_index[(0, 1)]] == rs.root_index[(1, 1)]
    rs = build_str("C3")
    # s_3(alpha_2) = alpha_2 + alpha_3 (alpha_3 long)
    assert rs.reflection_perms[2][rs.root_index[(0, 1, 0)]] == rs.root_index[(0, 1, 1)]


@pytest.mark.parametrize("t", RANK_LE_4)
def test_reflections_are_involutions_preserving_pairing(t):
    rs = build_str(t)
    for g in rs.reflection_perms:
        assert compose(g, g) == tuple(range(len(rs.all_roots)))
        for a in range(0, len(rs.all_roots), 3):
            for b in range(0, len(rs.all_roots), 5):
                assert rs.pair_roots(rs.all_roots[g[a]], rs.all_roots[g[b]]) == rs.pair_roots(
                    rs.all_roots[a], rs.all_roots[b]
                )


@pytest.mark.parametrize("t", RANK_LE_4)
def test_enumeration_matches_degree_product(t, weyl_elements):
    rs = build_str(t)
    assert len(set(weyl_elements(rs))) == prod(rs.degrees)


def test_e6_order_by_enumeration(weyl_elements):
    rs = build_str("E6")
    assert len(set(weyl_elements(rs))) == 51840 == prod(rs.degrees)


def test_longest_element_examples():
    rs = build_str("A1")
    assert longest_element(rs) == rs.reflection_perms[0]
    rs = build_str("A2")
    w0 = longest_element(rs)
    s1, s2 = rs.reflection_perms
    assert w0 == compose(compose(s1, s2), s1)
    assert w0[rs.root_index[(1, 0)]] == rs.root_index[(0, -1)]
    rs = build_str("B2")
    w0 = longest_element(rs)
    assert all(
        w0[i] == rs.root_index[tuple(-x for x in r)] for i, r in enumerate(rs.all_roots)
    )


@pytest.mark.parametrize("t", RANK_LE_4)
def test_longest_element_flips_all_positives(t):
    rs = build_str(t)
    w0 = longest_element(rs)
    assert all(w0[i] >= rs.n_positive for i in range(rs.n_positive))


def test_parabolic_longest_element():
    rs = build_str("B3")
    w0p = longest_element(rs, 1)
    # flips exactly the positive roots with zero alpha_1-coordinate
    for i, r in enumerate(rs.positive_roots):
        flipped = w0p[i] >= rs.n_positive
        assert flipped == (r[0] == 0)


def _root_orbit_and_stabilizer(elements, i):
    return len({w[i] for w in elements}), sum(1 for w in elements if w[i] == i)


def _point_orbit_and_stabilizer(matrices, point):
    """Orbit size and stabilizer order of a torus point, acting mod 1."""
    images = [
        tuple(sum(x * p for x, p in zip(row, point)) % 1 for row in mat) for mat in matrices
    ]
    return len(set(images)), images.count(tuple(point))


def test_orbit_stabilizer_root_sets(weyl_elements):
    rs = build_str("A2")
    elements = weyl_elements(rs)
    assert _root_orbit_and_stabilizer(elements, rs.root_index[(1, 1)]) == (6, 1)


def test_orbit_stabilizer_torus_points(weyl_elements, coroot_matrix):
    rs = build_str("A2")
    origin = (Fraction(0), Fraction(0))
    matrices = [coroot_matrix(rs, w) for w in weyl_elements(rs)]
    assert _point_orbit_and_stabilizer(matrices, origin) == (1, 6)
    # C_3 point with one negative t-coordinate, the class of
    # alpha_1^vee/2 + alpha_2^vee/2 + alpha_3^vee/2: stabilizer
    # (S_1 x S_2) x (C_2)^3 of order 1! 2! 2^3 = 16, orbit size C(3,1) = 3
    rs = build_str("C3")
    pt = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    matrices = [coroot_matrix(rs, w) for w in weyl_elements(rs)]
    assert _point_orbit_and_stabilizer(matrices, pt) == (3, 16)
    # the brute-force oracle finds the same stabilizer
    assert next(p for p in brute_points(rs) if p.point == pt).stabilizer_order == 16


def test_orbit_sizes_divide_group_order(weyl_elements):
    rs = build_str("B3")
    elements = weyl_elements(rs)
    for i in range(rs.n_positive):
        orbit, stabilizer = _root_orbit_and_stabilizer(elements, i)
        assert orbit * stabilizer == type_invariants(rs.factors).weyl_order


@pytest.mark.parametrize("t", RANK_LE_4)
def test_center_subgroup_properties(t):
    rs = build_str(t)
    wz = center_subgroup(rs)
    # |W_Z| = |Z|
    assert len(wz) == center_order(rs.factors)
    # subgroup closure, and the diagram action is by automorphisms
    perms = {e.perm for e in wz}
    for a in wz:
        for b in wz:
            assert compose(a.perm, b.perm) in perms
    diag = affine_diagram(*rs.factors)
    autos, aut_orbits = diagram_automorphisms(diag)
    for e in wz:
        assert e.diagram_perm in autos
        assert e.diagram_perm[0] == e.vertex
    # W_Z vertex orbits coincide with the Aut(Gamma) orbits
    seen = set()
    wz_orbits = []
    for v in diag.vertices:
        if v in seen:
            continue
        orbit = {v}
        frontier = [v]
        while frontier:
            x = frontier.pop()
            for e in wz:
                y = e.diagram_perm[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        wz_orbits.append(tuple(sorted(orbit)))
        seen |= orbit
    assert set(wz_orbits) == set(aut_orbits)


def test_center_subgroup_a_series_transitive():
    rs = build_str("A3")
    wz = center_subgroup(rs)
    assert sorted(e.vertex for e in wz) == [0, 1, 2, 3]
    # cyclic: the vertex-1 element generates the rest
    gen = next(e.perm for e in wz if e.vertex == 1)
    power = gen
    seen = {gen}
    for _ in range(2):
        power = compose(gen, power)
        seen.add(power)
    assert seen | {tuple(range(len(rs.all_roots)))} == {e.perm for e in wz}


def test_center_subgroup_f4_trivial():
    wz = center_subgroup(build_str("F4"))
    assert len(wz) == 1 and wz[0].vertex == 0

