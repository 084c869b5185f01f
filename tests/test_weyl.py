"""Weyl groups on hyperplanes, on signed roots and as matrices: orders, orbits, longest elements, W_Z."""

from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from toricarr.oracle import order_bound
from toricarr.rootsys import (
    TypeSymbol,
    affine_diagram,
    build_str,
    center_order,
    diagram_automorphisms,
    type_invariants,
)
from toricarr.weyl import center_subgroup, longest_element

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]
IRREDUCIBLE = (
    [f"A{n}" for n in range(1, 10)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 10)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def test_simple_reflection_examples():
    rs = build_str("A1")
    # s_1(alpha_1) = -alpha_1, whose hyperplane is alpha_1's
    assert rs.reflection_perms[0] == (rs.root_index[(1,)],)
    rs = build_str("A2")
    # s_1(alpha_2) = alpha_1 + alpha_2
    assert rs.reflection_perms[0][rs.root_index[(0, 1)]] == rs.root_index[(1, 1)]
    rs = build_str("C3")
    # s_3(alpha_2) = alpha_2 + alpha_3 (alpha_3 long)
    assert rs.reflection_perms[2][rs.root_index[(0, 1, 0)]] == rs.root_index[(0, 1, 1)]


@pytest.mark.parametrize("t", RANK_LE_4)
def test_reflections_are_involutions_preserving_pairing(t, compose):
    # s_i preserves the pairing; on hyperplanes it names -alpha_i by alpha_i, so alpha_i's row and column
    # change sign.
    rs = build_str(t)
    identity = tuple(range(rs.n_positive))
    cartan = rs.cartan_of(identity)
    for g, simple in zip(rs.reflection_perms, rs.simple_indices):
        assert compose(g, g) == identity
        sign = [-1 if j == simple else 1 for j in identity]
        signed = tuple(tuple(sign[a] * sign[b] * cartan[a][b] for b in identity) for a in identity)
        assert rs.cartan_of(g) == signed


@pytest.mark.parametrize("t", RANK_LE_4 + ["A2xA1", "B2xG2", "D5", "E6"])
def test_reflection_perms_act_on_hyperplanes(t):
    # s_i fixes alpha_i's hyperplane and sends every other positive root beta to s_i beta.
    rs = build_str(t)
    everything = list(range(rs.n_positive))
    for i, g in enumerate(rs.reflection_perms):
        assert sorted(g) == everything and [g[g[j]] for j in everything] == everything
        for j, beta in enumerate(rs.positive_roots):
            if j == rs.simple_indices[i]:
                assert g[j] == j and beta == tuple(int(i == k) for k in range(rs.rank))
            else:
                pairing = sum(c * m for c, m in zip(rs.cartan[i], beta))
                assert rs.positive_roots[g[j]] == beta[:i] + (beta[i] - pairing,) + beta[i + 1:], (i, beta)


@pytest.mark.parametrize("t", RANK_LE_4)
def test_enumeration_matches_degree_product(t, weyl_elements):
    rs = build_str(t)
    assert len(set(weyl_elements(rs))) == prod(rs.degrees)


def test_e6_order_by_enumeration(weyl_elements):
    rs = build_str("E6")
    assert len(set(weyl_elements(rs))) == 51840 == prod(rs.degrees)


def _apply(w, root):
    return tuple(sum(x * r for x, r in zip(row, root)) for row in w)


def _mul(a, b):
    """The matrix product a b: the element b, then a."""
    return tuple(zip(*(_apply(a, col) for col in zip(*b))))


def _as_perm(signed, w):
    """The signed-root permutation of a matrix element: the index of w(beta) for each signed root beta."""
    return tuple(signed.index[_apply(w, r)] for r in signed.roots)


def test_longest_element_examples(compose, signed_roots):
    rs = build_str("A1")
    w0 = longest_element(rs.cartan, range(1))
    assert w0 == ((-1,),)
    assert _as_perm(signed_roots(rs), w0) == signed_roots(rs).perms[0]
    rs = build_str("A2")
    w0 = longest_element(rs.cartan, range(2))
    s1, s2 = signed_roots(rs).perms
    assert _as_perm(signed_roots(rs), w0) == compose(compose(s1, s2), s1)
    # columns w0.alpha_1 = -alpha_2 and w0.alpha_2 = -alpha_1
    assert w0 == ((0, -1), (-1, 0))
    assert _apply(w0, (1, 0)) == (0, -1)
    rs = build_str("B2")
    w0 = longest_element(rs.cartan, range(2))
    assert w0 == ((-1, 0), (0, -1))
    assert all(_apply(w0, r) == tuple(-x for x in r) for r in rs.positive_roots)


@pytest.mark.parametrize("t", RANK_LE_4)
def test_longest_element_flips_all_positives(t):
    rs = build_str(t)
    w0 = longest_element(rs.cartan, range(rs.rank))
    assert all(min(_apply(w0, r)) < 0 for r in rs.positive_roots)


def test_parabolic_longest_element():
    rs = build_str("B3")
    w0p = longest_element(rs.cartan, [1, 2])
    # flips exactly the positive roots with zero alpha_1-coordinate
    for r in rs.positive_roots:
        flipped = min(_apply(w0p, r)) < 0
        assert flipped == (r[0] == 0)


@pytest.mark.parametrize("t", ["B3", "A2xA1"])
def test_parabolic_longest_element_on_every_subset(t, signed_roots):
    # w_0^J flips exactly the positive roots supported on J, and keeps the others positive.
    rs = build_str(t)
    for k in range(rs.rank + 1):
        for J in combinations(range(rs.rank), k):
            w = longest_element(rs.cartan, J)
            for r in rs.positive_roots:
                image = _apply(w, r)
                assert image in signed_roots(rs).index
                supported = all(r[i] == 0 for i in range(rs.rank) if i not in J)
                assert (min(image) < 0) == supported, (J, r)


@pytest.mark.parametrize("J", [[3], [-1], [0, 3]])
def test_longest_element_rejects_indices_out_of_range(J):
    with pytest.raises(IndexError):
        longest_element(build_str("B3").cartan, J)


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


def test_orbit_stabilizer_torus_points(weyl_elements, coroot_matrix, brute_point_grid):
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
    x = tuple(int(c * order_bound(rs.factors)) for c in pt)
    assert next(p for y, p in brute_point_grid(rs) if y == x).stabilizer_order == 16


def test_orbit_sizes_divide_group_order(weyl_elements):
    rs = build_str("B3")
    elements = weyl_elements(rs)
    for i in range(rs.n_positive):
        orbit, stabilizer = _root_orbit_and_stabilizer(elements, i)
        assert orbit * stabilizer == type_invariants(rs.factors).weyl_order


@pytest.mark.parametrize("t", RANK_LE_4)
def test_center_subgroup_properties(t):
    rs = build_str(t)
    wz = center_subgroup(*rs.factors)
    # |W_Z| = |Z|
    assert len(wz) == center_order(rs.factors)
    # subgroup closure, and the diagram action is by automorphisms
    perms = {e.diagram_perm for e in wz}
    for a in wz:
        for b in wz:
            assert tuple(a.diagram_perm[v] for v in b.diagram_perm) in perms
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
    wz = center_subgroup(TypeSymbol("A", 3))
    assert sorted(e.vertex for e in wz) == [0, 1, 2, 3]
    # cyclic: the vertex-1 element generates the rest
    gen = next(e.diagram_perm for e in wz if e.vertex == 1)
    power = gen
    seen = {gen}
    for _ in range(2):
        power = tuple(gen[v] for v in power)
        seen.add(power)
    assert seen | {tuple(range(4))} == {e.diagram_perm for e in wz}


def test_center_subgroup_f4_trivial():
    wz = center_subgroup(TypeSymbol("F", 4))
    assert len(wz) == 1 and wz[0].vertex == 0


@pytest.mark.parametrize("t", IRREDUCIBLE)
def test_center_subgroup_equals_the_permutation_reference(t, reference_center_subgroup, signed_roots):
    # Same vertices and diagram action as the root-permutation W_Z of the closure,
    # and each z_p = w_0^p w_0, as matrices, moves every root as the reference permutation does.
    rs = build_str(t)
    wz = center_subgroup(*rs.factors)
    ref = reference_center_subgroup(rs)
    assert [(e.vertex, e.diagram_perm) for e in wz] == [(e.vertex, e.diagram_perm) for e in ref]
    w0 = longest_element(rs.cartan, range(rs.rank))
    for r in ref[1:]:
        w0p = longest_element(rs.cartan, (j for j in range(rs.rank) if j != r.vertex - 1))
        assert _as_perm(signed_roots(rs), _mul(w0p, w0)) == r.perm


def test_reference_longest_element_agrees_with_the_matrices(reference_longest_element, signed_roots):
    rs = build_str("B3")
    signed = signed_roots(rs)
    assert _as_perm(signed, longest_element(rs.cartan, range(3))) == reference_longest_element(rs)
    for p in range(1, 4):
        parabolic = [j for j in range(3) if j != p - 1]
        assert _as_perm(signed, longest_element(rs.cartan, parabolic)) == reference_longest_element(rs, p)
