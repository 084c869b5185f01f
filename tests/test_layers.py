"""The counting formulas: points, orbits, n_theta, census, Poincare, Euler."""

import json
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricarr.cli import main
from toricarr.errors import CapabilityError
from toricarr.layers import (
    _assemble,
    _closed_form_terms,
    _layer_terms,
    count_layers,
    count_points,
    euler_characteristic,
    format_polynomial,
    layer_census,
    n_theta,
    poincare,
    point_orbits,
    point_type_multiset,
    verify_degree_identity,
)
from toricarr.rootsys import build_str, degrees_of, format_type, parse_type, type_invariants
from toricarr.subsys import enumerate_complete, parabolic_classes

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]


# -- polynomials ----------------------------------------------------------------


def _at(coeffs, q):
    """The polynomial with these coefficients, lowest degree first, at q."""
    return sum(c * q**k for k, c in enumerate(coeffs))


def _product(a, b):
    """The coefficients of the product of two polynomials, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_format_polynomial():
    assert format_polynomial((1, 28, 286, 1260, 2153)) == "2153q^4 + 1260q^3 + 286q^2 + 28q + 1"
    assert format_polynomial((1, -2, 1)) == "q^2 - 2q + 1"
    assert format_polynomial((1, 1, 0, 1)) == "q^3 + q + 1"
    assert format_polynomial((0, 0, 0)) == "0"
    assert format_polynomial(()) == "0"


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 8), st.data())
def test_assemble_sums_its_terms(n, data):
    terms = data.draw(st.lists(st.tuples(st.integers(0, n), st.integers(-10**6, 10**6)), max_size=12))
    coeffs = _assemble(n, terms)
    assert len(coeffs) == n + 1
    for q in (-3, -1, 0, 1, 2, 7):
        assert _at(coeffs, q) == sum(c * (q + 1) ** d * q ** (n - d) for d, c in terms)


# -- points ---------------------------------------------------------------------


def test_count_points_closed_forms():
    assert [count_points(parse_type(f"A{n}")) for n in range(1, 9)] == list(range(2, 10))
    for n in range(2, 7):
        assert count_points(parse_type(f"C{n}" if n > 2 else "B2")) == 2 ** n
    for n in range(2, 7):
        assert count_points(parse_type(f"B{n}")) == 2 * (2 ** n - n)
    for n in range(4, 7):
        assert count_points(parse_type(f"D{n}")) == 2 * (2 ** n - 2 * n)


def test_count_points_examples():
    assert count_points(parse_type("F4")) == 72
    assert count_points(parse_type("G2")) == 6
    assert count_points(parse_type("E8")) == 157200  # diagram + tables only


def test_count_points_multiplicative():
    assert count_points(parse_type("A3xA1")) == 4 * 2
    assert count_points(parse_type("B3xG2")) == 10 * 6


def test_point_orbits_b3():
    records = point_orbits(*parse_type("B3"))
    data = [(r.vertex, r.orbit_size, format_type(r.point_type)) for r in records]
    assert data == [
        (0, 1, "B3"),
        (1, 1, "B3"),
        (2, 6, "A1xA1xA1"),
        (3, 2, "A3"),
    ]
    assert sum(r.orbit_size for r in records) == 10


def test_point_orbits_f4_sum():
    records = point_orbits(*parse_type("F4"))
    assert sorted(r.orbit_size for r in records) == [1, 3, 12, 24, 32]
    assert sum(r.orbit_size for r in records) == 72
    # F4 has trivial diagram automorphisms: five singleton Q-orbits
    assert sorted({r.aut_orbit for r in records}) == [0, 1, 2, 3, 4]


def test_point_orbits_cn_binomials():
    records = point_orbits(*parse_type("C4"))
    from math import comb

    assert sorted(r.orbit_size for r in records) == sorted(comb(4, p) for p in range(5))


def test_eq1_equals_eq2_through_e8():
    # vertex sum vs Q-orbit sum
    for t in ["A5", "B6", "C6", "D7", "E6", "E7", "E8", "F4", "G2"]:
        rs = build_str(t)
        records = point_orbits(*rs.factors)
        by_vertex = sum(r.orbit_size for r in records)
        by_q = {}
        for r in records:
            by_q.setdefault(r.aut_orbit, []).append(r)
        total = sum(len(orb) * orb[0].orbit_size for orb in by_q.values())
        assert by_vertex == total == count_points(rs.factors), t


# -- n_theta ---------------------------------------------------------------------


def test_n_theta_full_system_is_one():
    for t in ["A2", "B3", "F4"]:
        rs = build_str(t)
        full = enumerate_complete(rs, 0).members[0]
        assert n_theta(rs, full) == 1


def test_n_theta_f4_equals_center_order():
    from toricarr.rootsys import center_order

    rs = build_str("F4")
    for d in range(5):
        for theta in enumerate_complete(rs, d).members:
            assert n_theta(rs, theta) == center_order(theta.type)


def test_n_theta_a_series_partition_formula():
    from math import gcd, prod

    for n in [3, 4, 5]:
        rs = build_str(f"A{n-1}")
        for d in range(n):
            for theta in enumerate_complete(rs, d).members:
                lam = tuple(sorted((s.rank + 1 for s in theta.type), reverse=True))
                lam = lam + (1,) * (n - sum(lam))
                assert n_theta(rs, theta) == prod(lam) // gcd(*lam)


_N_THETA_TYPES = (
    [f"A{n}" for n in range(1, 7)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(3, 7)]
    + [f"D{n}" for n in range(4, 8)]
    + ["G2", "F4", "E6", "E7", "A3xA1", "B2xG2", "A2xA1", "B2xA1", "A1xA1xA1", "D4xA3", "C3xB2"]
)


@pytest.mark.parametrize("t", _N_THETA_TYPES)
def test_n_theta_equals_the_reference_lattice_index(t, lattice_index):
    # The reference index of theta's coroot lattice inside the restricted coroot lattice, by coordinates.
    rs = build_str(t)
    for d in range(rs.rank + 1):
        for theta, _ in parabolic_classes(rs, d):
            restricted = list(zip(*(rs.pairings[i] for i in theta.simples)))
            coroots = rs.cartan_of(theta.simples)
            assert n_theta(rs, theta) == lattice_index(restricted, coroots), (t, theta.type)


def test_n_theta_constant_on_orbits(span_orbits):
    from toricarr.subsys import parabolic_classes

    rs = build_str("B3")
    for d in range(4):
        for (theta, _), orbit in zip(parabolic_classes(rs, d), span_orbits(rs, d), strict=True):
            assert theta == orbit[0]
            assert {n_theta(rs, m) for m in orbit} == {n_theta(rs, theta)}


# -- layer counts and census ------------------------------------------------------


def test_count_layers_trivial_top():
    for t in ["A2", "B3", "F4"]:
        rs = build_str(t)
        assert count_layers(rs, rs.rank) == 1


def test_count_layers_f4():
    rs = build_str("F4")
    assert [count_layers(rs, d) for d in range(5)] == [72, 204, 140, 24, 1]


def test_count_layers_equals_points_at_zero():
    for t in RANK_LE_4:
        rs = build_str(t)
        assert count_layers(rs, 0) == count_points(rs.factors)


def test_census_f4_matches_paper_table():
    rs = build_str("F4")
    records = layer_census(rs)
    # aggregate orbits by type: (space count, layers per space)
    agg = {}
    for r in records:
        key = format_type(r.theta.type)
        cnt, per = agg.get(key, (0, r.layer_count))
        assert per == r.layer_count
        agg[key] = (cnt + r.orbit_size, r.layer_count)
    assert agg == {
        "A0": (1, 1),
        "A1": (24, 1),
        "A1xA1": (72, 1),
        "A2": (32, 1),
        "B2": (18, 2),
        "C3": (12, 4),
        "B3": (12, 5),
        "A1xA2": (96, 1),
        "F4": (1, 72),
    }


def test_census_f4_phi_c_multisets():
    rs = build_str("F4")
    records = {format_type(r.theta.type): r for r in layer_census(rs)}
    as_dict = lambda r: {format_type(t): c for t, c in r.phi_c_types}
    assert as_dict(records["B2"]) == {"B2": 1, "A1xA1": 1}
    assert as_dict(records["B3"]) == {"B3": 1, "A3": 1, "A1xA1xA1": 3}
    # the paper prints "A2xA1" here; affine deletion gives B2xA1 (same counts)
    assert as_dict(records["C3"]) == {"C3": 1, "A1xB2": 3}
    assert as_dict(records["F4"]) == {
        "F4": 1, "A1xC3": 12, "A2xA2": 32, "A1xA3": 24, "B4": 3,
    }


def test_census_integrality():
    for t in RANK_LE_4:
        for r in layer_census(build_str(t)):
            assert all(c >= 0 for _, c in r.phi_c_types)
            assert r.layer_count == sum(c for _, c in r.phi_c_types)


def test_point_type_multiset_product():
    single = dict(point_type_multiset(parse_type("A1")))
    assert single == {parse_type("A1"): 2}
    double = dict(point_type_multiset(parse_type("A1xA1")))
    assert double == {parse_type("A1xA1"): 4}


# -- Euler and Poincare -------------------------------------------------------------


def test_euler_examples():
    assert euler_characteristic(parse_type("A1")) == -2
    assert euler_characteristic(parse_type("A2")) == 6
    assert euler_characteristic(parse_type("F4")) == 1152
    assert euler_characteristic(parse_type("D4")) == 192
    assert euler_characteristic(parse_type("E8")) == 696729600


def test_euler_multiplicative():
    assert euler_characteristic(parse_type("A1xA2")) == -12


def test_equivariant_euler(capsys):
    # (-1)^n times the regular character of W
    for t, k in [("A1", "-1"), ("F4", "1"), ("B2", "1"), ("C3", "-1")]:
        assert main(["euler", "--type", t, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["equivariant_multiple"] == k


def _closed_form_sums(rs):
    """Per-dimension sums of n_theta^-1 |W^Theta| over K_d, from the census."""
    sums = [0] * (rs.rank + 1)
    for r in layer_census(rs):
        sums[r.dimension] += r.orbit_size * type_invariants(r.theta.type).weyl_order // r.n_theta
    return tuple(sums)


def test_poincare_f4_paper_value():
    poly = poincare(build_str("F4"))
    assert poly == (1, 28, 286, 1260, 2153)
    assert _closed_form_sums(build_str("F4")) == (1152, 768, 208, 24, 1)


def test_poincare_small_hand_values():
    assert poincare(build_str("A1")) == (1, 3)
    assert poincare(build_str("A2")) == (1, 5, 10)


@pytest.mark.parametrize("t", RANK_LE_4)
def test_poincare_routes_agree(t):
    rs = build_str(t)
    records = layer_census(rs)
    closed = _assemble(rs.rank, _closed_form_terms(records))
    assert closed == _assemble(rs.rank, _layer_terms(records))
    assert poincare(rs) == closed
    assert closed[0] == 1
    assert _at(closed, -1) == euler_characteristic(rs.factors)


def test_poincare_product():
    # layers multiply, so Poincare polynomials multiply
    p1 = poincare(build_str("A1"))
    p11 = poincare(build_str("A1xA1"))
    assert p11 == _product(p1, p1)


def test_poincare_leading_coefficient():
    # each (q+1)^d q^{n-d} term is monic of degree n, so the top coefficient
    # is the plain sum of the per-dimension closed-form sums
    for t in ["A3", "B3", "F4"]:
        rs = build_str(t)
        poly = poincare(rs)
        assert poly[-1] == sum(_closed_form_sums(rs))
        assert len(poly) - 1 == rs.rank


def test_census_classifies_without_span_enumeration(monkeypatch):
    from toricarr import intlat, layers, subsys

    saturate = intlat.saturate
    calls = []

    def counted(*args):
        calls.append(args)
        return saturate(*args)

    def forbidden(*args):
        raise AssertionError("the census enumerated spans")

    monkeypatch.setattr(intlat, "saturate", counted)
    monkeypatch.setattr(subsys, "_span_levels", forbidden)
    layers.layer_census.cache_clear()
    assert poincare(build_str("F4")) == (1, 28, 286, 1260, 2153)
    assert len(calls) <= 20  # one per orbit representative: 11


def test_orlik_solomon_f4():
    # flats by rank, weighted by |mu|, give prod (1 + e_i t) over the exponents 1, 5, 7, 11
    by_rank = [0] * 5
    for r in layer_census(build_str("F4")):
        by_rank[4 - r.dimension] += r.orbit_size * type_invariants(r.theta.type).exponent_product
    assert by_rank == [1, 24, 190, 552, 385]


def test_poincare_e6_pinned():
    rs = build_str("E6")
    poly = poincare(rs)
    assert poly == (1, 42, 705, 6020, 28419, 76818, 105595)
    assert _at(poly, -1) == type_invariants(rs.factors).weyl_order


def test_poincare_e7_pinned():
    rs = build_str("E7")
    poly = poincare(rs)
    assert poly == (1, 70, 2016, 31115, 280889, 1505700, 4523014, 6172075)
    assert _at(poly, -1) == -type_invariants(rs.factors).weyl_order == -2903040


def test_poincare_capability():
    with pytest.raises(CapabilityError, match=r"\|W\| = 696729600 exceeds the work bound"):
        poincare(build_str("E8"))
    with pytest.raises(CapabilityError, match=r"\|W\| = 10321920 exceeds the work bound"):
        poincare(build_str("B8"))


# -- A series ------------------------------------------------------------------------


def test_partitions(partitions):
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_a_series_census_hand_values(a_series_census):
    total, breakdown = a_series_census(3, 0)
    assert total == 3 and breakdown == (((3,), 3),)
    total, breakdown = a_series_census(3, 1)
    assert total == 3 and breakdown == (((2, 1), 3),)
    assert a_series_census(3, 2)[0] == 1


def test_a_series_census_matches_enumeration(a_series_census):
    for n in range(2, 7):
        rs = build_str(f"A{n-1}")
        for d in range(n):
            assert a_series_census(n, d)[0] == count_layers(rs, d), (n, d)


def test_a_series_poincare_matches_general_route(a_series_poincare):
    for n in range(2, 6):
        assert a_series_poincare(n) == poincare(build_str(f"A{n-1}"))
    assert a_series_poincare(3) == (1, 5, 10)


# -- degree identity -------------------------------------------------------------------


def test_degree_identity_a1():
    res = verify_degree_identity(*parse_type("A1"))
    assert res.total == (1, 1)
    assert res.terms == ((0, (1, 2)), (1, (1, 2)))


def test_degree_identity_f4_term():
    res = verify_degree_identity(*parse_type("F4"))
    assert res.total == (1, 1)
    assert (0, (385, 1152)) in res.terms


def test_degree_identity_all_types_through_e8():
    types = (
        [f"A{n}" for n in range(1, 9)]
        + [f"B{n}" for n in range(2, 9)]
        + [f"C{n}" for n in range(3, 9)]
        + [f"D{n}" for n in range(4, 9)]
        + ["E6", "E7", "E8", "F4", "G2"]
    )
    for t in types:
        assert verify_degree_identity(*parse_type(t)).total == (1, 1), t


# -- property tests ----------------------------------------------------------


@st.composite
def _products_of_rank_le_4(draw):
    """Names of the irreducible factors of a product of rank at most 4."""
    names, budget = [], 4
    while budget and (not names or draw(st.booleans())):
        name = draw(st.sampled_from([t for t in RANK_LE_4 if int(t[1:]) <= budget]))
        names.append(name)
        budget -= int(name[1:])
    return names


@settings(max_examples=15, deadline=None)
@given(_products_of_rank_le_4(), st.data())
def test_poincare_properties_on_products(names, data):
    rs = build_str("x".join(names))
    poly = poincare(rs)
    assert poly[0] == 1
    # |W| as the product of the degrees, read per factor from the degree table.
    weyl_order = prod(prod(degrees_of(sym)) for sym in rs.factors)
    assert _at(poly, -1) == (-1) ** rs.rank * weyl_order
    if len(names) > 1:
        k = data.draw(st.integers(min_value=1, max_value=len(names) - 1))
        left = poincare(build_str("x".join(names[:k])))
        right = poincare(build_str("x".join(names[k:])))
        assert poly == _product(left, right)
