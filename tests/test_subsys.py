"""Completion, complete-subsystem enumeration, type identification, W-orbits."""

import json
from collections import Counter
from itertools import combinations
from operator import mul
from pathlib import Path

import sys

import pytest

from toricarr import intlat
from toricarr.errors import CapabilityError
from toricarr.oracle import _grid_points, build_poset, order_bound
from toricarr.rootsys import build_str, format_type, type_invariants
from toricarr.subsys import _span_levels, enumerate_complete, parabolic_classes, simple_system


def test_completion_single_root_a2(completion, is_complete):
    rs = build_str("A2")
    sub = completion(rs, [rs.root_index[(1, 0)]])
    assert len(sub.roots) == 1
    assert is_complete(rs, sub.roots)
    assert format_type(sub.type) == "A1"


def test_completion_a1xa1_in_b2_is_all(completion):
    rs = build_str("B2")
    # e1 - e2 and e1 + e2 span the plane, so the completion is all of B2
    sub = completion(rs, [rs.root_index[(1, 0)], rs.root_index[(1, 2)]])
    assert len(sub.roots) == 4
    assert format_type(sub.type) == "B2"


def test_long_roots_of_g2_are_a2_not_complete(completion, inner, make_subsystem, is_complete, signed_roots):
    rs = build_str("G2")
    norms = [inner(rs, r, r) for r in rs.positive_roots]
    longs = [i for i, r in enumerate(rs.positive_roots) if inner(rs, r, r) == max(norms)]
    # the long roots are closed: a sum of two of them that is a root is long
    coords = [rs.positive_roots[i] for i in longs]
    coords += [tuple(-x for x in r) for r in coords]
    for a in coords:
        for b in coords:
            s = tuple(x + y for x, y in zip(a, b))
            assert s not in signed_roots(rs).index or s in coords
    sub = make_subsystem(rs, longs)
    assert format_type(sub.type) == "A2"
    assert not is_complete(rs, longs)
    assert completion(rs, longs).type == rs.factors


def test_b2_subsystem_of_f4_not_misread():
    rs = build_str("F4")
    fam = enumerate_complete(rs, 2)
    b2 = [m for m in fam.members if format_type(m.type) == "B2"]
    assert len(b2) == 18
    assert all(len(m.roots) == 4 for m in b2)


def test_trivial_families():
    rs = build_str("B3")
    full = enumerate_complete(rs, 0)
    assert len(full.members) == 1 and full.members[0].type == rs.factors
    empty = enumerate_complete(rs, rs.rank)
    assert len(empty.members) == 1 and empty.members[0].simples == ()


def test_f4_family_sizes():
    rs = build_str("F4")
    assert len(enumerate_complete(rs, 3).members) == 24
    counts = Counter(
        format_type(m.type) for m in enumerate_complete(rs, 2).members
    )
    assert counts == {"A1xA1": 72, "A2": 32, "B2": 18}
    counts = Counter(
        format_type(m.type) for m in enumerate_complete(rs, 1).members
    )
    assert counts == {"C3": 12, "B3": 12, "A1xA2": 96}


def test_every_member_is_complete(completion, is_complete):
    for t in ["A3", "B3", "C3", "G2"]:
        rs = build_str(t)
        for d in range(rs.rank + 1):
            for m in enumerate_complete(rs, d).members:
                assert is_complete(rs, m.roots)
                assert len(m.simples) == rs.rank - d
                comp = completion(rs, m.roots)
                assert comp.roots == m.roots


@pytest.mark.parametrize(
    "t",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4",
     "A1xA1", "A2xA1", "A1xA1xA1", "B2xA1", "G2xA1", "A2xA2", "A3xA1", "B3xA1",
     "C3xA1", "B2xG2", "A1xA1xA1xA1"],
)
def test_span_members_equal_make_subsystem(t, make_subsystem):
    rs = build_str(t)
    for d in range(rs.rank + 1):
        for m in enumerate_complete(rs, d).members:
            assert m == make_subsystem(rs, m.roots)


def test_cold_poset_saturates_only_to_extend_spans(monkeypatch):
    callers = Counter()
    saturate = intlat.saturate

    def counting(rows):
        callers[sys._getframe(1).f_code.co_name] += 1
        return saturate(rows)

    monkeypatch.setattr(intlat, "saturate", counting)
    _span_levels.cache_clear()
    build_poset(build_str("B3"))
    assert callers["_span_levels"] > 0
    assert sum(callers.values()) == callers["_span_levels"], callers


# Every type of rank at most 4.
RANK_LE_4_ALL = [
    "A1", "A2", "B2", "G2", "A1xA1", "A3", "B3", "C3", "A2xA1", "B2xA1", "G2xA1", "A1xA1xA1",
    "A4", "B4", "C4", "D4", "F4", "A3xA1", "B3xA1", "C3xA1", "A2xA2", "B2xA2", "G2xA2", "B2xB2",
    "B2xG2", "G2xG2", "A2xA1xA1", "B2xA1xA1", "G2xA1xA1", "A1xA1xA1xA1",
]


@pytest.mark.parametrize("t", RANK_LE_4_ALL + ["A5", "B5", "D5"])
def test_span_route_equals_the_per_root_reference(t, reference_enumerate_complete):
    rs = build_str(t)
    for d in range(rs.rank + 1):
        assert enumerate_complete(rs, d).members == reference_enumerate_complete(rs, d), d


@pytest.mark.parametrize("t, flats", [("B3", 23), ("F4", 267)])
def test_span_route_saturates_once_per_flat(monkeypatch, t, flats):
    # The per-root route saturated 58 times for B3 and 1152 times for F4.
    calls = 0
    saturate = intlat.saturate

    def counting(rows):
        nonlocal calls
        calls += 1
        return saturate(rows)

    monkeypatch.setattr(intlat, "saturate", counting)
    _span_levels.cache_clear()
    rs = build_str(t)
    enumerate_complete(rs, 0)
    nontrivial = sum(len(enumerate_complete(rs, d).members) for d in range(rs.rank))
    assert calls == nontrivial == flats


@pytest.mark.parametrize("t", ["F4", "B4", "D5"])
def test_simple_system_equals_the_pairwise_reference_on_flats(t, reference_simple_system):
    rs = build_str(t)
    for d in range(rs.rank + 1):
        for m in enumerate_complete(rs, d).members:
            assert simple_system(rs, m.roots) == reference_simple_system(rs, m.roots), m.roots


@pytest.mark.parametrize("t", ["G2", "B3", "C3", "A4", "B4", "C4", "D4", "F4", "B2xA1", "G2xA1", "D5"])
def test_simple_system_equals_the_pairwise_reference_at_points(t, reference_simple_system):
    # The roots vanishing at a point of the point scan.
    rs = build_str(t)
    rows, m = rs.pairings, order_bound(rs.factors)
    for x in _grid_points(rows, m, rs.rank):
        vanishing = [i for i, u in enumerate(rows) if sum(map(mul, u, x)) % m == 0]
        assert simple_system(rs, vanishing) == reference_simple_system(rs, vanishing), vanishing


@pytest.mark.parametrize(
    "t", ["A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4"]
)
def test_total_span_count_matches_brute_force(t):
    # every rational span of a root subset arises; count spans directly by
    # hashing the saturated basis of every independent-size subset
    from itertools import combinations
    from toricarr import intlat

    rs = build_str(t)
    seen = set()
    for k in range(rs.rank + 1):
        for sub in combinations(range(rs.n_positive), k):
            basis, _ = intlat.saturate([rs.positive_roots[i] for i in sub])
            seen.add(basis)
    total = sum(len(enumerate_complete(rs, d).members) for d in range(rs.rank + 1))
    assert total == len(seen)


def test_a_series_counts_by_partitions(a_series_census):
    # the number of spaces of partition lambda is n!/b_lambda, which is the
    # layer-census count divided back by g_lambda
    from math import gcd

    for n in range(2, 7):
        rs = build_str(f"A{n-1}")
        for d in range(n):
            fam = enumerate_complete(rs, d)
            expected = sum(
                count // gcd(*lam) for lam, count in a_series_census(n, d)[1]
            )
            assert len(fam.members) == expected, (n, d)


@pytest.mark.parametrize(
    "t", [f"B{n}" for n in range(2, 8)] + [f"C{n}" for n in range(3, 8)] + [f"D{n}" for n in range(4, 8)]
)
def test_classical_classes_by_signed_set_partitions(t, signed_partition_classes):
    rs = build_str(t)
    (sym,) = rs.factors
    walk = Counter(
        (d, format_type(theta.type), size) for d in range(rs.rank + 1) for theta, size in parabolic_classes(rs, d)
    )
    assert walk == signed_partition_classes(sym.family, sym.rank)


def test_w_orbit_census_f4_k1():
    rs = build_str("F4")
    sizes = sorted((format_type(theta.type), size) for theta, size in parabolic_classes(rs, 1))
    assert sizes == [("A1xA2", 48), ("A1xA2", 48), ("B3", 12), ("C3", 12)]


def test_w_orbit_same_type_within_orbit(span_orbits):
    rs = build_str("B3")
    order = type_invariants(rs.factors).weyl_order
    for d in range(rs.rank + 1):
        for orbit in span_orbits(rs, d):
            types = {m.type for m in orbit}
            assert len(types) == 1
            assert order % len(orbit) == 0
        for _, size in parabolic_classes(rs, d):
            assert order % size == 0


@pytest.mark.parametrize(
    "t",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4",
     "A5", "A3xA1", "B2xG2"],
)
def test_parabolic_classes_match_span_route(t, span_orbits):
    rs = build_str(t)
    for d in range(rs.rank + 1):
        by_span = [(orbit[0], len(orbit)) for orbit in span_orbits(rs, d)]
        assert list(parabolic_classes(rs, d)) == by_span, d


@pytest.mark.parametrize("t", ["B5", "C5", "D5", "A6", "D6", "E6", "B2xG2xA1"])
def test_parabolic_classes_match_the_reference_walk(t, reference_signed_parabolic_classes):
    # Beyond the span route's reach: the rebuilt representatives against the carried ones.
    rs = build_str(t)
    for d in range(rs.rank + 1):
        assert parabolic_classes(rs, d) == reference_signed_parabolic_classes(rs, d), d


def _product_types():
    """The product types that tests/cli_golden.json and perfbench/reference/ request."""
    root = Path(__file__).resolve().parent
    rows = json.loads((root / "cli_golden.json").read_text())
    for path in sorted((root.parent / "perfbench" / "reference").glob("*.json")):
        rows += json.loads(path.read_text())
    types = {argv[argv.index("--type") + 1] for argv in (row["argv"] for row in rows) if "--type" in argv}
    return sorted(t for t in types if "x" in t)


_IRREDUCIBLE_LE_6 = (
    [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)] + [f"C{n}" for n in range(3, 7)]
    + [f"D{n}" for n in range(4, 7)] + ["E6", "F4", "G2"]
)


@pytest.mark.parametrize("t", _IRREDUCIBLE_LE_6 + ["E7"] + _product_types())
def test_parabolic_classes_equal_the_walk_that_mapped_every_flat(t, reference_parabolic_classes):
    # The walk keyed by simple systems against the one that carried and compared each flat's sorted roots.
    rs = build_str(t)
    for d in range(rs.rank + 1):
        assert parabolic_classes(rs, d) == reference_parabolic_classes(rs, d), d


@pytest.mark.parametrize("t", ["B3", "F4", "A3xA1"])
def test_flats_order_as_their_simple_systems(t):
    # Two flats of one rank compare, by their sorted roots, as their sorted simple systems compare.
    rs = build_str(t)
    for d in range(rs.rank + 1):
        members = enumerate_complete(rs, d).members
        assert len({tuple(sorted(m.simples)) for m in members}) == len(members)
        for a, b in combinations(members, 2):
            assert (a.roots < b.roots) == (tuple(sorted(a.simples)) < tuple(sorted(b.simples))), (a.roots, b.roots)


def test_parabolic_classes_e6_lines(span_orbits):
    rs = build_str("E6")
    by_span = [(orbit[0], len(orbit)) for orbit in span_orbits(rs, 5)]
    classes = parabolic_classes(rs, 5)
    assert list(classes) == by_span
    assert [size for _, size in classes] == [36]


def test_capability_gate():
    # the span route's work is |W| x n_positive; the orbit walk's is |W|
    with pytest.raises(CapabilityError, match=r"\|W\| x 63 = 182891520 exceeds the work bound"):
        enumerate_complete(build_str("E7"), 1)
    with pytest.raises(CapabilityError, match=r"\|W\| = 696729600 exceeds the work bound"):
        parabolic_classes(build_str("E8"), 1)
    fam = enumerate_complete(build_str("E6"), 5)
    assert len(fam.members) == 36  # one line per positive root
