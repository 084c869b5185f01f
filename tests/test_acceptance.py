"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is zero-tolerance; each test prints a PASS line on success so
`pytest -v -s tests/test_acceptance.py` reads as a checklist.
"""

import time
from collections import Counter

from toricarr import layers, subsys
from toricarr.layers import (
    count_layers,
    count_points,
    euler_characteristic,
    layer_census,
    n_theta,
    poincare,
    point_orbits,
    verify_degree_identity,
)
from toricarr.oracle import brute_points, build_poset, component_count, order_bound
from toricarr.rootsys import (
    affine_diagram,
    build_str,
    center_order,
    diagram_automorphisms,
    format_type,
    parse_type,
    type_invariants,
)
from toricarr.subsys import enumerate_complete
from toricarr.weyl import center_subgroup

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]
ROUTE_LIST = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]


def _ok(n, message):
    print(f"ACCEPTANCE {n} PASS: {message}")


def _wz_vertex_orbits(rs):
    """W_Z of an irreducible system, and the W_Z-orbit of each affine vertex: its images under the group."""
    wz = center_subgroup(*rs.factors)
    return wz, [tuple(sorted({z[v] for z in wz})) for v in range(rs.rank + 1)]


def _compose(a, b):
    """Permutations composed as functions: a after b."""
    return tuple(a[x] for x in b)


def test_criterion_1_f4_poincare_closed_form():
    # timed from cold caches: the bound includes the K_d enumeration
    subsys._span_levels.cache_clear()
    layers.layer_census.cache_clear()
    rs = build_str("F4")
    start = time.monotonic()
    sums = [0] * (rs.rank + 1)
    for r in layer_census(rs):
        sums[r.dimension] += r.orbit_size * type_invariants(r.theta.type).weyl_order // r.n_theta
    sums = tuple(sums)
    poly = poincare(rs)
    elapsed = time.monotonic() - start
    assert sums == (1152, 768, 208, 24, 1), sums
    assert poly == (1, 28, 286, 1260, 2153), poly
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _ok(1, f"F4 closed form {layers.format_polynomial(poly)} with sums {sums} in {elapsed:.1f}s")


def test_criterion_2_both_routes_agree():
    for t in ROUTE_LIST:
        rs = build_str(t)
        records = layer_census(rs)
        closed = layers._assemble(rs.rank, layers._closed_form_terms(records))
        assert layers._assemble(rs.rank, layers._layer_terms(records)) == closed == poincare(rs), t
    _ok(2, f"layer-sum == closed-form for {', '.join(ROUTE_LIST)}")


def test_criterion_3_euler_characteristic():
    expected = {"F4": 1152, "A2": 6, "D4": 192}
    for t in ROUTE_LIST:
        rs = build_str(t)
        value = sum((-1) ** k * c for k, c in enumerate(poincare(rs)))
        assert value == (-1) ** rs.rank * type_invariants(rs.factors).weyl_order, t
        assert value == euler_characteristic(rs.factors), t
        if t in expected:
            assert value == expected[t], t
    _ok(3, "P(-1) = (-1)^n |W| for the full route list")


def test_criterion_4_point_count_closed_forms():
    for n in range(1, 9):
        assert count_points(parse_type(f"A{n}")) == n + 1, f"A{n}"
    for n in range(2, 7):
        t = "B2" if n == 2 else f"C{n}"
        prose = 2 ** n
        formula = count_points(parse_type(t))
        assert formula == prose, f"C{n}: prose {prose} vs Eq.(1) {formula}"
    for n in range(2, 7):
        prose = 2 * (2 ** n - n)
        formula = count_points(parse_type(f"B{n}"))
        assert formula == prose, f"B{n}: prose {prose} vs Eq.(1) {formula}"
    for n in range(4, 7):
        prose = 2 * (2 ** n - 2 * n)
        formula = count_points(parse_type(f"D{n}"))
        assert formula == prose, f"D{n}: prose {prose} vs Eq.(1) {formula}"
    _ok(4, "A/B/C/D prose closed forms match the vertex-sum formula")


def test_criterion_5_oracle_point_equivalence():
    for t in RANK_LE_4:
        rs = build_str(t)
        pts = brute_points(rs)
        assert len(pts) == count_points(rs.factors), t
        brute_types = Counter(p.phi_type for p in pts)
        formula_types = Counter()
        for r in point_orbits(*rs.factors):
            formula_types[r.point_type] += r.orbit_size
        assert brute_types == formula_types, t
        # stabilizers: multiset of (type, |W(t)|) vs (type, |W_p|)
        brute_stabs = Counter((p.phi_type, p.stabilizer_order) for p in pts)
        expected_stabs = Counter()
        for r in point_orbits(*rs.factors):
            expected_stabs[(r.point_type, r.stabilizer_order)] += r.orbit_size
        assert brute_stabs == expected_stabs, t
        # W x Z stabilizers: |W_p| times the vertex stabilizer inside the
        # group that actually acts through the diagram, W_Z (the image of
        # the extended affine Weyl group; the full Aut(Gamma) is larger for
        # A_n and D4 and would overcount)
        wz, wz_orbits = _wz_vertex_orbits(rs)
        brute_wz = Counter((p.phi_type, p.wz_stabilizer_order) for p in pts)
        expected_wz = Counter()
        for r in point_orbits(*rs.factors):
            orbit = wz_orbits[r.vertex]
            expected_wz[
                (r.point_type, r.stabilizer_order * (len(wz) // len(orbit)))
            ] += r.orbit_size
        assert brute_wz == expected_wz, t
    _ok(5, f"brute points match counts, types and stabilizers for {len(RANK_LE_4)} types")


def test_criterion_6_component_counts():
    checked = 0
    for t in RANK_LE_4:
        rs = build_str(t)
        for d in range(rs.rank + 1):
            for theta in enumerate_complete(rs, d).members:
                cc = component_count(rs, theta)
                nt = n_theta(rs, theta)
                cp = count_points(theta.type)
                assert cc * nt == cp, (t, d, format_type(theta.type), cc, nt, cp)
                checked += 1
    assert checked > 400  # several hundred instances, mostly from F4
    _ok(6, f"component_count == n_theta^-1 |C_0(Theta)| for {checked} tangent subsystems")


# The published census table.  Two of its labels disagree with affine-diagram
# deletion: the C3 row's extra layers come out B2xA1 (printed A2xA1; only
# B2xA1 makes the per-space exponent products sum to 24) and the F4 row's
# 3 extra layers come out B4 (printed C4; same Weyl order either way).
F4_TABLE = {
    "A0": (1, 1, {"A0": 1}),
    "A1": (24, 1, {"A1": 1}),
    "A1xA1": (72, 1, {"A1xA1": 1}),
    "A2": (32, 1, {"A2": 1}),
    "B2": (18, 2, {"B2": 1, "A1xA1": 1}),
    "C3": (12, 4, {"C3": 1, "A2xA1": 3}),
    "B3": (12, 5, {"B3": 1, "A3": 1, "A1xA1xA1": 3}),
    "A1xA2": (96, 1, {"A1xA2": 1}),
    "F4": (1, 72, {"F4": 1, "A1xC3": 12, "A2xA2": 32, "A3xA1": 24, "C4": 3}),
}


def _canon_label(label: str) -> str:
    return label if label == "A0" else format_type(parse_type(label))


def _bc_equivalent(a: str, b: str) -> bool:
    """Same type up to the documented B_n <-> C_n ambiguity, factorwise."""
    fa = sorted(p.replace("C", "B") for p in a.split("x"))
    fb = sorted(p.replace("C", "B") for p in b.split("x"))
    return fa == fb


def test_criterion_7_f4_census():
    rs = build_str("F4")
    agg = {}
    for rec in layer_census(rs):
        key = format_type(rec.theta.type)
        spaces, per, types = agg.get(key, (0, rec.layer_count, rec.phi_c_types))
        assert per == rec.layer_count
        assert types == rec.phi_c_types
        agg[key] = (spaces + rec.orbit_size, rec.layer_count, rec.phi_c_types)
    assert sorted(agg) == sorted(F4_TABLE)
    warnings = []
    for key, (spaces, per, types) in agg.items():
        exp_spaces, exp_per, exp_types = F4_TABLE[key]
        assert spaces == exp_spaces, key
        assert per == exp_per, key
        computed = {format_type(t): c for t, c in types}
        matched = set()
        for label, count in exp_types.items():
            canon = _canon_label(label)
            if canon in computed and computed[canon] == count:
                matched.add(canon)
                continue
            # count must match under some label; the label itself may differ
            candidates = [
                k for k, c in computed.items()
                if c == count and k not in matched and _bc_equivalent(k, canon)
            ]
            if candidates:
                matched.add(candidates[0])
                if candidates[0] != canon:
                    warnings.append(
                        f"theta {key}: layer type {candidates[0]} vs printed {label} (B/C class)"
                    )
                continue
            candidates = [
                k for k, c in computed.items() if c == count and k not in matched
            ]
            assert candidates, (key, label, computed)
            matched.add(candidates[0])
            warnings.append(
                f"theta {key}: layer type {candidates[0]} vs printed {label} "
                f"(|W| {type_invariants(parse_type(candidates[0])).weyl_order} "
                f"vs {type_invariants(parse_type(label)).weyl_order})"
            )
        assert matched == set(computed)
    for w in warnings:
        print(f"ACCEPTANCE 7 WARNING: {w}")
    assert len(warnings) == 2  # exactly the two documented label discrepancies
    _ok(7, "F4 census counts (1,24,72,32,18,12,12,96,1) / (1,1,1,1,2,4,5,1,72) reproduced")


def test_criterion_8_a_series_cross_check(a_series_census, a_series_poincare):
    for n in range(2, 7):
        rs = build_str(f"A{n-1}")
        for d in range(n):
            assert a_series_census(n, d)[0] == count_layers(rs, d), (n, d)
    for n in range(2, 6):
        assert a_series_poincare(n) == poincare(build_str(f"A{n-1}")), n
    _ok(8, "partition formulas match enumeration (n <= 6) and Poincare (n <= 5)")


def test_criterion_9_degree_identity_through_e8():
    types = (
        [f"A{n}" for n in range(1, 9)]
        + [f"B{n}" for n in range(2, 9)]
        + [f"C{n}" for n in range(3, 9)]
        + [f"D{n}" for n in range(4, 9)]
        + ["E6", "E7", "E8", "F4", "G2"]
    )
    start = time.monotonic()
    for t in types:
        res = verify_degree_identity(*parse_type(t))
        assert res.total == (1, 1), t
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(9, f"degree identity exact for {len(types)} types in {elapsed:.2f}s")


def test_criterion_10_posets(poset_order, brute_point_grid):
    for t in ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]:
        rs = build_str(t)
        poset = build_poset(rs)
        for d in range(rs.rank + 1):
            level = sum(1 for e, _, _ in poset.layers if e == d)
            assert level == count_layers(rs, d), (t, d)
        n = len(poset.layers)
        rel = poset_order(poset)
        for i in range(n):
            assert (i, i) in rel
        for (i, j) in rel:
            assert i == j or (j, i) not in rel
            for k in range(n):
                if (j, k) in rel:
                    assert (i, k) in rel
        assert poset.modulus == order_bound(rs.factors)
        zero = sorted(base for d, _, base in poset.layers if d == 0)
        assert zero == sorted(x for x, _ in brute_point_grid(rs)), t
    _ok(10, "posets graded by count_layers; partial order valid; 0-dim = brute points")


def test_criterion_11_iwahori_matsumoto():
    for t in RANK_LE_4:
        rs = build_str(t)
        wz = center_subgroup(*rs.factors)  # construction asserts z_p.alpha_0 = alpha_p
        assert len(wz) == center_order(rs.factors), t
        perms = set(wz)
        for a in wz:
            for b in wz:
                assert _compose(a, b) in perms, t  # subgroup closure
        _, aut_orbits = diagram_automorphisms(affine_diagram(*rs.factors))
        _, wz_orbits = _wz_vertex_orbits(rs)
        assert set(aut_orbits) == set(wz_orbits), t
    _ok(11, "z_p.alpha_0 = alpha_p, |W_Z| = |Z|, W_Z orbits = Aut orbits, rank <= 4")
