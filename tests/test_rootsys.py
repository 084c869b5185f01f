"""Root system construction, affine diagrams, type identification."""

import itertools
import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricarr.rootsys import (
    AffineDiagram,
    RootSystem,
    TypeSymbol,
    _cartan_matrix,
    _classify_diagram,
    affine_diagram,
    build,
    build_str,
    center,
    center_order,
    classify_dynkin,
    diagram_automorphisms,
    format_type,
    parse_type,
    type_data,
    type_invariants,
)
from toricarr.oracle import order_bound
from toricarr.subsys import enumerate_complete

RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]


def test_aliases():
    assert TypeSymbol.of("B", 1) == TypeSymbol("A", 1)
    assert TypeSymbol.of("C", 1) == TypeSymbol("A", 1)
    assert TypeSymbol.of("C", 2) == TypeSymbol("B", 2)
    assert TypeSymbol.of("D", 3) == TypeSymbol("A", 3)
    assert parse_type("C2") == (TypeSymbol("B", 2),)


@pytest.mark.parametrize("bad", ["E9", "F5", "G3", "D2", "A0", "H4", "x", ""])
def test_invalid_types(bad):
    with pytest.raises(ValueError):
        parse_type(bad)


@pytest.mark.parametrize(
    "family, rank, message",
    [
        ("E", 9, "E9 is not a valid canonical type"),
        ("H", 4, "unknown family 'H'"),
        ("A", 0, "A0 is not a valid canonical type"),
        ("D", 3, "D3 is not a valid canonical type"),
    ],
)
def test_type_symbol_constructor_rejects_non_canonical_types(family, rank, message):
    # The constructor checks by itself, not only through TypeSymbol.of or parse_type.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TypeSymbol(family, rank)


# Accepted, rejected by the pattern, rejected by TypeSymbol, and the separators in every spelling.
_PARSE_CORPUS = [
    "F4", "a3xA1", " B2 * G2 ", "A3XA1", "A\u0663", "A\u00b2", "A 3", "A+1", "A0", "E9", "x", "F4x", "",
    "C2", "d3", "b1xc1", "A1**B2", "xA1", "A1 x  B2", "\tG2\n", "A03", "A-1", "Ax1", "A", "AA1", "H4",
    "A\uff13", "A\u00bd", "A1\u00d7B2", "E8*e6Xa1", "A1 X", " * ", "g2 ", "A\u0663\u0660",
]


@pytest.mark.parametrize("text", _PARSE_CORPUS)
def test_parse_type_matches_the_regex_reference(reference_parse_type, text):
    try:
        expected = ("factors", reference_parse_type(text))
    except ValueError as exc:
        expected = ("error", str(exc))
    try:
        actual = ("factors", parse_type(text))
    except ValueError as exc:
        actual = ("error", str(exc))
    assert actual == expected


def test_parse_products():
    assert parse_type("A3xA1") == (TypeSymbol("A", 1), TypeSymbol("A", 3))
    assert parse_type("a1XB3") == (TypeSymbol("A", 1), TypeSymbol("B", 3))
    assert format_type(parse_type("B3xA1")) == "A1xB3"
    assert format_type(()) == "A0"


def test_positive_root_counts():
    expected = {
        "A1": 1, "A2": 3, "A3": 6, "A4": 10,
        "B2": 4, "B3": 9, "B4": 16, "C3": 9, "C4": 16,
        "D4": 12, "G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120,
    }
    for t, n in expected.items():
        assert build_str(t).n_positive == n, t


CLOSURE_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)] + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8", "F4", "G2", "A3xA1", "E7xA1"]
)


@pytest.mark.parametrize("t", CLOSURE_TYPES)
def test_closure_matches_the_reference(reference_positive_roots, inner, t):
    rs = build_str(t)
    assert list(rs.positive_roots) == reference_positive_roots(rs.cartan)
    d, c = rs.symmetrizer, rs.cartan
    assert all(d[i] * c[i][j] == d[j] * c[j][i] for i in range(rs.rank) for j in range(rs.rank))
    start = 0
    for sym in rs.factors:
        assert math.gcd(*d[start:start + sym.rank]) == 1, sym
        start += sym.rank
    for root, pairing in zip(rs.positive_roots, rs.pairings, strict=True):
        assert pairing == tuple(sum(c * m for c, m in zip(row, root)) for row in rs.cartan), root
    if rs.rank <= 4:
        roots = rs.positive_roots
    elif len(rs.factors) == 1:  # the highest root, then the simple roots
        roots = [rs.positive_roots[-1]] + [rs.positive_roots[i] for i in rs.simple_indices]
    else:
        roots = []
    cartan = rs.cartan_of([rs.root_index[r] for r in roots])
    for (i, a), (j, b) in itertools.product(enumerate(roots), repeat=2):
        q, r = divmod(2 * inner(rs, a, b), inner(rs, b, b))
        assert r == 0 and cartan[j][i] == q, (a, b)


def test_simple_roots_are_units():
    rs = build_str("F4")
    for i in range(rs.rank):
        unit = tuple(int(i == j) for j in range(rs.rank))
        assert unit in rs.positive_roots
        assert rs.positive_roots[rs.simple_indices[i]] == unit


@pytest.mark.parametrize("t", RANK_LE_4)
def test_closure_and_highest_root(t, signed_roots):
    rs = build_str(t)
    pos = set(rs.positive_roots)
    allr = set(signed_roots(rs).roots)
    # closed under negation and under addition within the system
    for a in allr:
        assert tuple(-x for x in a) in allr
    for a in pos:
        for b in pos:
            s = tuple(x + y for x, y in zip(a, b))
            if any(s):
                # sums of roots either leave the system or stay in it; the
                # string arithmetic used to build it guarantees consistency
                assert (s in allr) == (s in rs.root_index)  # a sum of positive roots is positive
    marks = type_data(*rs.factors).diagram.marks
    top = marks[1:]
    assert top in pos
    assert all(all(x >= y for x, y in zip(top, r)) for r in pos)
    assert marks[0] == 1 and affine_diagram(*rs.factors).marks == marks


HIGHEST_ROOT_TYPES = (
    [f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 10)] + [f"C{n}" for n in range(3, 10)]
    + [f"D{n}" for n in range(4, 11)] + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("t", HIGHEST_ROOT_TYPES)
def test_highest_root_equals_the_closure_reference(reference_highest_roots, t):
    # The ascent from a long simple root against the last root of the closure.
    rs = build_str(t)
    theta = type_data(*rs.factors).diagram.marks[1:]
    assert (theta,) == reference_highest_roots(rs)
    assert all(all(x >= y for x, y in zip(theta, r)) for r in rs.positive_roots)


def test_coordinate_model_b2():
    # alpha_1 = e1 - e2 (long), alpha_2 = e2 (short): roots e1-e2, e2, e1, e1+e2
    rs = build_str("B2")
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (1, 2)}
    # <alpha_1, alpha_2^vee> = -2, <alpha_2, alpha_1^vee> = -1
    assert rs.cartan_of([rs.root_index[(1, 0)], rs.root_index[(0, 1)]]) == ((2, -1), (-2, 2))


def test_coordinate_model_g2():
    rs = build_str("G2")
    assert set(rs.positive_roots) == {
        (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)
    }


def test_coroot_coords(coroot_coords):
    rs = build_str("B2")
    # (e1+e2)^vee = alpha_1^vee + alpha_2^vee
    assert coroot_coords(rs, (1, 2)) == (1, 1)
    rs = build_str("G2")
    # theta = 3a1 + 2a2 is long: theta^vee = a1^vee + 2a2^vee
    assert coroot_coords(rs, (3, 2)) == (1, 2)


def test_cartan_convention():
    # cartan[i][j] = <alpha_j, alpha_i^vee>
    rs = build_str("C3")
    assert rs.cartan_of(rs.simple_indices) == rs.cartan
    assert rs.cartan[2][1] == -1  # <alpha_2, alpha_3^vee>, alpha_3 long
    assert rs.cartan[1][2] == -2


@pytest.mark.parametrize("t", RANK_LE_4 + [
    "A2xA1", "B2xA1", "G2xA1", "A3xA1", "A2xA2", "B2xG2", "A1xA1xA1", "A1xA1xA1xA1"
])
def test_cartan_of_equals_the_pairwise_reference(t, reference_pair_roots):
    # On every complete subsystem: its simple roots, and all of its roots.
    rs = build_str(t)
    for d in range(rs.rank + 1):
        for theta in enumerate_complete(rs, d).members:
            for indices in (theta.simples, theta.roots):
                roots = [rs.positive_roots[i] for i in indices]
                expected = tuple(tuple(reference_pair_roots(rs, b, a) for b in roots) for a in roots)
                assert rs.cartan_of(indices) == expected, (d, indices)


def test_build_examples():
    rs = build_str("A1")
    assert rs.n_positive == 1 and rs.cartan == ((2,),)
    rs = build_str("F4")
    assert rs.n_positive == 24
    assert sum(affine_diagram(*rs.factors).marks) == 12  # 1+2+3+4+2
    rs = build_str("C2")  # alias of B2
    assert rs.n_positive == 4
    assert rs.degrees == (2, 4)
    assert type_invariants(rs.factors).weyl_order == 8


def test_products_block_diagonal():
    rs = build_str("A3xA1")
    assert rs.rank == 4
    assert rs.n_positive == 7
    assert rs.cartan[0][1] == 0  # A1 block first (sorted factors)
    assert type_invariants(rs.factors).weyl_order == 48
    assert center_order(rs.factors) == 8  # 2 * 4, multiplicative


@pytest.mark.parametrize(
    "t,p,expected",
    [
        ("F4", 0, "F4"),
        ("F4", 2, "A2xA2"),
        ("F4", 4, "B4"),
        ("G2", 2, "A1xA1"),  # the vertex adjacent to 0
        ("A1", 0, "A1"),
        ("D4", 2, "A1xA1xA1xA1"),
    ],
)
def test_delete_vertex(t, p, expected):
    (sym,) = parse_type(t)
    assert format_type(type_data(sym).vertices[p][1]) == expected


@pytest.mark.parametrize("t", RANK_LE_4 + ["E6", "E7", "E8", "D5"])
def test_delete_zero_recovers_type(t):
    factors = parse_type(t)
    assert type_data(*factors).vertices[0][1] == factors


def test_affine_diagram_a1_double_bond():
    diag = affine_diagram(TypeSymbol("A", 1))
    assert diag.cartan == ((2, -2), (-2, 2))


def test_affine_diagram_d4_star():
    diag = affine_diagram(TypeSymbol("D", 4))
    assert diag.marks == (1, 1, 2, 1, 1)
    center = [v for v in diag.vertices if sum(1 for w in diag.vertices if w != v and diag.cartan[v][w]) == 4]
    assert len(center) == 1 and diag.marks[center[0]] == 2


@pytest.mark.parametrize(
    "t",
    [f"A{n}" for n in range(1, 10)] + [f"B{n}" for n in range(2, 9)] + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 10)] + ["E6", "E7", "E8", "F4", "G2"],
)
def test_affine_diagram_equals_the_pairings_of_the_extended_roots(monkeypatch, reference_pair_roots, t):
    # The diagram reads the Cartan matrix alone; the test's own closure gives the lowest root.
    rs = RootSystem(parse_type(t))
    extended = [tuple(-x for x in rs.positive_roots[-1])] + [
        tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)
    ]
    expected = tuple(tuple(reference_pair_roots(rs, b, a) for b in extended) for a in extended)
    built = []
    init = RootSystem.__init__
    monkeypatch.setattr(RootSystem, "__init__", lambda self, factors: built.append(factors) or init(self, factors))
    diag = affine_diagram(*rs.factors)
    assert diag.cartan == expected
    assert diag.marks == (1,) + rs.positive_roots[-1]
    assert built == []


IRREDUCIBLE = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def _permuted(cartan):
    """The matrix with rows and columns both reordered by one fixed permutation (odds, then evens reversed)."""
    n = len(cartan)
    perm = list(range(1, n, 2)) + list(range(0, n, 2))[::-1]
    return [[cartan[i][j] for j in perm] for i in perm]


@pytest.mark.parametrize("t", IRREDUCIBLE)
def test_classify_dynkin_reads_a_cartan_matrix(t):
    (sym,) = parse_type(t)
    cartan = _cartan_matrix(sym)
    assert classify_dynkin(cartan) == (sym,)
    assert classify_dynkin(_permuted(cartan)) == (sym,)


@pytest.mark.parametrize("t", ["A3xA1", "A1xA1xA1", "B2xG2", "C3xB2", "D4xA3", "E7xA1", "F4xG2xA2"])
def test_classify_dynkin_reads_a_block_diagonal_product(t):
    cartan = build_str(t).cartan
    assert classify_dynkin(cartan) == parse_type(t)
    assert classify_dynkin(_permuted(cartan)) == parse_type(t)


@pytest.mark.parametrize(
    "t, message",
    [
        ("A2", "graph is not a tree: not a finite Dynkin diagram"),
        ("D4", "not a finite Dynkin diagram"),
        ("B3", "not a finite Dynkin diagram"),
        ("C3", "not a finite Dynkin diagram"),
        ("E6", "not a finite Dynkin diagram"),
        ("F4", "interior double bond only occurs in F4"),
        ("G2", "triple bond only occurs in G2"),
        ("A1", "unrecognized bond (2, 2)"),
    ],
)
def test_classify_dynkin_rejects_affine_cartan_matrices(t, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        classify_dynkin(affine_diagram(*parse_type(t)).cartan)


def test_diagram_automorphisms_a_series():
    # the (n+1)-cycle has the dihedral group, one vertex orbit
    for n in [2, 3, 4, 5]:
        diag = affine_diagram(TypeSymbol("A", n))
        autos, orbits = diagram_automorphisms(diag)
        assert len(autos) == 2 * (n + 1)
        assert orbits == (tuple(range(n + 1)),)
    # A1 is the degenerate double-bond diagram: only the swap survives
    autos, orbits = diagram_automorphisms(affine_diagram(TypeSymbol("A", 1)))
    assert len(autos) == 2 and orbits == ((0, 1),)


_AFFINE_TYPES = (
    [f"A{n}" for n in range(1, 41)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 10)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def test_diagram_automorphisms_equal_the_exhaustive_search(reference_diagram_automorphisms):
    for t in _AFFINE_TYPES:
        diag = affine_diagram(*parse_type(t))
        assert diagram_automorphisms(diag) == reference_diagram_automorphisms(diag), t


def test_diagram_automorphisms_need_no_recursion_depth():
    # The search used to take one frame per vertex; A200's 201 vertices must fit in 50 spare frames.
    diag = affine_diagram(TypeSymbol("A", 200))
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        autos, orbits = diagram_automorphisms(diag)
    finally:
        sys.setrecursionlimit(limit)
    assert len(autos) == 402 and orbits == (tuple(range(201)),)


@st.composite
def _labelled_diagrams(draw):
    """A connected diagram on up to 6 vertices with bonds of labels -1 and -2 and marks 1 or 2."""
    k = draw(st.integers(2, 6))
    c = [[2 * (i == j) for j in range(k)] for i in range(k)]
    label = st.sampled_from([-1, -2])
    for v in range(1, k):  # a random spanning tree keeps the diagram connected
        u = draw(st.integers(0, v - 1))
        c[u][v], c[v][u] = draw(label), draw(label)
    for u, v in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=3)):
        if u != v:
            c[u][v], c[v][u] = draw(label), draw(label)
    marks = draw(st.lists(st.sampled_from([1, 2]), min_size=k, max_size=k))
    return _diagram(marks, c)


def _diagram(marks, cartan):
    """The diagram of a Cartan matrix with these marks and no symmetrizer; vertices are joined by nonzero entries."""
    k = range(len(cartan))
    adjacency = tuple(tuple(w for w in k if w != v and cartan[v][w]) for v in k)
    return AffineDiagram(len(cartan) - 1, tuple(marks), tuple(map(tuple, cartan)), (), adjacency)


@settings(max_examples=300, deadline=None)
@given(_labelled_diagrams())
def test_diagram_automorphisms_equal_the_exhaustive_search_on_labelled_graphs(
    reference_diagram_automorphisms, diag
):
    assert diagram_automorphisms(diag) == reference_diagram_automorphisms(diag)


def test_diagram_automorphisms_keep_the_orientation_of_each_bond():
    # A 3-cycle of oriented double bonds: the rotations keep the Cartan matrix, the reflections reverse it.
    diag = _diagram((1, 1, 1), ((2, -2, -1), (-1, 2, -2), (-2, -1, 2)))
    assert diagram_automorphisms(diag) == (((0, 1, 2), (1, 2, 0), (2, 0, 1)), ((0, 1, 2),))


def test_diagram_automorphisms_f4_trivial():
    autos, orbits = diagram_automorphisms(affine_diagram(TypeSymbol("F", 4)))
    assert len(autos) == 1
    assert len(orbits) == 5


def test_diagram_automorphisms_c_series_involution():
    for n in [3, 4, 5]:
        diag = affine_diagram(TypeSymbol("C", n))
        autos, _ = diagram_automorphisms(diag)
        assert len(autos) == 2
        swap = next(a for a in autos if a != tuple(range(n + 1)))
        assert all(swap[p] == n - p for p in range(n + 1))


def test_type_invariants_examples():
    inv = type_invariants(parse_type("A1"))
    assert (inv.weyl_order, inv.degrees, inv.exponent_product, center_order(parse_type("A1"))) == (
        2, (2,), 1, 2,
    )
    inv = type_invariants(parse_type("F4"))
    assert inv.weyl_order == 1152
    assert inv.exponent_product == 1 * 5 * 7 * 11
    assert center_order(parse_type("F4")) == 1
    inv = type_invariants(parse_type("A2"))
    assert inv.weyl_order == 6 and center_order(parse_type("A2")) == 3


def test_center_multiplicative():
    a = center_order(parse_type("A2"))
    b = center_order(parse_type("B3"))
    ab = center_order(parse_type("A2xB3"))
    assert ab == a * b


_CENTER_TYPES = (
    [f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 9)] + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 11)] + ["E6", "E7", "E8", "F4", "G2", "A3xA1", "D4xA3"]
)


@pytest.mark.parametrize("t", _CENTER_TYPES)
def test_center_order_and_exponent_equal_the_smith_divisors(reference_smith_normal_form, t):
    # Z(Phi) is the product of cyclic groups of the Cartan matrix's elementary divisors.
    factors = parse_type(t)
    divisors = [reference_smith_normal_form(_cartan_matrix(sym)).divisors for sym in factors]
    assert center_order(factors) == math.prod(math.prod(d) for d in divisors)
    assert [center(sym).exponent for sym in factors] == [max(d) for d in divisors]


PER_TYPE_TYPES = (
    [f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 9)] + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 10)] + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("t", PER_TYPE_TYPES)
def test_type_data_and_center_equal_the_per_type_references(
    reference_symmetrizer, reference_highest_root, reference_center_exponent, reference_center_order, t
):
    [sym] = parse_type(t)
    data = type_data(sym)
    assert data.cartan == tuple(map(tuple, _cartan_matrix(sym)))
    assert data.symmetrizer == tuple(reference_symmetrizer(_cartan_matrix(sym)))
    assert data.diagram.marks == (1,) + reference_highest_root(sym)
    assert center(sym) == (reference_center_order((sym,)), reference_center_exponent(sym))
    # The affine symmetrizer adds -theta, a long root, and symmetrizes the extended matrix.
    d, c = data.diagram.symmetrizer, data.diagram.cartan
    assert d == (max(data.symmetrizer),) + data.symmetrizer
    assert all(d[u] * c[u][v] == d[v] * c[v][u] for u in data.diagram.vertices for v in data.diagram.vertices)
    assert data.diagram == _diagram(data.diagram.marks, c)._replace(symmetrizer=d)


# Every irreducible type of rank <= 12, and two past it.
_DELETION_TYPES = sorted(
    {f"{family}{n}" for family, low in (("A", 1), ("B", 2), ("C", 3), ("D", 4)) for n in range(low, 13)}
    | {"E6", "E7", "E8", "F4", "G2", "A30", "D30"}
)


@pytest.mark.parametrize("t", _DELETION_TYPES)
def test_type_data_keeps_the_vertex_deletions(reference_delete_vertex, t):
    # Each deletion is typed on the diagram's adjacency lists; the reference classifies the submatrix anew.
    [sym] = parse_type(t)
    data = type_data(sym)
    w_order = type_invariants((sym,)).weyl_order
    for p, ptype, wp, size in data.vertices:
        assert ptype == reference_delete_vertex(data.diagram, p)
        assert wp == type_invariants(ptype).weyl_order and wp * size == w_order
    assert [v[0] for v in data.vertices] == list(data.diagram.vertices)


@pytest.mark.parametrize("t", _DELETION_TYPES)
def test_diagram_automorphisms_equal_the_recursive_search(reference_recursive_diagram_automorphisms, t):
    diag = affine_diagram(*parse_type(t))
    assert diagram_automorphisms(diag) == reference_recursive_diagram_automorphisms(diag)


def _typing(classify, adj, cartan, deleted=None):
    """The types a classifier gives, or the message of the ValueError it raises."""
    try:
        return classify(adj, cartan, deleted)
    except ValueError as exc:
        return str(exc)


def _adjacency(cartan):
    return [[j for j, c in enumerate(row) if c and j != i] for i, row in enumerate(cartan)]


@pytest.mark.parametrize("t", _DELETION_TYPES)
def test_classify_diagram_equals_the_reference_on_every_deletion(reference_classify_diagram, t):
    # Each affine vertex deleted, and none: the whole affine diagram is no finite one, so both raise alike.
    diagram = type_data(*parse_type(t)).diagram
    for p in [None, *diagram.vertices]:
        types = _typing(_classify_diagram, diagram.adjacency, diagram.cartan, p)
        assert types == _typing(reference_classify_diagram, diagram.adjacency, diagram.cartan, p), p
        assert p is None or all(type(sym) is TypeSymbol for sym in types), p


def test_classify_diagram_walks_no_arm_through_the_deleted_vertex(reference_classify_diagram):
    # Vertex 4 is on an arm of the branch point 0 once 5 is deleted, and 5 comes before 6 in its list.
    edges = [(0, 1), (0, 2), (2, 8), (0, 3), (3, 4), (4, 5), (4, 6), (5, 7)]
    cartan = [[2 if i == j else -((i, j) in edges or (j, i) in edges) for j in range(9)] for i in range(9)]
    adj = _adjacency(cartan)
    assert _classify_diagram(adj, cartan, 5) == (TypeSymbol("A", 1), TypeSymbol("E", 7))
    assert reference_classify_diagram(adj, cartan, 5) == (TypeSymbol("A", 1), TypeSymbol("E", 7))


# -- property tests ----------------------------------------------------------

_RANK_LE_8 = [t for t in PER_TYPE_TYPES if int(t[1:]) <= 8]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(_RANK_LE_8), min_size=1, max_size=3)
    .map(lambda names: tuple(sorted(sym for t in names for sym in parse_type(t))))
    .filter(lambda factors: sum(sym.rank for sym in factors) <= 8)
)
def test_products_read_their_factors_records(
    reference_symmetrizer, reference_center_order, reference_order_bound, factors
):
    # A product's symmetrizer is its factors' in blocks; |Z| and the grid modulus come from the factors.
    rs = build(factors)
    assert list(rs.symmetrizer) == reference_symmetrizer(rs.cartan)
    assert center_order(factors) == reference_center_order(factors)
    assert order_bound(factors) == reference_order_bound(factors)


# Other accepted spellings of some canonical factors.
_SPELLINGS = {"A1": ["a1", "B1", "C1"], "A3": ["a3", "D3"], "B2": ["b2", "C2"], "G2": ["g2"]}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(RANK_LE_4), min_size=1, max_size=4), st.data())
def test_format_parse_round_trip(names, data):
    factors = tuple(sorted(TypeSymbol.of(n[0], int(n[1:])) for n in names))
    text = format_type(factors)
    assert parse_type(text) == factors
    assert format_type(parse_type(text)) == text
    spelled = [data.draw(st.sampled_from([n] + _SPELLINGS.get(n, []))) for n in names]
    separators = [data.draw(st.sampled_from("xX*")) for _ in names[1:]]
    written = spelled[0] + "".join(sep + n for sep, n in zip(separators, spelled[1:]))
    assert parse_type(written) == factors


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_DELETION_TYPES), st.data())
def test_classify_diagram_equals_the_reference_on_principal_submatrices(reference_classify_diagram, t, data):
    # Any vertex subset of an affine diagram, less one more vertex or none: a product of finite types or an error.
    cartan = type_data(*parse_type(t)).diagram.cartan
    keep = data.draw(st.lists(st.sampled_from(range(len(cartan))), min_size=1, unique=True).map(sorted))
    sub = [[cartan[i][j] for j in keep] for i in keep]
    deleted = data.draw(st.sampled_from([None, *range(len(keep))]))
    adj = _adjacency(sub)
    assert _typing(_classify_diagram, adj, sub, deleted) == _typing(reference_classify_diagram, adj, sub, deleted)


# Off-diagonal pairs (c[i][j], c[j][i]) of a generalized Cartan matrix: no bond, simple, double, triple, or more.
_BONDS = [(0, 0), (0, 0), (0, 0), (-1, -1), (-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2), (-1, -4)]


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=1, max_value=9).flatmap(
    lambda k: st.tuples(
        st.just(k), st.lists(st.sampled_from(_BONDS), min_size=k * (k - 1) // 2, max_size=k * (k - 1) // 2),
        st.sampled_from([None, *range(k)]),
    )
))
def test_classify_diagram_equals_the_reference_on_any_matrix(reference_classify_diagram, drawn):
    # Most of these are no Dynkin diagram: cycles, branch points of degree 4, two multiple bonds, bonds of 4.
    k, bonds, deleted = drawn
    cartan = [[2 if i == j else 0 for j in range(k)] for i in range(k)]
    for (i, j), (cij, cji) in zip(itertools.combinations(range(k), 2), bonds):
        cartan[i][j], cartan[j][i] = cij, cji
    adj = _adjacency(cartan)
    assert _typing(_classify_diagram, adj, cartan, deleted) == _typing(reference_classify_diagram, adj, cartan, deleted)
