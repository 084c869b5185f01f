"""Exact linear algebra: the Hermite form and what is read off it, against the Smith form reference."""

import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricarr import intlat


def _mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _is_unimodular(mat):
    """Square with the identity as Hermite form, i.e. invertible over the integers."""
    return intlat.hermite_normal_form(mat) == tuple(
        tuple(int(i == j) for j in range(len(mat))) for i in range(len(mat))
    )


def _torsion(smith_normal_form, rows):
    """Order of the torsion of Z^k modulo the row span."""
    return prod(smith_normal_form(rows).divisors) if rows else 1


def test_snf_identity(reference_smith_normal_form):
    s = reference_smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert s.divisors == (1, 1, 1)


def test_snf_worked_examples(reference_smith_normal_form):
    # d_1 = gcd of entries, d_1 * d_2 = |det|
    assert reference_smith_normal_form([[2, 0], [0, 3]]).divisors == (1, 6)
    assert reference_smith_normal_form([[2, 1], [0, 2]]).divisors == (1, 4)


def test_snf_round_trip_random(reference_smith_normal_form):
    rng = random.Random(20240901)
    for _ in range(400):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        s = reference_smith_normal_form(mat)
        assert _mul(_mul(s.left, mat), s.right) == [list(r) for r in s.diagonal]
        divisors = s.divisors
        assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
        # unimodular transforms are invertible, so left^-1 @ diagonal @
        # right^-1 recovers the input
        assert _is_unimodular(s.left) and _is_unimodular(s.right)


def test_snf_deterministic(reference_smith_normal_form):
    mat = [[4, 6, 2], [6, 3, 9]]
    assert reference_smith_normal_form(mat) == reference_smith_normal_form(mat)


def test_quotient_torsion(reference_smith_normal_form):
    assert _torsion(reference_smith_normal_form, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
    assert _torsion(reference_smith_normal_form, [(2, 0)]) == 2  # Z^2/<(2,0)> = Z + Z/2
    assert _torsion(reference_smith_normal_form, []) == 1


def test_quotient_torsion_unimodular_invariance(reference_smith_normal_form):
    rng = random.Random(13)
    rows = [(2, 4, 0), (0, 6, 2)]
    base = _torsion(reference_smith_normal_form, rows)
    for _ in range(50):
        # random unimodular row operation
        i, j = rng.sample(range(2), 2)
        c = rng.randint(-3, 3)
        new = [list(r) for r in rows]
        new[i] = [x + c * y for x, y in zip(new[i], new[j])]
        assert _torsion(reference_smith_normal_form, new) == base
        rows = [tuple(r) for r in new]


def test_saturate_examples(lattice_index):
    basis, null = intlat.saturate([(2, 0)])
    assert basis == ((1, 0),)
    assert lattice_index(basis, [(2, 0)]) == 2
    assert null in (((0, 1),), ((0, -1),))
    basis, null = intlat.saturate([(1, 0), (0, 1)])
    assert lattice_index(basis, [(1, 0), (0, 1)]) == 1
    assert null == ()
    basis, null = intlat.saturate([(1, 1, 0), (1, -1, 0)])
    assert lattice_index(basis, [(1, 1, 0), (1, -1, 0)]) == 2
    assert basis == ((1, 0, 0), (0, 1, 0))  # the x3 = 0 sublattice
    assert null in (((0, 0, 1),), ((0, 0, -1),))
    basis, null = intlat.saturate([(0, 0, 0)])
    assert (basis, null) == ((), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert lattice_index(basis, []) == 1


def test_saturate_index_is_torsion_inside_saturation(lattice_index, reference_smith_normal_form):
    rng = random.Random(99)
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(m, 5)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        basis, _ = intlat.saturate(rows)
        if not basis:
            continue
        nonzero = [r for r in rows if any(r)]
        # rows expressed in the saturated basis span a finite-index
        # sublattice, of index the torsion of Z^n modulo the rows
        index = lattice_index(basis, nonzero)
        assert index == _torsion(reference_smith_normal_form, nonzero)


def test_hermite_canonical():
    h = intlat.hermite_normal_form([(2, 4), (1, 1)])
    assert h == intlat.hermite_normal_form([(1, 1), (2, 4)])
    assert h == ((1, 1), (0, 2))


def _in_lattice(basis, vec):
    """Membership in the row lattice of an HNF basis: a zero residue."""
    return not any(intlat.residue(basis, vec))


def test_in_lattice():
    basis = [(1, 1), (0, 2)]
    assert intlat.residue(basis, (2, 4)) == (0, 0)
    assert intlat.residue(basis, (2, 3)) == (0, 1)
    assert intlat.residue(basis, (3, -2)) == (0, 1)
    assert _in_lattice((), (0, 0))
    assert not _in_lattice((), (1, 0))


def test_lattice_coords_examples(coords_solver):
    # Coordinates read off the HNF of [basis | I] by one residue.
    assert coords_solver([(1, 1), (0, 2)])((2, 4)) == (2, 1)
    assert coords_solver([(1, 1), (0, 2)])((2, 3)) is None
    assert coords_solver([(1, 0, 0)])((0, 1, 0)) is None  # outside the span
    assert coords_solver([(2, 0), (1, 1)])((3, 1)) == (1, 1)  # not HNF
    assert coords_solver(())((0, 0)) == ()
    assert coords_solver(())((1, 0)) is None


def test_lattice_index_errors(lattice_index):
    with pytest.raises(ValueError):
        lattice_index([(2, 0), (0, 2)], [(1, 0)])  # not contained


# -- property tests ----------------------------------------------------------

_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def _matrices(draw, max_rows=4, max_cols=4):
    m = draw(st.integers(min_value=1, max_value=max_rows))
    n = draw(st.integers(min_value=1, max_value=max_cols))
    return [draw(st.lists(_entries, min_size=n, max_size=n)) for _ in range(m)]


@st.composite
def _row_operations(draw, m):
    """A list of (target, source, multiplier) with target != source."""
    ops = []
    if m < 2:
        return ops
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        i = draw(st.integers(min_value=0, max_value=m - 1))
        j = draw(st.integers(min_value=0, max_value=m - 2))
        ops.append((i, j + (j >= i), draw(st.integers(min_value=-3, max_value=3))))
    return ops


def _apply(rows, ops, swap):
    rows = [list(r) for r in rows]
    for i, j, c in ops:
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    if swap and len(rows) > 1:
        rows[0], rows[-1] = rows[-1], [-x for x in rows[0]]
    return rows


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_snf_invariants(reference_smith_normal_form, mat):
    s = reference_smith_normal_form(mat)
    assert _mul(_mul(s.left, mat), s.right) == [list(r) for r in s.diagonal]
    assert _is_unimodular(s.left) and _is_unimodular(s.right)
    d = s.divisors
    assert all(x > 0 for x in d)
    assert all(b % a == 0 for a, b in zip(d, d[1:]))
    # diagonal: nonzero entries only at (i, i) for i < rank
    for i, row in enumerate(s.diagonal):
        assert all(x == 0 for j, x in enumerate(row) if j != i or i >= len(d))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hnf_invariant_under_unimodular_row_operations(data):
    mat = data.draw(_matrices())
    ops = data.draw(_row_operations(len(mat)))
    moved = _apply(mat, ops, data.draw(st.booleans()))
    assert intlat.hermite_normal_form(moved) == intlat.hermite_normal_form(mat)


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_saturate_index_equals_lattice_index(lattice_index, reference_smith_normal_form, rows):
    basis, null = intlat.saturate(rows)
    nonzero = [r for r in rows if any(r)]
    index = lattice_index(basis, nonzero)
    if not nonzero:
        assert (basis, index) == ((), 1)
        return
    assert index == _torsion(reference_smith_normal_form, nonzero)
    # the saturation contains every row, and saturating it again changes
    # nothing: Z^n modulo it has no torsion
    assert all(_in_lattice(basis, r) for r in nonzero)
    assert (intlat.saturate(basis)[0], _torsion(reference_smith_normal_form, basis)) == (basis, 1)
    # n - r null vectors; an integer vector lies in the span exactly when
    # it is orthogonal to all of them
    n = len(rows[0])
    assert len(null) == n - len(basis) == len(intlat.hermite_normal_form(null))
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    for vec in [*rows, *units, [sum(col) for col in zip(*rows)]]:
        orthogonal = not any(sum(x * k for x, k in zip(vec, kv)) for kv in null)
        assert _in_lattice(basis, vec) == orthogonal


def _vectors(n):
    return st.lists(_entries, min_size=n, max_size=n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_residue_is_canonical(coords_solver, data):
    basis = intlat.hermite_normal_form(data.draw(_matrices()))
    if not basis:
        return
    vec = data.draw(_vectors(len(basis[0])))
    res = intlat.residue(basis, vec)
    # each pivot entry is reduced into [0, pivot)
    for row in basis:
        c = next(j for j, x in enumerate(row) if x)
        assert 0 <= res[c] < row[c]
    # vec - res lies in the lattice, and adding a lattice vector to vec
    # leaves the residue unchanged
    assert coords_solver(basis)([v - r for v, r in zip(vec, res)]) is not None
    coeffs = data.draw(_vectors(len(basis)))
    shifted = [v + sum(k * row[j] for k, row in zip(coeffs, basis)) for j, v in enumerate(vec)]
    assert intlat.residue(basis, shifted) == res


@settings(max_examples=60, deadline=None)
@given(_matrices(), st.lists(_entries, min_size=4, max_size=4))
def test_lattice_coords_round_trip(coords_solver, basis, coeffs):
    n = len(basis[0])
    x = coeffs[: len(basis)]
    vec = [sum(c * row[j] for c, row in zip(x, basis)) for j in range(n)]
    solve = coords_solver(basis)
    found = solve(vec)
    assert found is not None
    assert [sum(c * row[j] for c, row in zip(found, basis)) for j in range(n)] == vec
    # a vector one unit off a lattice vector is in the lattice exactly
    # when the unit vector is
    shifted = vec[:-1] + [vec[-1] + 1]
    unit = [0] * (n - 1) + [1]
    assert (solve(shifted) is None) == (solve(unit) is None)
    hnf = intlat.hermite_normal_form(basis)
    assert _in_lattice(hnf, shifted) == (solve(shifted) is not None)


# -- differential tests against the Smith-form routines the Hermite form replaced --


@st.composite
def _row_sets(draw):
    """0-5 rows of width 1-6, entries -4..4; a row may be zero or +-1 times an earlier row."""
    n = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        kind = draw(st.sampled_from(["free", "zero", "dependent"]))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "dependent" and rows:
            sign = draw(st.sampled_from([-1, 1]))
            rows.append([sign * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n)))
    return rows


@settings(max_examples=200, deadline=None)
@given(_row_sets())
def test_saturate_equals_the_smith_form_reference(reference_saturate, rows):
    basis, null = intlat.saturate(rows)
    ref_basis, _, ref_null = reference_saturate(rows)
    assert basis == ref_basis
    assert null == intlat.hermite_normal_form(null) == intlat.hermite_normal_form(ref_null)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_coords_solver_agrees_with_the_smith_form_reference(coords_solver, reference_coords_solver, data):
    basis = data.draw(_row_sets())
    n = len(basis[0]) if basis else data.draw(st.integers(min_value=1, max_value=4))
    coeffs = data.draw(_vectors(len(basis)))
    on_lattice = [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(n)]
    solve, ref = coords_solver(basis), reference_coords_solver(basis)
    for vec in (on_lattice, data.draw(_vectors(n))):
        x = solve(vec)
        assert (x is None) == (ref(vec) is None)
        if x is not None:
            assert [sum(c * row[j] for c, row in zip(x, basis)) for j in range(n)] == vec


# -- differential test against the first-nonzero-pivot Hermite form the least-entry Euclid replaced --


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hnf_equals_the_first_pivot_reference(reference_hermite_normal_form, data):
    # Entries stay small: the reference's Euclid loop takes minutes on 12 x 9 matrices of entries up to 1000.
    m = data.draw(st.integers(min_value=1, max_value=10))
    n = data.draw(st.integers(min_value=1, max_value=8))
    entries = st.integers(min_value=-5, max_value=5)
    rows = [data.draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=3))  # the same row objects again
    assert intlat.hermite_normal_form(rows) == reference_hermite_normal_form(rows)
