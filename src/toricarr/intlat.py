"""Exact integer-lattice linear algebra on one elimination routine.

The Hermite normal form over Python ints (arbitrary precision) is the only
elimination.  Kernels, saturations, residues, coordinates and indices are
read off it: the kernel and the image of a matrix come from one HNF of the
matrix augmented by an identity (Cohen, A Course in Computational
Algebraic Number Theory, 1993, section 2.4.3).  Every routine is
fraction-free: the only divisions are the reductions of the normal form.
No floating point anywhere.
"""

from __future__ import annotations

from math import prod
from typing import Callable, Optional, Sequence

IntMatrix = Sequence[Sequence[int]]


def hermite_normal_form(rows: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Canonical (row-style) HNF basis of the row lattice, zero rows dropped.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot); the result is the unique canonical basis of the lattice.
    """
    a = [list(map(int, row)) for row in rows if any(row)]
    if not a:
        return ()
    n = len(a[0])
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, len(a)):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        # Euclid on the remaining rows of this column.
        while True:
            nz = [i for i in range(r + 1, len(a)) if a[i][c]]
            if not nz:
                break
            for i in nz:
                q = a[i][c] // a[r][c]
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                if a[i][c]:
                    a[r], a[i] = a[i], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
    return tuple(tuple(row) for row in a[:r])


def _with_identity(rows: IntMatrix) -> list[list[int]]:
    """[rows | I]: each row followed by its unit vector, which records the row operations."""
    return [[*row, *(int(i == j) for j in range(len(rows)))] for i, row in enumerate(rows)]


def kernel(rows: IntMatrix, n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical HNF basis of the integer vectors y in Z^n with rows @ y == 0.

    The rows of the HNF of [rows^T | I_n] are (rows @ y, y) for integer
    vectors y.  It is echelon, so the rows whose first len(rows) entries
    vanish span the kernel, and their last n entries are already in
    Hermite normal form: each pivot reduced every row above it.
    """
    r = len(rows)
    hnf = hermite_normal_form(_with_identity([[row[j] for row in rows] for j in range(n)]))
    return tuple(row[r:] for row in hnf if not any(row[:r]))


def saturate(
    rows: IntMatrix,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Saturation of the row lattice inside Z^n, with its null vectors.

    Returns (canonical HNF basis of span_Q(rows) ∩ Z^n, n - r vectors
    spanning the integer vectors orthogonal to every row).  An integer
    vector lies in the span exactly when it is orthogonal to every null
    vector, so the saturation is the kernel of the null vectors.
    """
    n = len(rows[0]) if rows else 0
    null_vectors = kernel(rows, n)
    return kernel(null_vectors, n), null_vectors


def residue(basis: IntMatrix, vec: Sequence[int]) -> tuple[int, ...]:
    """Canonical residue of `vec` modulo the row lattice of an HNF `basis`.

    `basis` must be in Hermite normal form (as hermite_normal_form returns
    it): `vec` is reduced against the pivots in order, each pivot entry into
    [0, pivot), with no solve.  Two vectors have equal residues exactly
    when their difference lies in the lattice.
    """
    v = list(vec)
    for row in basis:
        c = next(j for j, x in enumerate(row) if x)
        q = v[c] // row[c]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return tuple(v)


def _coords_solver(
    basis: IntMatrix,
) -> Callable[[Sequence[int]], Optional[tuple[int, ...]]]:
    """A solver for integer x with x @ basis == vec, None when vec is not in the lattice.

    The HNF of [basis | I_k] is computed once; its rows are (x @ basis, x).
    The residue of (vec, 0) is (vec, 0) - (x @ basis, x) for some integer
    x, so vec is in the lattice exactly when its first n entries are zero,
    and then x is the negated rest.
    """
    hnf = hermite_normal_form(_with_identity(basis))

    def solve(vec: Sequence[int]) -> Optional[tuple[int, ...]]:
        rest = residue(hnf, [*vec, *(0 for _ in basis)])
        if any(rest[:len(vec)]):
            return None
        return tuple(-x for x in rest[len(vec):])

    return solve


def index_in_zk(rows: IntMatrix, k: int) -> int:
    """[Z^k : L] for the row lattice L of `rows`: the product of its HNF pivots.

    L must have rank k, so that its HNF is square and the pivots are its diagonal.
    """
    basis = hermite_normal_form(rows)
    if len(basis) != k:
        raise AssertionError(f"a lattice of rank {len(basis)} in Z^{k}")
    return prod(row[i] for i, row in enumerate(basis))
