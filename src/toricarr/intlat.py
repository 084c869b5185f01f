"""Exact integer-lattice linear algebra on one elimination routine.

The Hermite normal form over Python ints (arbitrary precision) is the only
elimination.  Kernels, saturations, residues and indices are read off
it: the kernel and the image of a matrix come from one HNF of the
matrix augmented by an identity (Cohen, A Course in Computational
Algebraic Number Theory, 1993, section 2.4.3).  Every routine is
fraction-free: the only divisions are the reductions of the normal form.
No floating point anywhere.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

IntMatrix = Sequence[Sequence[int]]


def hermite_normal_form(rows: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Canonical (row-style) HNF basis of the row lattice, zero rows dropped.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot); the result is the unique canonical basis of the lattice.
    In each column, Euclid reduces the rows nonzero there by the one of
    least absolute entry until one is left, the pivot row; rows that
    vanish are dropped, and the work stops once no row is left.
    """
    rest = [list(row) for row in rows if any(row)]
    basis: list[list[int]] = []
    for c in range(len(rest[0]) if rest else 0):
        active, others = [], []
        for row in rest:
            (active if row[c] else others).append(row)
        if not active:
            continue
        while len(active) > 1:
            piv, p = active[0], abs(active[0][c])
            for row in active:
                if abs(row[c]) < p:
                    piv, p = row, abs(row[c])
            nxt = [piv]
            for row in active:
                if row is not piv:
                    q = row[c] // piv[c]
                    row = [x - q * y for x, y in zip(row, piv)]
                    if row[c]:
                        nxt.append(row)
                    elif any(row):
                        others.append(row)
            active = nxt
        piv = active[0] if active[0][c] > 0 else [-x for x in active[0]]
        for i, row in enumerate(basis):
            q = row[c] // piv[c]
            if q:
                basis[i] = [x - q * y for x, y in zip(row, piv)]
        basis.append(piv)
        rest = others
        if not rest:
            break
    return tuple(map(tuple, basis))


def graph_hnf(rows: IntMatrix, n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical HNF of [rows^T | I_n], whose rows are (rows @ y, y) for y in Z^n."""
    return hermite_normal_form([[*(row[j] for row in rows), *(int(i == j) for i in range(n))] for j in range(n)])


def kernel(rows: IntMatrix, n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical HNF basis of the integer vectors y in Z^n with rows @ y == 0.

    The rows of graph_hnf(rows, n) are (rows @ y, y).  It is echelon, so the
    rows whose first len(rows) entries vanish span the kernel, and their
    last n entries are already in Hermite normal form: each pivot reduced
    every row above it.
    """
    r = len(rows)
    return tuple(row[r:] for row in graph_hnf(rows, n) if not any(row[:r]))


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
    c = 0
    for row in basis:
        while not row[c]:  # the pivot columns increase down the rows
            c += 1
        q = v[c] // row[c]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return tuple(v)


def index_in_zk(rows: IntMatrix, k: int) -> int:
    """[Z^k : L] for the row lattice L of `rows`: the product of its HNF pivots.

    L must have rank k, so that its HNF is square and the pivots are its diagonal.
    """
    basis = hermite_normal_form(rows)
    if len(basis) != k:
        raise AssertionError(f"a lattice of rank {len(basis)} in Z^{k}")
    return prod(row[i] for i, row in enumerate(basis))
