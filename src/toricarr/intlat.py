"""Exact integer-lattice linear algebra.

Smith normal form and Hermite normal form over Python ints (arbitrary
precision), and saturation, residues and coordinates built on them.  Every routine is fraction-free: the only divisions are
exact ones that the normal forms guarantee.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import mul
from typing import Callable, Optional, Sequence

IntMatrix = Sequence[Sequence[int]]


def identity_matrix(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class SmithDecomposition:
    """left @ matrix @ right == diagonal, with left/right unimodular."""

    left: tuple[tuple[int, ...], ...]
    diagonal: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]

    @property
    def divisors(self) -> tuple[int, ...]:
        """The nonzero elementary divisors d_1 | d_2 | ..."""
        out = []
        for i, row in enumerate(self.diagonal):
            if i < len(row) and row[i]:
                out.append(row[i])
        return tuple(out)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with x*a + y*b == g == gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def smith_normal_form(mat: IntMatrix) -> SmithDecomposition:
    """Smith normal form with exact unimodular transforms.

    Pivots are chosen by minimal absolute value with a deterministic
    tie-break (lowest row, then lowest column), so identical inputs give
    identical decompositions.
    """
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    left = identity_matrix(m)
    right = identity_matrix(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + c * y for x, y in zip(left[dst], left[src])]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in right:
            row[dst] += c * row[src]

    t = 0
    while t < min(m, n):
        exhausted = False
        while True:
            # Re-select the minimal-magnitude pivot of the trailing submatrix
            # on every round; this keeps intermediate entries small.
            best = None
            pivot = None
            for i in range(t, m):
                for j in range(t, n):
                    v = abs(a[i][j])
                    if v and (best is None or v < best):
                        best, pivot = v, (i, j)
            if pivot is None:
                exhausted = True
                break
            if pivot[0] != t:
                swap_rows(t, pivot[0])
            if pivot[1] != t:
                swap_cols(t, pivot[1])
            clean = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        add_row(i, t, -q)
                    if a[i][t]:
                        clean = False
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        add_col(j, t, -q)
                    if a[t][j]:
                        clean = False
            if clean:
                break
        if exhausted:
            break
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            left[i] = [-x for x in left[i]]

    # Enforce the divisibility chain d_i | d_j (i < j) via 2x2 unimodular
    # transforms that replace (d_i, d_j) by (gcd, lcm).
    def rows_2x2(mat, i, j, u):
        ri, rj = mat[i], mat[j]
        mat[i] = [u[0][0] * p + u[0][1] * q for p, q in zip(ri, rj)]
        mat[j] = [u[1][0] * p + u[1][1] * q for p, q in zip(ri, rj)]

    def cols_2x2(mat, i, j, v):
        for row in mat:
            ci, cj = row[i], row[j]
            row[i] = ci * v[0][0] + cj * v[1][0]
            row[j] = ci * v[0][1] + cj * v[1][1]

    r = sum(1 for i in range(min(m, n)) if a[i][i])
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            for j in range(i + 1, r):
                di, dj = a[i][i], a[j][j]
                if dj % di == 0:
                    continue
                g, x, y = _xgcd(di, dj)
                lcm = di // g * dj
                u = ((x, y), (-dj // g, di // g))
                v = ((1, -y * dj // g), (1, x * di // g))
                rows_2x2(a, i, j, u)
                rows_2x2(left, i, j, u)
                cols_2x2(a, i, j, v)
                cols_2x2(right, i, j, v)
                if (a[i][i], a[j][j]) != (g, lcm):
                    raise AssertionError("2x2 transform broke the divisibility chain")
                changed = True
    return SmithDecomposition(
        left=tuple(tuple(row) for row in left),
        diagonal=tuple(tuple(row) for row in a),
        right=tuple(tuple(row) for row in right),
    )


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


def saturate(
    rows: IntMatrix,
) -> tuple[tuple[tuple[int, ...], ...], int, tuple[tuple[int, ...], ...]]:
    """Saturation of the row lattice inside Z^n, with its null vectors.

    Returns (canonical HNF basis of span_Q(rows) ∩ Z^n, index of the row
    lattice inside its saturation, n - r vectors spanning the integer
    vectors orthogonal to every row).  An integer vector lies in the span
    exactly when it is orthogonal to every null vector.
    """
    n = len(rows[0]) if rows else 0
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return (), 1, tuple(map(tuple, identity_matrix(n)))
    snf = smith_normal_form(rows)
    cols = list(zip(*rows))
    # left @ rows = diagonal @ right^-1, so row i of left @ rows, divided
    # exactly by d_i, is row i of right^-1.  The first r rows of right^-1
    # are part of a basis of Z^n and span the saturation; the last n - r
    # columns of right span the null space of the rows.
    inverse_rows = [
        [sum(x * y for x, y in zip(snf.left[i], col)) // d for col in cols]
        for i, d in enumerate(snf.divisors)
    ]
    null_vectors = tuple(zip(*snf.right))[len(inverse_rows):]
    return hermite_normal_form(inverse_rows), prod(snf.divisors), null_vectors


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

    The Smith form of the basis is computed once.  From left @ basis @
    right = diagonal and w = vec @ right, a solution needs w_j = 0 beyond
    the rank and d_i | w_i; then x = (w_i / d_i) @ left, with the
    coefficients of dependent rows set to 0.
    """
    if not basis:
        return lambda vec: () if not any(vec) else None
    snf = smith_normal_form(basis)
    divisors = snf.divisors
    right_cols = list(zip(*snf.right))
    left_cols = list(zip(*snf.left))

    def solve(vec: Sequence[int]) -> Optional[tuple[int, ...]]:
        w = [sum(map(mul, vec, col)) for col in right_cols]
        if any(w[len(divisors):]):
            return None
        y = []
        for wi, d in zip(w, divisors):
            q, r = divmod(wi, d)
            if r:
                return None
            y.append(q)
        return tuple(sum(map(mul, y, col)) for col in left_cols)

    return solve
