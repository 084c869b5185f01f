"""Weyl group elements as integer matrices in the simple-root basis.

An element w is the matrix whose columns are w(alpha_1), .., w(alpha_n), so
it sends a root with simple-root coordinates m to the product w m.  The
Cartan matrix alone builds it: no root closure is needed.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Sequence

from .rootsys import TypeSymbol, type_data

Matrix = tuple[tuple[int, ...], ...]


def _apply(w: Matrix, root: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, root)) for row in w)


def longest_element(cartan: Sequence[Sequence[int]], J: Iterable[int]) -> Matrix:
    """Longest element of the parabolic <s_j : j in J> (0-based simple indices).

    Built by greedy length ascent (w -> w s_j whenever w.alpha_j > 0), which
    needs no group enumeration.  As (w s_j).alpha_i = w.alpha_i -
    <alpha_i, alpha_j^vee> w.alpha_j, a step changes only column j and the
    columns of j's diagram neighbours.
    """
    n = len(cartan)
    J = sorted(set(J))
    if J and not 0 <= J[0] <= J[-1] < n:
        raise IndexError(f"simple indices {J} out of range for rank {n}")
    cols = [[int(i == k) for k in range(n)] for i in range(n)]
    moved = {j: [i for i in range(n) if cartan[j][i]] for j in J}
    while True:
        for j in J:
            wj = cols[j]
            if max(wj) > 0:  # a root is positive when any coordinate is
                for i in moved[j]:
                    cols[i] = [x - cartan[j][i] * y for x, y in zip(cols[i], wj)]
                break
        else:
            return tuple(zip(*cols))


def center_subgroup(sym: TypeSymbol) -> tuple[tuple[int, ...], ...]:
    """W_Z = {1} u {w_0^p w_0 : a_p = 1}, each element as its permutation of the affine vertices 0..n.

    w_0^p is the longest element of the parabolic omitting vertex p.  The
    identity comes first, and z_p = w_0^p w_0 sends vertex 0 to p.  The
    Cartan matrix and the marks (1, theta) come from the type's record;
    construction verifies z_p.alpha_0 = alpha_p and that z_p permutes the
    extended simple roots -theta, alpha_1, .., alpha_n.
    """
    n = sym.rank
    data = type_data(sym)
    cartan, theta = data.cartan, data.diagram.marks[1:]
    units = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    extended = (tuple(-t for t in theta),) + units
    w0 = longest_element(cartan, range(n))
    out = [tuple(range(n + 1))]
    for p, mark in enumerate(theta, 1):
        if mark != 1:
            continue
        w0p = longest_element(cartan, (j for j in range(n) if j != p - 1))
        columns = [_apply(w0p, col) for col in zip(*w0)]
        z = tuple(zip(*columns))
        images = [_apply(z, extended[0])] + columns
        if images[0] != extended[p]:
            raise AssertionError(f"z_{p}.alpha_0 != alpha_{p}")
        if not set(images) <= set(extended):
            raise AssertionError("z_p does not permute the extended simple roots")
        out.append(tuple(map(extended.index, images)))
    return tuple(out)
