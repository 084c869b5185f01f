"""The Weyl group as a permutation group on the full root set.

Elements are tuples of root-index images (positives first, then their
negatives), composed as functions: compose(a, b)[x] = a[b[x]].  The
linear action on simple-coroot coordinates is derived on demand for
torus points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .rootsys import RootSystem, type_invariants

Perm = tuple[int, ...]


def compose(a: Perm, b: Perm) -> Perm:
    return tuple(a[x] for x in b)


class WeylGroup:
    """Weyl group of a root system, generated by the simple reflections."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.order = type_invariants(rs.factors).weyl_order
        n2 = len(rs.all_roots)
        self.identity: Perm = tuple(range(n2))
        self.gens = rs.reflection_perms
        self._simple_idx = tuple(rs.root_index[tuple(int(i == j) for j in range(rs.rank))]
                                 for i in range(rs.rank))
        self._coroot_table = tuple(rs.coroot_coords(r) for r in rs.all_roots)

    def is_positive_image(self, w: Perm, i: int) -> bool:
        """Whether w sends the i-th simple root to a positive root."""
        return w[self._simple_idx[i]] < self.rs.n_positive

    def coroot_matrix(self, w: Perm) -> tuple[tuple[int, ...], ...]:
        """Matrix of w on simple-coroot coordinates (columns = images)."""
        n = self.rs.rank
        cols = [self._coroot_table[w[self._simple_idx[k]]] for k in range(n)]
        return tuple(tuple(cols[k][i] for k in range(n)) for i in range(n))


def longest_element(group: WeylGroup, p: Optional[int] = None) -> Perm:
    """Longest element of W, or of the parabolic omitting vertex p (1-based).

    Built by greedy length ascent (w -> w s_i whenever w.alpha_i > 0), which
    needs no group enumeration.
    """
    skip = None if p is None else p - 1
    if skip is not None and not 0 <= skip < group.rs.rank:
        raise IndexError(f"parabolic vertex {p} out of range")
    w = group.identity
    while True:
        for i in range(group.rs.rank):
            if i != skip and group.is_positive_image(w, i):
                w = compose(w, group.gens[i])
                break
        else:
            return w


@dataclass(frozen=True)
class CenterElement:
    """One element of the Iwahori-Matsumoto subgroup W_Z.

    `vertex` is the affine vertex p the element sends vertex 0 to (the
    identity carries vertex 0); `diagram_perm` is the induced permutation
    of the affine vertices 0..n.
    """

    vertex: int
    perm: Perm
    diagram_perm: tuple[int, ...]


def center_subgroup(group: WeylGroup) -> tuple[CenterElement, ...]:
    """W_Z = {1} u {w_0^p w_0 : a_p = 1}, with induced diagram action.

    Verifies z_p . alpha_0 = alpha_p on construction.
    """
    rs = group.rs
    if not rs.is_irreducible:
        raise ValueError("W_Z is defined per irreducible factor")
    marks = rs.marks
    n = rs.rank
    theta = rs.highest_roots[0]
    lowest_idx = rs.root_index[tuple(-x for x in theta)]
    extended_idx = [lowest_idx] + [
        rs.root_index[tuple(int(i == j) for j in range(n))] for i in range(n)
    ]
    w0 = longest_element(group)
    out = [CenterElement(0, group.identity, tuple(range(n + 1)))]
    for p in range(1, n + 1):
        if marks[p] != 1:
            continue
        z = compose(longest_element(group, p), w0)
        if z[lowest_idx] != extended_idx[p]:
            raise AssertionError(f"z_{p}.alpha_0 != alpha_{p}")
        images = []
        for q in range(n + 1):
            img = z[extended_idx[q]]
            if img not in extended_idx:
                raise AssertionError("z_p does not permute the extended simple roots")
            images.append(extended_idx.index(img))
        out.append(CenterElement(p, z, tuple(images)))
    return tuple(out)
