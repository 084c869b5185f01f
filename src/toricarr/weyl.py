"""The Weyl group as a permutation group on the full root set.

Elements are tuples of root-index images (positives first, then their
negatives), composed as functions: compose(a, b)[x] = a[b[x]].  The
simple reflections are the root system's `reflection_perms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .rootsys import RootSystem

Perm = tuple[int, ...]


def compose(a: Perm, b: Perm) -> Perm:
    return tuple(a[x] for x in b)


def longest_element(rs: RootSystem, p: Optional[int] = None) -> Perm:
    """Longest element of W, or of the parabolic omitting vertex p (1-based).

    Built by greedy length ascent (w -> w s_i whenever w.alpha_i > 0), which
    needs no group enumeration.
    """
    skip = None if p is None else p - 1
    if skip is not None and not 0 <= skip < rs.rank:
        raise IndexError(f"parabolic vertex {p} out of range")
    w = tuple(range(len(rs.all_roots)))
    while True:
        for i in range(rs.rank):
            if i != skip and w[rs.simple_indices[i]] < rs.n_positive:
                w = compose(w, rs.reflection_perms[i])
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


def center_subgroup(rs: RootSystem) -> tuple[CenterElement, ...]:
    """W_Z = {1} u {w_0^p w_0 : a_p = 1}, with induced diagram action.

    Verifies z_p . alpha_0 = alpha_p on construction.  The highest root
    theta, and with it the marks (1, theta), is the closure's own: its last
    positive root by height.
    """
    if not rs.is_irreducible:
        raise ValueError("W_Z is defined per irreducible factor")
    n = rs.rank
    theta = rs.positive_roots[-1]
    marks = (1,) + theta
    lowest_idx = rs.root_index[tuple(-x for x in theta)]
    extended_idx = (lowest_idx,) + rs.simple_indices
    w0 = longest_element(rs)
    out = [CenterElement(0, tuple(range(len(rs.all_roots))), tuple(range(n + 1)))]
    for p in range(1, n + 1):
        if marks[p] != 1:
            continue
        z = compose(longest_element(rs, p), w0)
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
