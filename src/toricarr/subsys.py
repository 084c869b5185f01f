"""Subsystems of a root system: completion, enumeration, classification.

A subsystem is a subset closed under negation and under addition of roots
(when the sum is a root).  A complete subsystem equals the intersection of
its rational span with the ambient system; complete subsystems of rank
n - d are in bijection with the d-dimensional spaces of the linear
arrangement, which is what makes them enumerable by rational spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from . import intlat
from .errors import CapabilityError
from .rootsys import RootSystem, TypeSymbol, classify_dynkin, format_type
from .weyl import WeylGroup, compose


@dataclass(frozen=True)
class Subsystem:
    """A closed subsystem, stored as sorted indices into rs.all_roots."""

    roots: tuple[int, ...]
    rank: int
    complete: bool
    span_basis: tuple[tuple[int, ...], ...]  # canonical HNF basis of the saturated span
    type: tuple[TypeSymbol, ...]
    simples: tuple[int, ...]  # indices of the simple system (positive part)

    @property
    def key(self) -> frozenset:
        return frozenset(self.roots)

    def __str__(self):
        return format_type(self.type)


def _closure_check(rs: RootSystem, indices: Iterable[int]) -> None:
    idx = set(indices)
    for i in idx:
        neg = rs.root_index[tuple(-x for x in rs.all_roots[i])]
        if neg not in idx:
            raise ValueError("subsystem not closed under negation")
    coords = [rs.all_roots[i] for i in idx]
    have = set(coords)
    for a in coords:
        for b in coords:
            s = tuple(x + y for x, y in zip(a, b))
            if s in rs.root_index and s not in have:
                raise ValueError("subsystem not closed under root addition")


def simple_system(rs: RootSystem, positive_indices: Sequence[int]) -> tuple[int, ...]:
    """Indecomposable elements of the positive part of a closed subsystem."""
    pos = sorted(positive_indices)
    coords = {i: rs.all_roots[i] for i in pos}
    sums = set()
    vecs = set(coords.values())
    for a in coords.values():
        for b in coords.values():
            s = tuple(x + y for x, y in zip(a, b))
            if s in vecs:
                sums.add(s)
    return tuple(i for i in pos if coords[i] not in sums)


def make_subsystem(
    rs: RootSystem, positive_indices: Iterable[int], *, check: bool = False
) -> Subsystem:
    """Assemble a Subsystem from the indices of its positive roots."""
    pos = tuple(sorted(positive_indices))
    if check:
        full = list(pos) + [rs.root_index[tuple(-x for x in rs.all_roots[i])] for i in pos]
        _closure_check(rs, full)
    neg = tuple(rs.root_index[tuple(-x for x in rs.all_roots[i])] for i in pos)
    roots = tuple(sorted(pos + neg))
    if not pos:
        return Subsystem(roots=(), rank=0, complete=True, span_basis=(), type=(), simples=())
    basis, _ = intlat.saturate([rs.all_roots[i] for i in pos])
    rank = len(basis)
    simples = simple_system(rs, pos)
    labels = {}
    simple_coords = [rs.all_roots[i] for i in simples]
    for a in range(len(simples)):
        for b in range(a + 1, len(simples)):
            pab = abs(rs.pair_roots(simple_coords[a], simple_coords[b]))
            pba = abs(rs.pair_roots(simple_coords[b], simple_coords[a]))
            if pab:
                labels[(simples[a], simples[b])] = (pab, pba)
    stype = classify_dynkin(simples, labels)
    complete = len(_positives_in_span(rs, basis)) == len(pos)
    return Subsystem(
        roots=roots, rank=rank, complete=complete,
        span_basis=basis, type=stype, simples=simples,
    )


def _positives_in_span(rs: RootSystem, basis: Sequence[Sequence[int]]) -> list[int]:
    """Positive roots in the rational span of a saturated HNF basis."""
    return [i for i in range(rs.n_positive) if intlat.in_lattice(basis, rs.all_roots[i])]


def completion(rs: RootSystem, root_indices: Iterable[int]) -> Subsystem:
    """Smallest complete subsystem containing the given roots."""
    coords = [rs.all_roots[i] for i in root_indices]
    if not coords:
        return make_subsystem(rs, ())
    basis, _ = intlat.saturate(coords)
    return make_subsystem(rs, _positives_in_span(rs, basis))


def decompose_type(rs: RootSystem, sub: Subsystem | Iterable[int]) -> tuple[TypeSymbol, ...]:
    """Irreducible type decomposition of a closed subsystem."""
    if isinstance(sub, Subsystem):
        return sub.type
    idx = list(sub)
    _closure_check(rs, idx)
    pos = [i for i in idx if i < rs.n_positive]
    return make_subsystem(rs, pos).type


@dataclass(frozen=True)
class CompleteFamily:
    """All complete subsystems of a fixed rank (the set K_d)."""

    d: int
    members: tuple[Subsystem, ...]


def _check_enumerable(rs: RootSystem, allow_e6: bool) -> None:
    if rs.rank <= 4:
        return
    if all(sym.family == "A" for sym in rs.factors) and rs.rank <= 7:
        return
    if rs.factors == (TypeSymbol("E", 6),) and allow_e6:
        return
    raise CapabilityError(
        f"K_d enumeration for {format_type(rs.factors)} exceeds the default "
        "capability (rank <= 4, or A-series products of rank <= 7; "
        "E6 requires allow_e6=True)"
    )


@lru_cache(maxsize=None)
def _span_levels(rs: RootSystem) -> tuple[dict, ...]:
    """Rational spans of root subsets, one dict {basis: positives} per rank.

    Level r maps the canonical HNF basis of each rank-r span to the sorted
    tuple of positive-root indices it contains.
    """
    levels: list[dict[tuple, tuple[int, ...]]] = [{(): ()}]
    for _ in range(rs.rank):
        nxt: dict[tuple, tuple[int, ...]] = {}
        for basis, members in levels[-1].items():
            member_set = set(members)
            for j in range(rs.n_positive):
                if j in member_set:
                    continue
                new_basis, _ = intlat.saturate(list(basis) + [rs.all_roots[j]])
                if new_basis in nxt:
                    continue
                nxt[new_basis] = tuple(_positives_in_span(rs, new_basis))
        levels.append(nxt)
    return tuple(levels)


def enumerate_complete(rs: RootSystem, d: int, *, allow_e6: bool = False) -> CompleteFamily:
    """The family K_d: complete subsystems of rank n - d.

    Enumerates saturated rational spans of independent subsets of positive
    roots, growing rank one root at a time and deduplicating spans by their
    canonical HNF basis.
    """
    if not 0 <= d <= rs.rank:
        raise ValueError(f"dimension {d} out of range for rank {rs.rank}")
    _check_enumerable(rs, allow_e6)
    target = rs.rank - d
    level = _span_levels(rs)[target]
    members = tuple(make_subsystem(rs, pos) for basis, pos in sorted(level.items()))
    return CompleteFamily(d=d, members=members)


@dataclass(frozen=True)
class OrbitClass:
    """One W-orbit inside a CompleteFamily."""

    representative: Subsystem
    members: tuple[Subsystem, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def w_orbit_census(
    rs: RootSystem, family: CompleteFamily, group: WeylGroup
) -> tuple[OrbitClass, ...]:
    """Partition of a family into W-orbits (representative = lex-minimal)."""
    by_key = {m.key: m for m in family.members}
    seen: set[frozenset] = set()
    orbits = []
    for member in family.members:
        if member.key in seen:
            continue
        orbit_keys = {member.key}
        queue = [member.key]
        while queue:
            k = queue.pop()
            for g in group.gens:
                img = frozenset(g[i] for i in k)
                if img not in orbit_keys:
                    if img not in by_key:
                        raise AssertionError("W-image left the complete family")
                    orbit_keys.add(img)
                    queue.append(img)
        seen |= orbit_keys
        members = tuple(sorted((by_key[k] for k in orbit_keys), key=lambda s: s.roots))
        orbits.append(OrbitClass(representative=members[0], members=members))
    orbits.sort(key=lambda o: o.representative.roots)
    return tuple(orbits)
