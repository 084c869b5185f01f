"""Subsystems of a root system: assembly, enumeration, classification.

A subsystem is a subset closed under negation and under addition of roots
(when the sum is a root).  A complete subsystem equals the intersection of
its rational span with the ambient system; complete subsystems of rank
n - d are in bijection with the d-dimensional spaces of the linear
arrangement, which is what makes them enumerable by rational spans.
Their W-orbits are classified from the standard parabolic flats alone, by a
walk whose carried simple systems stay positive (Humphreys, Reflection Groups
and Coxeter Groups, 1990, Prop. 1.4) and saturated, as W is unimodular.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import Iterable, Sequence

from . import intlat
from .errors import require_work
from .rootsys import RootSystem, TypeSymbol, classify_dynkin, format_type, type_invariants


@dataclass(frozen=True)
class Subsystem:
    """A closed subsystem, stored as sorted indices into rs.all_roots."""

    roots: tuple[int, ...]
    rank: int
    complete: bool
    span_basis: tuple[tuple[int, ...], ...]  # canonical HNF basis of the saturated span
    type: tuple[TypeSymbol, ...]
    simples: tuple[int, ...]  # indices of the simple system (positive part)
    cartan: tuple[tuple[int, ...], ...]  # Cartan matrix of the simples, in their order


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


def make_subsystem(rs: RootSystem, positive_indices: Iterable[int]) -> Subsystem:
    """Assemble a Subsystem from the indices of its positive roots."""
    pos = tuple(sorted(positive_indices))
    if not pos:
        return _assemble(rs, pos, (), complete=True)
    basis, null_vectors = intlat.saturate([rs.all_roots[i] for i in pos])
    complete = len(_positives_in_span(rs, null_vectors)) == len(pos)
    return _assemble(rs, pos, basis, complete)


def _assemble(
    rs: RootSystem, pos: tuple[int, ...], basis: tuple[tuple[int, ...], ...], complete: bool
) -> Subsystem:
    """The Subsystem on sorted positive indices whose span has the canonical HNF `basis`."""
    simples = simple_system(rs, pos)
    coords = [rs.all_roots[i] for i in simples]
    cartan = tuple(tuple(rs.pair_roots(b, a) for b in coords) for a in coords)
    return Subsystem(
        roots=pos + tuple(i + rs.n_positive for i in pos), rank=len(basis), complete=complete,
        span_basis=basis, type=classify_dynkin(cartan), simples=simples, cartan=cartan,
    )


def _positives_in_span(rs: RootSystem, null_vectors: Sequence[Sequence[int]]) -> list[int]:
    """Positive roots in a rational span: those orthogonal to its null vectors (saturate's)."""
    inside = list(range(rs.n_positive))
    for k in null_vectors:
        inside = [i for i in inside if not sum(map(mul, rs.positive_roots[i], k))]
    return inside


@dataclass(frozen=True)
class CompleteFamily:
    """All complete subsystems of a fixed rank (the set K_d)."""

    d: int
    members: tuple[Subsystem, ...]


@lru_cache(maxsize=None)
def _span_levels(rs: RootSystem, top: int) -> tuple[dict, ...]:
    """Rational spans of root subsets, one dict {basis: positives} per rank 0..top.

    Level r maps the canonical HNF basis of each rank-r span to the sorted
    tuple of positive-root indices it contains.  Level r + 1 extends each
    rank-r span by one root at a time; roots already in a flat found from
    that span give the same flat again, so they are skipped unsaturated.
    """
    if top == 0:
        return ({(): ()},)
    levels = _span_levels(rs, top - 1)
    nxt: dict[tuple, tuple[int, ...]] = {}
    for basis, members in levels[-1].items():
        covered = set(members)
        for j in range(rs.n_positive):
            if j in covered:
                continue
            new_basis, null_vectors = intlat.saturate(list(basis) + [rs.all_roots[j]])
            if new_basis not in nxt:
                nxt[new_basis] = tuple(_positives_in_span(rs, null_vectors))
            covered.update(nxt[new_basis])
    return levels + (nxt,)


def enumerate_complete(rs: RootSystem, d: int) -> CompleteFamily:
    """The family K_d: complete subsystems of rank n - d.

    Enumerates saturated rational spans of independent subsets of positive
    roots, growing rank one root at a time and deduplicating spans by their
    canonical HNF basis.  Only build_poset and the tests use this span
    route; the census and verify work from parabolic_classes.  Each span is
    saturated at most once per positive root, and there are at most |W|
    flats (see parabolic_classes), so the work is refused above |W| x n_positive.
    """
    if not 0 <= d <= rs.rank:
        raise ValueError(f"dimension {d} out of range for rank {rs.rank}")
    require_work(
        f"span enumeration of {format_type(rs.factors)}: |W| x {rs.n_positive}",
        type_invariants(rs.factors).weyl_order * rs.n_positive,
    )
    target = rs.rank - d
    level = _span_levels(rs, target)[target]
    # Each span holds every positive root in it, so it is complete; its basis is already canonical.
    members = tuple(_assemble(rs, pos, basis, complete=True) for basis, pos in sorted(level.items()))
    return CompleteFamily(d=d, members=members)


def parabolic_classes(rs: RootSystem, d: int) -> tuple[tuple[Subsystem, int], ...]:
    """W-orbits of K_d as (lex-minimal member, orbit size), ordered by roots.

    Every flat of the Coxeter arrangement is W-conjugate to a standard
    parabolic one (Steinberg; Orlik-Solomon 1983), so each orbit contains
    some X_J, the positive roots supported on J with |J| = n - d.  Orbits
    are walked under the simple reflections, each flat keyed by its positive
    simple system, the image of J's simple roots.  s_i is skipped when it
    reached the flat or alpha_i is in that base (s_i fixes the flat);
    otherwise alpha_i is not in the flat, and s_i turns no positive root but
    alpha_i negative (Humphreys 1990, Prop. 1.4).  W acts unimodularly on
    Z^n, so the base spans a saturated lattice; it keeps J's Cartan matrix.
    Negatives follow positives, so the lex-minimal flat has the lex-minimal roots.

    The flats X satisfy sum |mu(X)| = |W| with every |mu(X)| >= 1
    (Orlik-Solomon 1983), so the walk visits at most |W| of them; larger
    groups are refused.
    """
    if not 0 <= d <= rs.rank:
        raise ValueError(f"dimension {d} out of range for rank {rs.rank}")
    require_work(
        f"flat orbit walk of {format_type(rs.factors)}: |W|",
        type_invariants(rs.factors).weyl_order,
    )
    gens = tuple(zip(rs.simple_indices, rs.reflection_perms))
    support = [sum(1 << k for k, c in enumerate(r) if c) for r in rs.positive_roots]
    seen: set[tuple[int, ...]] = set()
    classes = []
    for J in combinations(range(rs.rank), rs.rank - d):
        start = tuple(rs.simple_indices[j] for j in J)
        if tuple(sorted(start)) in seen:
            continue
        mask = sum(1 << j for j in J)
        least = (tuple(i for i, s in enumerate(support) if not s & ~mask), start)
        orbit = {tuple(sorted(start))}
        queue = [(*least, None)]
        while queue:
            flat, base, back = queue.pop()
            for simple, g in gens:
                if simple in base or g is back:
                    continue
                img = tuple([g[b] for b in base])
                if (key := tuple(sorted(img))) not in orbit:
                    orbit.add(key)
                    queue.append((tuple(sorted([g[i] for i in flat])), img, g))
                    least = min(least, queue[-1][:2])
        seen |= orbit
        flat, base = least
        order = sorted(range(len(J)), key=base.__getitem__)
        simples = tuple(base[a] for a in order)
        basis = intlat.hermite_normal_form([rs.all_roots[i] for i in simples])
        if not set(simples) <= set(flat) or len(basis) != len(simples):
            raise AssertionError(
                f"the carried simple roots {simples} of a flat of {format_type(rs.factors)} "
                "are not positive roots of it of full rank"
            )
        cartan = tuple(tuple(rs.cartan[J[a]][J[b]] for b in order) for a in order)
        theta = Subsystem(
            roots=flat + tuple(i + rs.n_positive for i in flat), rank=len(basis), complete=True,
            span_basis=basis, type=classify_dynkin(cartan), simples=simples, cartan=cartan,
        )
        classes.append((theta, len(orbit)))
    classes.sort(key=lambda c: c[0].roots)
    return tuple(classes)
