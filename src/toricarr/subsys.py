"""Subsystems of a root system: assembly, enumeration, classification.

A subsystem is a subset closed under negation and under addition of roots
(when the sum is a root).  A complete subsystem, or flat, equals the
intersection of its rational span with the ambient system, so its positive
roots determine it; complete subsystems of rank n - d are in bijection with
the d-dimensional spaces of the linear arrangement, which is what makes them
enumerable by rational spans, at one saturation per span; a subsystem is
typed from its simple roots with none.
Their W-orbits are classified from the standard parabolic flats alone, by a
walk whose carried simple systems stay positive (Humphreys, Reflection Groups
and Coxeter Groups, 1990, Prop. 1.4) and saturated, as W is unimodular.

Ordering lemma: positive roots are indexed in height order, and two flats
F != G of one rank compare, as sorted tuples of root indices, exactly as
their sorted simple systems compare.  Proof: let x be the least index in
exactly one of them, say in F.  G has a root outside F (of two complete
subsystems of one rank, one inside the other, both are equal), above x, so F
has the smaller sorted roots.  A root of a flat that is not simple in it is
a simple root of the flat plus a positive root of it, both of lower height,
hence of lower index.  So the roots below x, the same in F and G, are
simple in F exactly when simple in G; and x is simple in F, for otherwise it
would be a sum of two roots of G, which is closed.  The simple systems then
agree below x, and x is in F's and not in G's, which has as many members,
so F's sorted simple system is the smaller.  The walk therefore keys each
flat by its simple system alone and finds an orbit's least flat by the
least key.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import mul, sub
from typing import NamedTuple, Sequence

from . import intlat
from .errors import require_work
from .rootsys import RootSystem, TypeSymbol, classify_dynkin, format_type, type_invariants


class Subsystem(NamedTuple):
    """A complete subsystem (a flat): the sorted indices of its positive roots; its rank is len(simples)."""

    roots: tuple[int, ...]
    type: tuple[TypeSymbol, ...]
    simples: tuple[int, ...]  # indices of its simple roots
    cartan: tuple[tuple[int, ...], ...]  # Cartan matrix of the simples, in their order


def simple_system(rs: RootSystem, positive_indices: Sequence[int]) -> tuple[int, ...]:
    """Simple roots of a closed subsystem, from the indices of its positive roots.

    The roots are taken in index order, which is height order.  A positive
    root that is not simple is a simple root plus a positive root of the
    subsystem, and that simple root is lower, so it is found first; a simple
    root minus another is no root.  So a root is simple exactly when
    subtracting each simple root found so far never gives a positive root
    of the subsystem.
    """
    pos = sorted(positive_indices)
    vecs = {rs.positive_roots[i] for i in pos}
    simples: list[int] = []
    for i in pos:
        root = rs.positive_roots[i]
        if not any(tuple(map(sub, root, rs.positive_roots[s])) in vecs for s in simples):
            simples.append(i)
    return tuple(simples)


def simple_type(
    rs: RootSystem, positive_indices: Sequence[int], rank: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[TypeSymbol, ...]]:
    """(simples, their Cartan matrix in their order, type) of a closed subsystem of rank `rank`.

    Raises AssertionError when the simple system does not have `rank`
    roots, as that of a closed subsystem of that rank has.
    """
    simples = simple_system(rs, positive_indices)
    if len(simples) != rank:
        raise AssertionError(
            f"a closed subsystem of rank {rank} of {format_type(rs.factors)} "
            f"has {len(simples)} simple roots"
        )
    cartan = rs.cartan_of(simples)
    return simples, cartan, classify_dynkin(cartan)


class CompleteFamily(NamedTuple):
    """All complete subsystems of a fixed rank (the set K_d)."""

    members: tuple[Subsystem, ...]


@lru_cache(maxsize=None)
def _span_levels(rs: RootSystem, top: int) -> tuple[dict, ...]:
    """Rational spans of root subsets, one dict {basis: (positives, null vectors)} per rank 0..top.

    Level r maps the canonical HNF basis of each rank-r span F to the
    sorted tuple of positive-root indices in F and to F's null vectors k.
    A positive root beta outside F has a nonzero value vector (k . beta),
    and span(F, beta) holds a root exactly when its value vector is a
    rational multiple of beta's.  So the roots outside F, grouped by their
    value vectors divided by their gcd and signed, give with F the positive
    roots of every rank-(r + 1) span through F, with no elimination.  Each
    new span is saturated once, for its basis and null vectors.
    """
    if top == 0:
        units = tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))
        return ({(): ((), units)},)
    levels = _span_levels(rs, top - 1)
    extensions: dict[tuple[int, ...], list] = {}  # positives of a new span: rows spanning it
    for basis, (members, null_vectors) in levels[-1].items():
        inside = set(members)
        groups: dict[tuple[int, ...], list[int]] = {}
        for j, root in enumerate(rs.positive_roots):
            if j not in inside:
                values = [sum(map(mul, root, k)) for k in null_vectors]
                g = gcd(*values)
                if next(filter(None, values)) < 0:
                    g = -g
                groups.setdefault(tuple(v // g for v in values), []).append(j)
        for roots in groups.values():
            positives = tuple(sorted(members + tuple(roots)))
            extensions.setdefault(positives, [*basis, rs.positive_roots[roots[0]]])
    nxt = {}
    for positives, rows in extensions.items():
        new_basis, null_vectors = intlat.saturate(rows)
        nxt[new_basis] = (positives, null_vectors)
    return levels + (nxt,)


def enumerate_complete(rs: RootSystem, d: int) -> CompleteFamily:
    """The family K_d: complete subsystems of rank n - d, sorted by span basis.

    Enumerates saturated rational spans of root subsets, growing rank one
    root at a time (see _span_levels) and sorting them by their canonical
    HNF bases, which are not kept: K_0, .., K_n in turn list every flat in
    (dimension, span basis) order.  Only build_poset, which verify reaches
    through poset_grading, and the tests use this span route; the census and
    the other verify checks work from parabolic_classes.  Each flat is
    saturated once and extended by the value vectors of at most n_positive
    roots, and there are at most |W| flats (see parabolic_classes), so the
    work is refused above |W| x n_positive.
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
    members = []
    for basis, (pos, _) in sorted(level.items()):
        simples, cartan, types = simple_type(rs, pos, len(basis))
        members.append(Subsystem(pos, types, simples, cartan))
    return CompleteFamily(tuple(members))


def parabolic_classes(rs: RootSystem, d: int) -> tuple[tuple[Subsystem, int], ...]:
    """W-orbits of K_d as (lex-minimal member, orbit size), ordered by roots.

    Every flat of the Coxeter arrangement is W-conjugate to a standard
    parabolic one (Steinberg; Orlik-Solomon 1983), so each orbit contains
    some X_J, the positive roots supported on J with |J| = n - d.  Orbits
    are walked under the simple reflections, each flat keyed by its positive
    simple system, the image of J's simple roots.  s_i is skipped when it
    reached the flat or alpha_i is in that base (s_i fixes the flat).  A
    simple root in a flat is simple in it, so otherwise alpha_i is not in the
    flat, and s_i turns none of its positive roots negative (Humphreys 1990,
    Prop. 1.4).  W acts unimodularly on Z^n, so the base spans a saturated
    lattice; it keeps J's Cartan matrix, and its HNF only guards its rank.

    The walk keys each flat by that system, sorted, and maps no flat's
    roots.  By the ordering lemma (see the module docstring: a non-simple
    root of a flat is a sum of two of its roots of lower index, so the least
    root in one flat only is simple in it), the orbit's lex-minimal flat is
    the one with the least key.  Each key keeps the simple reflection that
    reached it, an involution that also takes it back to the key it came
    from, and X_J's roots and J's base are mapped once, along that path.

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
    seen: set[tuple[int, ...]] = set()
    classes = []
    for J in combinations(range(rs.rank), rs.rank - d):
        start = tuple(rs.simple_indices[j] for j in J)
        if (key := tuple(sorted(start))) in seen:
            continue
        # Each visited flat's key, its sorted simple system, names the reflection that reached it.
        paths = {key: None}
        queue = [key]
        while queue:
            at = queue.pop()
            back = paths[at]
            for simple, g in gens:
                if simple in at or g is back:
                    continue
                if (key := tuple(sorted([g[b] for b in at]))) not in paths:
                    paths[key] = g
                    queue.append(key)
        seen.update(paths)
        # A reflection is an involution, so it takes a key back to the key it came from.
        steps = []
        key = min(paths)
        while (g := paths[key]) is not None:
            steps.append(g)
            key = tuple(sorted([g[b] for b in key]))
        # Map X_J and J's base once, along the path from J to the least key.
        mask = sum(1 << j for j in J)
        flat = [i for i, support in enumerate(rs.supports) if not support & ~mask]
        base = start
        for g in reversed(steps):
            flat = [g[i] for i in flat]
            base = [g[b] for b in base]
        flat = tuple(sorted(flat))
        order = sorted(range(len(J)), key=base.__getitem__)
        simples = tuple(base[a] for a in order)
        rank = len(intlat.hermite_normal_form([rs.positive_roots[i] for i in simples]))
        if not set(simples) <= set(flat) or rank != len(simples):
            raise AssertionError(
                f"the carried simple roots {simples} of a flat of {format_type(rs.factors)} "
                "are not positive roots of it of full rank"
            )
        cartan = tuple(tuple(rs.cartan[J[a]][J[b]] for b in order) for a in order)
        theta = Subsystem(flat, classify_dynkin(cartan), simples, cartan)
        classes.append((theta, len(paths)))
    classes.sort(key=lambda c: c[0].roots)
    return tuple(classes)
