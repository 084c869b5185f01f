"""Independent brute-force verification of the counting formulas.

Torsion points of the torus are enumerated on an exact grid whose modulus
comes from the finite-order bound on arrangement points (the marks of the
affine diagram times the exponent of the center, both computed from
lattice data, not tables).  The scan tells points from other grid points
by counting simple vanishing roots on bit lanes and returns the points
alone; the center is read off them, and one point per W-orbit names its
vanishing roots, to type it.  The component counts scan the quotient torus
of each flat they check, with its lattice work on intlat's Hermite normal
form.  The layer poset scans the point grid once: every layer contains a
point, the grid points of a layer form a coset of a lattice that contains
the grid's own, and the canonical HNF residue of a point of the layer
modulo that lattice is the layer's first grid point, which serves as both
its base point and its name.  The poset is graded by dimension, so it
keeps no order relation: its covers, between layers of consecutive
dimensions, are computed on request.  Everything is exact integer/rational
arithmetic; set equality against the formula route is zero-tolerance.
"""

from __future__ import annotations

from collections import Counter
from math import lcm
from operator import add, mul
from typing import NamedTuple, Sequence

from . import intlat
from .errors import CapabilityError, require_work
from .rootsys import RootSystem, TypeSymbol, center, center_order, type_data, type_invariants
from .subsys import Subsystem, enumerate_complete, simple_system, simple_type

DEFAULT_POSET_RANK = 3


def order_bound(factors: tuple[TypeSymbol, ...]) -> int:
    """Grid modulus M: every point of C_0 has order dividing M.

    Per irreducible factor: a point t induces an automorphism of order
    a_p for some vertex p, so t^{a_p} is central and
    ord(t) | a_p * exp(Z).  M is the lcm over factors of
    lcm(marks) * exp(Z), with the marks (1, theta) read from the type's
    record and exp(Z) from its center.
    """
    return lcm(*(lcm(*type_data(sym).diagram.marks) * center(sym).exponent for sym in factors))


class BrutePoint(NamedTuple):
    phi_type: tuple[TypeSymbol, ...]
    stabilizer_order: int
    wz_stabilizer_order: int


def _row_lane(u: Sequence[int], m: int, rotations: list[bytes], digits: list[bytes]) -> int:
    """Row u's lane: one binary digit per x in Z_m^rank, 1 where u . x = 0 mod m.

    The digits run in lexicographic order of x, most significant first.  A
    lane of the values u . x mod m over the last coordinates, one byte per
    point, takes one more coordinate by m translations with rotations[s],
    which add s mod m; for the first coordinate, digits[s] adds s and writes
    "1" for 0, else "0".
    """
    values = b"\x00"
    for a in reversed(u[1:]):
        values = b"".join([values.translate(rotations[a * c % m]) for c in range(m)])
    return int(b"".join([values.translate(digits[u[0] * c % m]) for c in range(m)]), 2)


def _grid_points(rows: Sequence[Sequence[int]], m: int, rank: int) -> list[tuple[int, ...]]:
    """Every x in Z_m^rank whose vanishing rows have full rank, in lexicographic order.

    Row u vanishes at x when u . x = 0 mod m.  The rows must be the
    positive roots of a rank-`rank` root system under a linear map that is
    injective on their span, as the pairings and a subsystem's quotient rows
    are.  The roots vanishing at x then form a subsystem whose simple roots
    are the vanishing rows that are not the sum of two vanishing rows
    (Humphreys 1972, 10.1), so x is a point when `rank` of them are simple;
    no rank test runs, and no point takes a dot product.  Each row's lane,
    less the points where two vanishing rows sum to it, goes into a
    bit-sliced counter.  The lanes take rows x m^rank bits, at most 1.25 MB
    within the work bound, plus transient strings of one byte per grid
    point; the work, candidates times rows, is bounded (F4 is
    12^4 x 24 = 497664).  Raises AssertionError when the origin, where every
    row vanishes, is not a point, and so when a rank-0 scan is given a row.
    """
    require_work(f"grid scan of {m}^{rank} candidates x {len(rows)} roots", m**rank * len(rows))
    premise = f"the rows are not the positive roots of a rank-{rank} system"
    if not rank:
        if rows:  # a rank-0 system has no roots
            raise AssertionError(premise)
        return [()]
    # ring[t] = t mod m and zeros[t] = "1" if m divides t, else "0", for t < 256 + m
    ring, zeros = bytes(range(m)) * (256 // m + 2), (b"1" + b"0" * (m - 1)) * (256 // m + 2)
    rotations, digits = [ring[s:s + 256] for s in range(m)], [zeros[s:s + 256] for s in range(m)]
    lanes = [_row_lane(u, m, rotations, digits) for u in rows]
    index = {tuple(u): k for k, u in enumerate(rows)}
    sums: list[list[tuple[int, int]]] = [[] for _ in rows]  # sums[k]: rows[i] + rows[j] == rows[k]
    for i, u in enumerate(rows):
        for j in range(i, len(rows)):
            k = index.get(tuple(map(add, u, rows[j])))
            if k is not None:
                sums[k].append((i, j))
    counts = [0] * max(len(rows), rank).bit_length()  # counts[b]: bit b of the simple rows' count
    for lane, pairs in zip(lanes, sums):
        for i, j in pairs:
            lane &= ~(lanes[i] & lanes[j])
        for b, digit in enumerate(counts):
            counts[b], lane = digit ^ lane, digit & lane
    hits = (1 << m**rank) - 1
    for b, digit in enumerate(counts):
        hits &= digit if rank >> b & 1 else ~digit
    bits = format(hits, f"0{m**rank}b")
    if bits[0] != "1":
        raise AssertionError(premise)
    powers = [m**p for p in range(rank - 1, -1, -1)]
    out = []
    j = 0
    while j >= 0:
        out.append(tuple([j // q % m for q in powers]))
        j = bits.find("1", j + 1)
    return out


def brute_points(rs: RootSystem) -> tuple[BrutePoint, ...]:
    """All points of the arrangement by exhaustive grid scan.

    Returns one record per point with the type of its vanishing subsystem,
    its stabilizer order in W, and its stabilizer order in W x Z, in the
    order of the points' grid coordinates, which are
    _grid_points(rs.pairings, order_bound(rs.factors), rs.rank).
    Both orders are computed once per W-orbit of points, which is walked
    under the simple reflections: the stabilizer order in W is |W| / |orbit|.
    W acts trivially on the center, so the count of central shifts that
    stay in the orbit is constant on it too, and the vanishing subsystems
    of an orbit are W-conjugate, so the vanishing roots of one point per
    orbit are found, and typed from their simple system, with no saturation.
    The center is the set of points at which every simple root, and so
    every root, vanishes.  Raises AssertionError when a W-image of a point
    is not among the points, when an orbit size does not divide |W|, when
    the central points are not |Z| many, or when the roots vanishing at a
    point do not form a subsystem with n simple roots.
    The walk takes n steps per point, within the grid scan's work.
    """
    m = order_bound(rs.factors)
    # The pairing vectors are the roots under the Cartan matrix, which is invertible.
    rows = rs.pairings
    points = _grid_points(rows, m, rs.rank)
    hits = set(points)
    order = type_invariants(rs.factors).weyl_order
    # Column j is alpha_j's pairing row; s_j moves only coordinate j: x_j -> x_j - sum_k cartan[k][j] x_k.
    columns = list(enumerate(zip(*rs.cartan)))
    centers = [x for x in points if not any(sum(map(mul, column, x)) % m for _, column in columns)]
    if len(centers) != center_order(rs.factors):
        raise AssertionError("center grid vectors do not match the center order")
    records: dict[tuple[int, ...], BrutePoint] = {}
    for cand in points:
        if cand not in records:
            orbit = {cand}
            queue = [cand]
            while queue:
                x = queue.pop()
                for j, column in columns:
                    image = x[:j] + ((x[j] - sum(map(mul, column, x))) % m,) + x[j + 1:]
                    if image not in orbit:
                        if image not in hits:
                            raise AssertionError(
                                f"a W-image of the grid point {cand} is not a point"
                            )
                        orbit.add(image)
                        queue.append(image)
            stab, rest = divmod(order, len(orbit))
            if rest:
                raise AssertionError(
                    f"the W-orbit of the grid point {cand} has {len(orbit)} points,"
                    f" which does not divide |W| = {order}"
                )
            shifts = sum(
                1 for z in centers
                if tuple((c - zc) % m for c, zc in zip(cand, z)) in orbit
            )
            vanishing = [i for i, u in enumerate(rows) if sum(map(mul, u, cand)) % m == 0]
            phi_type = simple_type(rs, vanishing, rs.rank)[2]
            records.update(dict.fromkeys(orbit, BrutePoint(phi_type, stab, stab * shifts)))
    return tuple(map(records.__getitem__, points))


# -- counting layers tangent to one subsystem ---------------------------------


def component_count(rs: RootSystem, theta: Subsystem) -> int:
    """|C^Phi_Theta|: layers whose tangent subsystem completes to theta.

    Counted directly as the points of theta's arrangement on the quotient
    torus D' = d/R^Phi(Theta) -- independent of both the point-count
    formula and the n_theta index computation.  gamma holds the pairing
    rows of theta's k simple roots, and one HNF of [gamma^T | I_n] has the
    rows (gamma y, y); those with gamma y != 0 give the basis r_j = gamma y_j
    of R^Phi(Theta).  At the quotient grid point x, in that basis and in
    units of 1/order_bound(theta.type), a root of theta with pairing row p
    takes the value x . (y_j . p)_j: that is its grid row, with no solve.
    The basis is invertible, so the rows are theta's positive roots under an
    injective linear map, as the scan requires.
    """
    k = len(theta.simples)
    graph = intlat.graph_hnf([rs.pairings[i] for i in theta.simples], rs.rank)
    lifts = [row[k:] for row in graph if any(row[:k])]
    rows = [tuple(sum(map(mul, y, rs.pairings[i])) for y in lifts) for i in theta.roots]
    return len(_grid_points(rows, order_bound(theta.type), k))


# -- the explicit layer poset --------------------------------------------------


class LayerPoset(NamedTuple):
    """Layers of the arrangement ordered by inclusion (C' <= C iff C' ⊆ C), kept as its covers.

    layers[i] = (dimension, flat index t, base grid point): the layer is
    tangent to the flat thetas[t], and its base point, in units of
    1/modulus, is its lexicographically first grid point.  Every layer L
    tangent to theta contains a point x, and L is a component of the
    intersection of the hypertori of some roots of theta that vanish at x
    and span theta.  Conversely, at every point x where the roots of theta
    vanishing at x span theta, they cut out a layer tangent to theta through
    x, whose grid points are the coset x + M of the lattice
    M = ker gamma + m Z^n, gamma the pairing rows of theta's simple roots.
    So the canonical residue of x modulo M is that layer's base point.
    The order is graded by dimension.  For layers C' ⊊ C, some root beta
    vanishes on C' but not on C (else the connected C, which meets C',
    would lie in C'), so beta is not constant on C and cuts C in a layer
    of dimension dim C - 1 through C'.  Hence C' <= C is a chain of covers,
    and layer j covers layer i exactly when dim j = dim i + 1, theta_j lies
    in theta_i and base_i reduces to base_j modulo M_j.  The order is the
    reflexive transitive closure of the covers.
    """

    thetas: tuple[Subsystem, ...]  # the flats, in (dimension, span basis) order
    modulus: int  # the grid modulus m
    layers: tuple[tuple[int, int, tuple[int, ...]], ...]  # sorted (dimension, flat, base grid point)
    lattices: tuple[tuple[tuple[int, ...], ...], ...]  # lattices[t]: HNF of M_t = ker gamma_t + m Z^n
    below: tuple[tuple[int, ...], ...]  # below[t]: flats of rank one less whose roots lie in theta t's

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j), ordered, with layer i inside layer j of one dimension more."""
        index = {(t, base): j for j, (_, t, base) in enumerate(self.layers)}
        out = []
        for i, (_, t, base) in enumerate(self.layers):
            above = [index.get((u, intlat.residue(self.lattices[u], base))) for u in self.below[t]]
            out.extend((i, j) for j in sorted(j for j in above if j is not None))
        return tuple(out)


def build_poset(rs: RootSystem, *, max_rank: int = DEFAULT_POSET_RANK) -> LayerPoset:
    """Every layer of the arrangement, as an integer triple, with what its covers are computed from.

    One scan of the point grid Z_m^n names every layer.  At each point x
    and flat theta whose roots vanishing at x span it, the layer tangent to
    theta through x is named by the canonical residue of x modulo
    M_theta = ker gamma_theta + m Z^n (LayerPoset gives the argument).
    M_theta contains m Z^n, so the pivots of its HNF divide m, and that
    residue is the layer's lexicographically first grid point (Cohen 1993,
    2.4.3).  M_theta's HNF is the rows with a zero gamma-part of one HNF of
    the rows (gamma e_j, e_j) and (0, m e_j).  The roots of theta vanishing
    at x form a closed subsystem, whose rank is the count of its simple
    roots; that count is taken once per such subsystem, and the flats
    spanned at x once per set of roots vanishing at a point.  The flats
    come from enumerate_complete, K_0 to K_n, in (dimension, span basis)
    order, so sorting the triples orders the layers by dimension, span
    basis and base point.  The order is left to LayerPoset.covers, which
    reads each flat's M and the flats one rank below it.  Raises
    AssertionError when a flat has no layer, or the flat Phi, K_0's one
    member, not one layer per point.  Refuses, with the estimate, when the
    point scan is over the work bound, before enumerating any subsystem, or
    when m^n points, a bound on the points, times the number of flats is.
    """
    n = rs.rank
    if n > max_rank:
        raise CapabilityError(f"rank {n} exceeds poset bound poset_rank={max_rank}")
    m = order_bound(rs.factors)
    # The point scan is bounded before enumerating.
    require_work(f"grid scan of {m}^{n} candidates x {rs.n_positive} roots", m**n * rs.n_positive)
    flats = [(d, theta) for d in range(n + 1) for theta in enumerate_complete(rs, d).members]
    require_work(f"poset of {m}^{n} points x {len(flats)} subsystems", m**n * len(flats))
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    lattices = []  # lattices[t]: HNF of M = ker gamma + m Z^n for theta t
    for _, theta in flats:
        k = len(theta.simples)
        gamma = [rs.pairings[i] for i in theta.simples]
        graph = [[*(row[j] for row in gamma), *unit[j]] for j in range(n)]  # rows (gamma e_j, e_j)
        hnf = intlat.hermite_normal_form(graph + [[0] * k + [m * v for v in e] for e in unit])
        lattices.append(tuple(row[k:] for row in hnf if not any(row[:k])))
    masks = [sum(1 << i for i in theta.roots) for _, theta in flats]
    ranks: dict[int, int] = {}  # the mask of a closed subsystem: its rank
    spanned: dict[int, list[int]] = {}  # the mask of the roots vanishing at a point: the flats they span
    points = _grid_points(rs.pairings, m, n)
    layers = set()  # (dimension, theta index, base grid point)
    for x in points:
        vanishing = sum(1 << i for i, u in enumerate(rs.pairings) if not sum(map(mul, u, x)) % m)
        if vanishing not in spanned:
            spanned[vanishing] = []
            for t, (_, theta) in enumerate(flats):
                common = masks[t] & vanishing
                if common not in ranks:
                    ranks[common] = len(simple_system(rs, [i for i in theta.roots if common >> i & 1]))
                if ranks[common] == len(theta.simples):
                    spanned[vanishing].append(t)
        layers.update((flats[t][0], t, intlat.residue(lattices[t], x)) for t in spanned[vanishing])
    per_flat = Counter(t for _, t, _ in layers)
    if len(per_flat) != len(flats) or per_flat[0] != len(points):
        raise AssertionError("a flat has no layer, or the flat of all roots not one layer per point")
    # A complete subsystem is the set of roots in its span, so one span lies
    # in another exactly when the root sets do.
    roots = [frozenset(theta.roots) for _, theta in flats]
    below = tuple(
        tuple(u for u, (e, _) in enumerate(flats) if e == d + 1 and roots[u] <= roots[t])
        for t, (d, _) in enumerate(flats)
    )
    return LayerPoset(tuple(theta for _, theta in flats), m, tuple(sorted(layers)), tuple(lattices), below)
