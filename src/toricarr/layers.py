"""Counting and topology of the toric arrangement of a root system.

Points of the arrangement and their orbit structure from the affine
diagram, per-dimension layer counts through the complete-subsystem
partition, the full layer census with tangent types, Euler characteristic
and the Poincare polynomial of the complement by two independent routes.
The index n_Theta is a quotient of two indices in Z^k, each the product of
the pivots of a Hermite normal form (`intlat.index_in_zk`).
A polynomial in q is its tuple of integer coefficients, lowest degree
first.  Every Poincare route is a list of terms (d, c), and `_assemble`
sums each into sum c (q+1)^d q^(n-d).  The degree identity is the one
rational sum; it is checked in integers, times |W|, and a fraction is a
(numerator, denominator) pair in lowest terms, shown by `format_fraction`.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd
from typing import Iterable, NamedTuple, Sequence

from . import intlat
from .rootsys import RootSystem, TypeSymbol, diagram_automorphisms, type_data, type_invariants
from .subsys import Subsystem, parabolic_classes


# -- polynomials in q, as coefficient tuples, lowest degree first -------------


def _assemble(n: int, terms: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The n + 1 coefficients of sum c (q+1)^d q^(n-d) over the terms (d, c)."""
    coeffs = [0] * (n + 1)
    for d, c in terms:
        for k in range(d + 1):
            coeffs[n - d + k] += c * comb(d, k)
    return tuple(coeffs)


def format_polynomial(coeffs: Sequence[int]) -> str:
    """The display string of a polynomial in q, highest degree first: `28q + 1` for (1, 28)."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c:
            q = "q" if k == 1 else f"q^{k}"
            terms.append(str(c) if k == 0 else q if c == 1 else f"{c}{q}")
    return " + ".join(terms).replace("+ -", "- ") or "0"


# -- points of the arrangement ----------------------------------------------


class PointOrbitRecord(NamedTuple):
    """One W-orbit of 0-dimensional layers, keyed by an affine vertex."""

    vertex: int
    orbit_size: int
    point_type: tuple[TypeSymbol, ...]
    stabilizer_order: int
    aut_stabilizer_order: int
    aut_orbit: int  # index into the Aut(Gamma)-orbit list Q


def point_type_multiset(factors: tuple[TypeSymbol, ...]) -> tuple[tuple[tuple[TypeSymbol, ...], int], ...]:
    """Multiset of Phi(t)-types over the points t, with multiplicities.

    Multiplicative over the irreducible factors.
    """
    combined: dict[tuple[TypeSymbol, ...], int] = {(): 1}
    for sym in factors:
        factor_counts: dict[tuple[TypeSymbol, ...], int] = {}
        for _, ptype, _, size in type_data(sym).vertices:
            factor_counts[ptype] = factor_counts.get(ptype, 0) + size
        merged: dict[tuple[TypeSymbol, ...], int] = {}
        for t1, c1 in combined.items():
            for t2, c2 in factor_counts.items():
                key = tuple(sorted(t1 + t2))
                merged[key] = merged.get(key, 0) + c1 * c2
        combined = merged
    return tuple(sorted(combined.items()))


def count_points(factors: tuple[TypeSymbol, ...]) -> int:
    """|C_0|, the number of points: per factor, the sum over affine vertices of |W|/|W_p|."""
    total = 1
    for sym in factors:
        total *= sum(size for *_, size in type_data(sym).vertices)
    return total


def point_orbits(sym: TypeSymbol) -> tuple[PointOrbitRecord, ...]:
    """W-orbits of points, one per affine vertex, grouped by Aut(Gamma)-orbit.

    Defined per irreducible type; factors of a product are handled
    independently by the callers (layers multiply).
    """
    data = type_data(sym)
    autos, orbits = diagram_automorphisms(data.diagram)
    records = []
    for p, ptype, wp, size in data.vertices:
        q_index = next(i for i, orb in enumerate(orbits) if p in orb)
        aut_stab = len([a for a in autos if a[p] == p])
        records.append(
            PointOrbitRecord(
                vertex=p,
                orbit_size=size,
                point_type=ptype,
                stabilizer_order=wp,
                aut_stabilizer_order=aut_stab,
                aut_orbit=q_index,
            )
        )
    total = sum(r.orbit_size for r in records)
    by_orbit = 0
    for i, orb in enumerate(orbits):
        p = orb[0]
        by_orbit += len(orb) * next(r.orbit_size for r in records if r.vertex == p)
    if total != by_orbit:
        raise AssertionError("vertex and Q-orbit point counts disagree")
    return tuple(records)


# -- n_Theta and layer counts ------------------------------------------------


def n_theta(rs: RootSystem, theta: Subsystem) -> int:
    """The index [R^Phi(Theta) : <Theta^vee>], as a quotient of two indices in Z^k.

    Coordinates are the values on theta's k simple roots.  There
    <Theta^vee> is the row lattice of theta's Cartan matrix (theta.cartan), of index
    |det C_Theta| = |Z(Theta)|, and R^Phi(Theta), the coroot lattice of rs
    restricted to theta's span, is spanned by the values of the simple
    coroots of rs, the transposed pairings of theta's simples.
    """
    k = len(theta.simples)
    coroots = intlat.index_in_zk(theta.cartan, k)
    restricted = intlat.index_in_zk(list(zip(*(rs.pairings[i] for i in theta.simples))), k)
    q, r = divmod(coroots, restricted)
    if r:
        raise AssertionError("theta's coroot lattice is not inside R^Phi(Theta)")
    return q


class LayerClassRecord(NamedTuple):
    """Census entry for one W-orbit of tangent subsystems."""

    dimension: int
    theta: Subsystem
    orbit_size: int
    n_theta: int
    layer_count: int  # layers tangent to each member of the orbit
    phi_c_types: tuple[tuple[tuple[TypeSymbol, ...], int], ...]


@lru_cache(maxsize=None)
def layer_census(rs: RootSystem) -> tuple[LayerClassRecord, ...]:
    """Full census over all dimensions, ordered canonically."""
    records = []
    for d in range(rs.rank + 1):
        for theta, orbit_size in parabolic_classes(rs, d):
            nt = n_theta(rs, theta)
            types = point_type_multiset(theta.type)
            divided = []
            for ptype, count in types:
                q, r = divmod(count, nt)
                if r:
                    raise AssertionError("n_theta does not divide a point-type count")
                divided.append((ptype, q))
            layer_count = sum(c for _, c in divided)
            records.append(
                LayerClassRecord(
                    dimension=d,
                    theta=theta,
                    orbit_size=orbit_size,
                    n_theta=nt,
                    layer_count=layer_count,
                    phi_c_types=tuple(divided),
                )
            )
    _check_orlik_solomon(rs, records)
    return tuple(records)


def _check_orlik_solomon(rs: RootSystem, records: Sequence[LayerClassRecord]) -> None:
    """Sum of orbit_size * |mu| * t^rank over the flats = prod (1 + e_i t).

    |mu| of the flat of theta is the exponent product of W_theta, so this
    pins the orbit sizes against degree data alone.
    """
    by_rank = [0] * (rs.rank + 1)
    for r in records:
        by_rank[rs.rank - r.dimension] += (
            r.orbit_size * type_invariants(r.theta.type).exponent_product
        )
    expected = [1]
    for degree in rs.degrees:
        expected = [a + (degree - 1) * b for a, b in zip(expected + [0], [0] + expected)]
    if by_rank != expected:
        raise AssertionError(
            f"Orlik-Solomon factorisation fails: flats give {by_rank}, "
            f"degrees give {expected}"
        )


def count_layers(rs: RootSystem, d: int) -> int:
    """|C_d|: number of d-dimensional layers (Cor. of the covering map)."""
    if not 0 <= d <= rs.rank:
        raise ValueError(f"dimension {d} out of range for rank {rs.rank}")
    return sum(r.orbit_size * r.layer_count for r in layer_census(rs) if r.dimension == d)


# -- topology of the complement ----------------------------------------------


def euler_characteristic(factors: tuple[TypeSymbol, ...]) -> int:
    """Euler characteristic of the set of regular points: (-1)^n |W|.

    Computed via the point-orbit sum (the only layers contributing at
    q = -1 are the points) and cross-checked against the closed form.
    """
    value = 1
    for sym in factors:
        factor = 0
        for _, ptype, _, size in type_data(sym).vertices:
            factor += size * type_invariants(ptype).exponent_product
        value *= (-1) ** sym.rank * factor
    closed = (-1) ** sum(sym.rank for sym in factors) * type_invariants(factors).weyl_order
    if value != closed:
        raise AssertionError("point-sum and closed-form Euler characteristics differ")
    return value


def _closed_form_terms(records: Sequence[LayerClassRecord]) -> list[tuple[int, int]]:
    """(d, n_theta^{-1} |W^Theta|) for each tangent orbit."""
    terms = []
    for r in records:
        q, rem = divmod(r.orbit_size * type_invariants(r.theta.type).weyl_order, r.n_theta)
        if rem:
            raise AssertionError("n_theta does not divide |W^Theta|")
        terms.append((r.dimension, q))
    return terms


def _layer_terms(records: Sequence[LayerClassRecord]) -> list[tuple[int, int]]:
    """(d, the exponent products of the layers' own subsystems) for each census record."""
    return [
        (r.dimension, r.orbit_size * sum(c * type_invariants(t).exponent_product for t, c in r.phi_c_types))
        for r in records
    ]


def poincare(rs: RootSystem) -> tuple[int, ...]:
    """Poincare polynomial of the complement, lowest degree first, by two routes that must agree.

    The closed form over tangent orbits and the layer sum over the census
    are both term lists of the one census, each assembled into
    sum c (q+1)^d q^(n-d); the result must also have constant term 1 and
    equal the Euler characteristic at q = -1.
    """
    records = layer_census(rs)
    coeffs = _assemble(rs.rank, _closed_form_terms(records))
    if coeffs != _assemble(rs.rank, _layer_terms(records)):
        raise AssertionError("closed-form and layer-sum Poincare polynomials differ")
    if coeffs[0] != 1:
        raise AssertionError("Poincare polynomial has nonunit constant term")
    if sum((-1) ** k * c for k, c in enumerate(coeffs)) != euler_characteristic(rs.factors):
        raise AssertionError("Poincare polynomial disagrees with the Euler characteristic")
    return coeffs


# -- the degree identity -------------------------------------------------------


def _reduced(numerator: int, denominator: int) -> tuple[int, int]:
    g = gcd(numerator, denominator)
    return numerator // g, denominator // g


def format_fraction(numerator: int, denominator: int) -> str:
    """The fraction in lowest terms: `1/2` for (2, 4), and `2` for (4, 2)."""
    numerator, denominator = _reduced(numerator, denominator)
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


class DegreeIdentityResult(NamedTuple):
    terms: tuple[tuple[int, tuple[int, int]], ...]  # (p, P(Phi_p)/|W_p| in lowest terms)
    total: tuple[int, int]  # their sum in lowest terms; (1, 1) when the identity holds


def verify_degree_identity(sym: TypeSymbol) -> DegreeIdentityResult:
    """Exact check of sum_p P(Phi_p)/|W_p| = 1 over the affine vertices of an irreducible type.

    Times |W| it is a sum of integers, sum_p P(Phi_p) |W|/|W_p| = |W|: each
    vertex's exponent product weighted by its orbit of points.
    """
    terms = []
    total = 0
    for p, ptype, wp, size in type_data(sym).vertices:
        product = type_invariants(ptype).exponent_product
        terms.append((p, _reduced(product, wp)))
        total += product * size
    return DegreeIdentityResult(terms=tuple(terms), total=_reduced(total, type_invariants((sym,)).weyl_order))
