"""The oracle-versus-formula suite behind `toricarr verify`.

Each check compares a counting formula with a brute-force oracle, or with
a second route to the same quantity.  A check takes the root system, the
poset rank and the request's W_Z lookup, which builds W_Z once per factor.
It returns its detail line, raises AssertionError on a mismatch and
CapabilityError when a work bound refuses it; a ValueError from the
library inside a check is reported as a mismatch too.  The library is called
through module attributes (`layers.x`, `oracle.x`, `weyl.x`), so a
function replaced there is the one checked.
"""

from __future__ import annotations

from itertools import chain, product
from math import prod

from . import layers, oracle, weyl
from .errors import CapabilityError
from .rootsys import RootSystem, TypeSymbol, center, diagram_automorphisms, format_type, type_data


def _require(condition: bool, message: str) -> None:
    """Raise the mismatch that verify reports; unlike assert, survives python -O."""
    if not condition:
        raise AssertionError(message)


def wz_vertex_orbits(sym: TypeSymbol):
    """W_Z of an irreducible type, and the W_Z-orbit of each affine vertex 0..n.

    W_Z is a group, so the orbit of v is its set of images under W_Z.
    """
    wz = weyl.center_subgroup(sym)
    return wz, tuple(tuple(sorted({e.diagram_perm[v] for e in wz})) for v in range(sym.rank + 1))


def degree_identity(rs, poset_rank, wz):
    for sym in rs.factors:
        res = layers.verify_degree_identity(sym)
        _require(res.total == (1, 1), f"{sym}: sum = {layers.format_fraction(*res.total)}")
    return "sum over vertices equals 1 for every factor"


def euler_characteristic(rs, poset_rank, wz):
    return f"both routes give {layers.euler_characteristic(rs.factors)}"


def poincare_routes(rs, poset_rank, wz):
    return f"routes agree: {layers.format_polynomial(layers.poincare(rs))}"


def points_oracle(rs, poset_rank, wz):
    pts = oracle.brute_points(rs)
    formula = layers.count_points(rs.factors)
    _require(len(pts) == formula, f"brute {len(pts)} != formula {formula}")
    brute = sorted((p.phi_type, p.stabilizer_order, p.wz_stabilizer_order) for p in pts)
    # Per factor and point orbit: (type, |W_p|, |W_p| * |Stab_{W_Z} p|, orbit size).
    tables = []
    for sym in rs.factors:
        group, orbits = wz(sym)
        tables.append([
            (r.point_type, r.stabilizer_order, r.stabilizer_order * len(group) // len(orbits[r.vertex]),
             r.orbit_size)
            for r in layers.point_orbits(sym)
        ])
    # A point of the product is one point per factor: types join, the rest multiply.
    expected = sorted(
        (tuple(sorted(chain.from_iterable(types))), prod(stabs), prod(wz_stabs))
        for row in product(*tables)
        for types, stabs, wz_stabs, sizes in [zip(*row)]
        for _ in range(prod(sizes))
    )
    _require(brute == expected, "type/stabilizer multisets differ")
    return f"{formula} points; types and stabilizers match"


def component_counts(rs, poset_rank, wz):
    # Both sides are W-invariant, so one census representative per orbit checks all of K_d.
    records = layers.layer_census(rs)
    refused = []
    for rec in records:
        try:
            cc = oracle.component_count(rs, rec.theta)
        except CapabilityError as exc:
            refused.append(exc)
            continue
        cp, nt = layers.count_points(rec.theta.type), rec.n_theta
        _require(cc * nt == cp, f"theta {format_type(rec.theta.type)}: components {cc} != {cp}/{nt}")
    if refused:
        raise CapabilityError(f"{len(records) - len(refused)} of {len(records)} orbits checked; {refused[0]}")
    return f"{sum(r.orbit_size for r in records)} tangent subsystems checked"


def poset_grading(rs, poset_rank, wz):
    dims = [d for d, _, _ in oracle.build_poset(rs, max_rank=poset_rank).layers]
    for d in range(rs.rank + 1):
        expected = layers.count_layers(rs, d)
        _require(dims.count(d) == expected, f"d={d}: poset {dims.count(d)} != census {expected}")
    return f"graded poset with {len(dims)} layers"


def iwahori_matsumoto(rs, poset_rank, wz):
    for sym in rs.factors:
        group, orbits = wz(sym)
        order = center(sym).order
        _require(len(group) == order, f"{sym}: |W_Z| = {len(group)} != |Z| = {order}")
        _, aut_orbits = diagram_automorphisms(type_data(sym).diagram)
        _require(set(aut_orbits) == set(orbits), f"{sym}: orbit mismatch")
    return "z_p.alpha_0 = alpha_p, |W_Z| = |Z|, W_Z orbits = Aut orbits"


# In report order; each row is named after its check.
CHECKS = (
    degree_identity,
    euler_characteristic,
    poincare_routes,
    points_oracle,
    component_counts,
    poset_grading,
    iwahori_matsumoto,
)


def run_checks(rs: RootSystem, poset_rank: int) -> list[tuple[str, str, str]]:
    """(name, status, detail) for each check in CHECKS; status is ok, mismatch or skipped."""
    built = {}

    def wz(sym):
        """`wz_vertex_orbits(sym)`, built once per factor by the first check that reads it."""
        if sym not in built:
            built[sym] = wz_vertex_orbits(sym)
        return built[sym]

    rows = []
    for check in CHECKS:
        try:
            rows.append((check.__name__, "ok", check(rs, poset_rank, wz)))
        except CapabilityError as exc:
            rows.append((check.__name__, "skipped", str(exc)))
        except (AssertionError, ValueError) as exc:  # a ValueError inside a check is an internal failure
            rows.append((check.__name__, "mismatch", str(exc)))
    return rows
