"""Request lists of the three workloads and the checks every response must pass.

A request is the argument list of one CLI invocation.  Every response is
compared byte for byte with the output recorded in ``reference/``, and
then checked against facts that do not reuse the layer census: the two
Poincare routes agree, P(0) = 1, P(-1) = (-1)^n * prod(degrees) from the
degree table below, the F4 polynomial, the orbit-stabilizer relation and
the degree identity sums.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm, prod
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _requests(command: str, types: str) -> list[tuple[str, ...]]:
    return [(command, "--type", t, "--format", "json") for t in types.split()]


WORKLOADS: dict[str, list[tuple[str, ...]]] = {
    # Every request runs the cold K_d span enumeration; intlat does nearly
    # all of that work.  F4 and A5 set the latency tail.
    "census": _requests("poincare", "A3 A4 A5 B3 B4 C3 C4 D4 F4 G2 A3xA1 B2xG2")
    + _requests("census", "F4")
    + _requests("layers", "C4"),
    # The oracle path: every member of every K_d, the torsion-grid scan,
    # the Weyl element matrices and the explicit poset.
    "verify": _requests("verify", "G2 A3 B3 C3 A4 B4 D4 F4 A2xA1 B2xA1 A1xA1xA1")
    + _requests("poset", "B3 C3 G2xA1"),
    # The bypass: root closure, affine diagrams and type invariants only,
    # never the K_d enumeration.  `euler` is left out because for E6 and
    # above it falls back on CapabilityError, so a capability change would
    # change what the request does.
    "closed-forms": [
        req
        for t in "E8 E7 E6 F4 D8 B8 C8 A8 G2 E7xA1 D4xA3".split()
        for req in _requests("points", t) + _requests("identity", t)
    ],
}

_TYPE = re.compile(r"([A-G])(\d+)")


def parse_factors(text: str) -> list[tuple[str, int]]:
    """("F4" -> [("F", 4)], "A3xA1" -> [("A", 3), ("A", 1)])."""
    out = []
    for part in text.split("x"):
        m = _TYPE.fullmatch(part)
        if m is None:
            raise ValueError(f"not a root-system type: {text!r}")
        out.append((m.group(1), int(m.group(2))))
    return out


def degrees(family: str, n: int) -> tuple[int, ...]:
    """Degrees of the basic invariants of an irreducible Weyl group."""
    if family == "A":
        return tuple(range(2, n + 2))
    if family in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    if family == "D":
        return tuple(range(2, 2 * n - 1, 2)) + (n,)
    return {
        ("E", 6): (2, 5, 6, 8, 9, 12),
        ("E", 7): (2, 6, 8, 10, 12, 14, 18),
        ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
        ("F", 4): (2, 6, 8, 12),
        ("G", 2): (2, 6),
    }[(family, n)]


def weyl_order(family: str, n: int) -> int:
    return prod(degrees(family, n))


def grid_modulus(factors: list[tuple[str, int]]) -> int:
    """Modulus of the brute-force torsion grid: lcm over the factors of
    lcm(marks) * exponent of the center."""
    def one(family: str, n: int) -> int:
        if family == "A":
            return n + 1  # marks all 1, center cyclic of order n + 1
        if family in "BC":
            return 4  # marks lcm 2, center of order 2
        if family == "D":
            return 4 if n % 2 == 0 else 8  # marks lcm 2, center Z/2 x Z/2 or Z/4
        return {("E", 6): 18, ("E", 7): 24, ("E", 8): 60, ("F", 4): 12, ("G", 2): 6}[(family, n)]

    return lcm(*(one(f, n) for f, n in factors))


def _poly(coeffs: list[str]) -> list[int]:
    return [int(c) for c in coeffs]


F4_POINCARE = [1, 28, 286, 1260, 2153]


def _check_poincare(doc: dict, problems: list[str]) -> None:
    res = doc["results"]
    closed, by_layers = _poly(res["closed"]["coefficients"]), _poly(res["layers"]["coefficients"])
    if res["routes_agree"] is not True or closed != by_layers:
        problems.append("routes do not agree")
    if closed[0] != 1:
        problems.append(f"P(0) = {closed[0]}")
    factors = parse_factors(doc["type"])
    rank = sum(n for _, n in factors)
    expected = (-1) ** rank * prod(weyl_order(f, n) for f, n in factors)
    at_minus_one = sum(c * (-1) ** k for k, c in enumerate(closed))
    if at_minus_one != expected:
        problems.append(f"P(-1) = {at_minus_one}, expected {expected}")
    if doc["type"] == "F4" and closed != F4_POINCARE:
        problems.append(f"F4 polynomial {closed}")


def _check_verify(doc: dict, problems: list[str]) -> None:
    for row in doc["results"]["checks"]:
        if row["status"] == "mismatch":
            problems.append(f"verify check {row['name']} reads mismatch")


def _check_points(doc: dict, problems: list[str]) -> None:
    res = doc["results"]
    total = 1
    for factor in res["factors"]:
        (family, n), = parse_factors(factor["factor"])
        size = 0
        for orbit in factor["orbits"]:
            size += int(orbit["orbit_size"])
            if int(orbit["orbit_size"]) * int(orbit["stabilizer_order"]) != weyl_order(family, n):
                problems.append(f"{factor['factor']} vertex {orbit['vertex']}: orbit * stabilizer != |W|")
        if size != int(factor["total"]):
            problems.append(f"{factor['factor']}: orbit sizes do not sum to the total")
        total *= size
    if total != int(res["total"]):
        problems.append("point count is not the product over factors")


def _check_identity(doc: dict, problems: list[str]) -> None:
    for factor in doc["results"]["factors"]:
        terms = sum(Fraction(t["value"]) for t in factor["terms"])
        if factor["holds"] is not True or Fraction(factor["total"]) != 1 or terms != 1:
            problems.append(f"{factor['factor']}: degree identity does not sum to 1")


def _check_layers(doc: dict, problems: list[str]) -> None:
    counts = [int(c) for c in doc["results"]["by_dimension"]]
    if counts[-1] != 1 or sum(counts) != int(doc["results"]["total"]):
        problems.append("layer counts: top dimension is not 1 or the total is wrong")


def _check_census(doc: dict, problems: list[str]) -> None:
    records = doc["results"]["records"]
    top = [r for r in records if r["dim"] == doc["rank"]]
    if len(top) != 1 or top[0]["theta_orbit_size"] != "1":
        problems.append("census: the torus itself is not a single layer")
    for r in records:
        if sum(int(t["count"]) for t in r["phi_c_types"]) != int(r["layers_per_theta"]):
            problems.append(f"census: phi_c counts do not sum for {r['theta_type']}")


def _check_poset(doc: dict, problems: list[str]) -> None:
    elements, covers = doc["results"]["elements"], doc["results"]["covers"]
    if sum(1 for e in elements if e["dim"] == doc["rank"]) != 1:
        problems.append("poset: the torus itself is not a single element")
    if any(not 0 <= i < len(elements) or not 0 <= j < len(elements) for i, j in covers):
        problems.append("poset: cover index out of range")


_FACT_CHECKS = {
    "poincare": _check_poincare,
    "verify": _check_verify,
    "points": _check_points,
    "identity": _check_identity,
    "layers": _check_layers,
    "census": _check_census,
    "poset": _check_poset,
}


def fact_problems(request: tuple[str, ...], stdout: bytes) -> list[str]:
    """Facts a response must satisfy, independent of the recorded bytes."""
    problems: list[str] = []
    try:
        doc = json.loads(stdout)
        _FACT_CHECKS[request[0]](doc, problems)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"malformed response: {exc!r}")
    return problems


def load_reference(workload: str) -> dict[tuple[str, ...], tuple[int, bytes]]:
    """Recorded (exit code, stdout bytes) of every request of a workload."""
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        rows = json.load(fh)
    return {tuple(r["argv"]): (r["exit"], r["stdout"].encode("utf-8")) for r in rows}
