"""Outside-in tracing of toricarr's module boundaries.

Nothing inside ``src/`` is instrumented.  ``find_targets`` lists every
public function of the library modules and every public method of their
classes; ``install`` runs in a forked request child and rebinds each of
them, in every ``toricarr`` module namespace that holds it (including
names brought in with ``from .x import y``) and on the class.  Each
wrapper appends one span ``[name, parent span, start, end, probe]`` to an
in-memory list that the child sends back to the parent after the
request.  ``Breakdown`` turns those spans into calls and self time per
function, where self time is a span's duration minus that of its child
spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import marshal
import sys
import time
from collections import defaultdict
from typing import Callable

import workloads

LIBRARY_MODULES = ("rootsys", "weyl", "subsys", "layers", "oracle", "intlat")
MODULES = ("cli",) + LIBRARY_MODULES

# Functions whose calls and self time are per-layer metrics.
REPORTED = (
    "intlat.saturate",
    "intlat.invert_unimodular",
    "intlat.smith_normal_form",
    "intlat.hermite_normal_form",
    "intlat.rational_rank",
    "intlat.solve_rational",
    "intlat.lattice_index",
    "intlat.SpanChecker.contains",
    "subsys.enumerate_complete",
    "subsys.make_subsystem",
    "subsys.w_orbit_census",
    "weyl.WeylGroup.elements",
    "weyl.WeylGroup.element_matrices",
    "weyl.center_subgroup",
    "layers.n_theta",
    "layers.point_type_multiset",
    "layers.layer_census",
    "layers.poincare",
    "oracle.brute_points",
    "oracle.component_count",
    "oracle.build_poset",
    "rootsys.build",
    "rootsys.affine_diagram",
    "rootsys.classify_dynkin",
    "rootsys.type_invariants",
)

# Counts and ratios derived from spans and from what the traced calls
# returned, with their units.
DERIVED = {
    "subsys.flats": "count",
    "subsys.flats_per_saturate": "ratio",
    "oracle.grid_candidates": "count",
    "oracle.grid_hit_ratio": "ratio",
    "trace.overhead_share": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for name in REPORTED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    units.update(DERIVED)
    return units


def _factors(rs) -> tuple:
    return tuple((sym.family, sym.rank) for sym in rs.factors)


# What the parent keeps from a traced call's arguments and result.
PROBES: dict[str, Callable] = {
    "subsys.enumerate_complete": lambda args, kwargs, result: len(result.members),
    "oracle.brute_points": lambda args, kwargs, result: (_factors(args[0]), len(result)),
}


def find_targets() -> list[tuple[str, object, str, object]]:
    """(name, owner, attribute, callable) for every callable to trace.

    Scanning reads attributes only; it calls nothing in toricarr.
    """
    targets = []
    for short in LIBRARY_MODULES:
        module = sys.modules[f"toricarr.{short}"]
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                for meth, fn in vars(value).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        targets.append((f"{short}.{attr}.{meth}", value, meth, fn))
            elif callable(value):
                targets.append((f"{short}.{attr}", module, attr, value))
    return targets


def install(targets) -> list[list]:
    """Wrap every target in this process; return the list spans go to."""
    spans: list[list] = []
    stack = [-1]
    perf = time.perf_counter

    def wrap(index: int, fn, probe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [index, stack[-1], perf(), 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf()
                stack.pop()
            if probe is not None:
                record[4] = probe(args, kwargs, result)
            return result

        return traced

    replacements = {}
    for index, (name, owner, attr, fn) in enumerate(targets):
        wrapper = wrap(index, fn, PROBES.get(name))
        if inspect.isclass(owner):
            setattr(owner, attr, wrapper)
        else:
            replacements[id(fn)] = wrapper
    for module_name, module in list(sys.modules.items()):
        if module_name != "toricarr" and not module_name.startswith("toricarr."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, attr, replacements[id(value)])
    return spans


class Breakdown:
    """Per-function calls and self time summed over the traced requests."""

    def __init__(self, names: list[str]):
        self.names = names
        self.calls = [0] * len(names)
        self.self_s = [0.0] * len(names)
        self.cli_self_s = 0.0
        self.flats = 0
        self.grid_candidates = 0
        self.grid_points = 0

    def add(self, spans: list, request_s: float) -> None:
        """Fold in the spans of one request that took request_s inside main."""
        children = [0.0] * len(spans)
        top = 0.0
        for _, parent, start, end, _ in spans:
            if parent < 0:
                top += end - start
            else:
                children[parent] += end - start
        for i, (index, _, start, end, probe) in enumerate(spans):
            self.calls[index] += 1
            self.self_s[index] += end - start - children[i]
            name = self.names[index]
            if name == "subsys.enumerate_complete":
                self.flats += probe
            elif name == "oracle.brute_points":
                factors, points = probe
                rank = sum(n for _, n in factors)
                self.grid_candidates += workloads.grid_modulus(list(factors)) ** rank
                self.grid_points += points
        self.cli_self_s += request_s - top

    def metrics(self, sweeps: int, overhead_share: float) -> dict[str, float]:
        """Per-layer metrics, each per sweep over the workload's requests."""
        # A reported function that a later version no longer has reads 0.
        calls = defaultdict(int, zip(self.names, self.calls))
        self_s = defaultdict(float, zip(self.names, self.self_s))
        out: dict[str, float] = {}
        for name in REPORTED:
            out[f"{name}.calls"] = calls[name] / sweeps
            out[f"{name}.self_s"] = self_s[name] / sweeps
        module_s = defaultdict(float, cli=self.cli_self_s)
        for name, seconds in zip(self.names, self.self_s):
            module_s[name.split(".")[0]] += seconds
        for module in MODULES:
            out[f"{module}.self_s"] = module_s[module] / sweeps
        saturates = calls["intlat.saturate"]
        out["subsys.flats"] = self.flats / sweeps
        out["subsys.flats_per_saturate"] = self.flats / saturates if saturates else 0.0
        out["oracle.grid_candidates"] = self.grid_candidates / sweeps
        out["oracle.grid_hit_ratio"] = (
            self.grid_points / self.grid_candidates if self.grid_candidates else 0.0
        )
        out["trace.overhead_share"] = overhead_share
        return out


def write_spans(path, names: list[str], requests: list[tuple[tuple[str, ...], bytes]]) -> None:
    """Write every span of a run as JSON lines: the names, then one line per request.

    Each request's spans arrive marshalled, as the child sent them.  Times
    are nanoseconds from the request's first span.
    """
    with open(path, "w") as fh:
        fh.write(json.dumps({"names": names}) + "\n")
        for number, (argv, data) in enumerate(requests):
            recorded = marshal.loads(data)
            origin = recorded[0][2] if recorded else 0.0
            rows = [
                [index, parent, round((start - origin) * 1e9), round((end - origin) * 1e9)]
                for index, parent, start, end, _ in recorded
            ]
            fh.write(json.dumps({"request": number, "argv": list(argv), "spans": rows}) + "\n")
