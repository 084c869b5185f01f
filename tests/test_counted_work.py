"""Counted work of the benchmark requests, a record that does not depend on the host.

Each request in `perfbench/reference/` is replayed in process through
`cli.main`, with every `lru_cache` of the package emptied first (found by
scanning the modules and their classes), as a fresh CLI process starts.
Wrappers count, summed per workload and command: root system
constructions, Cartan matrices of a type and theta ascents (one each per
affine diagram), Dynkin diagrams typed, Hermite normal forms, saturations,
lattice residues, n_theta indices, torsion-grid scans with the sum of
candidates times rows over them, and the flats the orbit walk visits, the
orbit sizes `parabolic_classes` returns.  The totals must equal
`counted_work.json` beside this file.  A change that moves a count records
the new totals there and states each old -> new count with its reason.
This only reads `perfbench/`.
"""

import functools
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from toricarr import cli, intlat, layers, oracle, rootsys, subsys

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
COUNTS = Path(__file__).resolve().parent / "counted_work.json"
WORKLOADS = ("census", "verify", "closed-forms")


def _package_modules():
    return [module for name, module in list(sys.modules.items()) if name.split(".")[0] == "toricarr"]


def _count(monkeypatch, fn, tally):
    """Rebind fn, in every toricarr namespace that holds it, to a wrapper calling tally(args, result)."""

    @functools.wraps(fn)
    def counted(*args):
        result = fn(*args)
        tally(args, result)
        return result

    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, counted)


def _replay(monkeypatch, capsys, clear_every_cache, workload):
    """{command: {count: total}} over the workload's requests."""
    totals = {}
    counts = Counter()  # the wrappers add to the totals of the command being replayed

    def calls(key):
        return lambda args, result: counts.update((key,))

    def grid_scan(args, result):
        rows, m, rank = args
        counts.update(grid_scans=1, grid_candidates_x_rows=m**rank * len(rows))

    init = rootsys.RootSystem.__init__

    def construct(rs, factors):
        counts.update(root_systems=1)
        init(rs, factors)

    monkeypatch.setattr(rootsys.RootSystem, "__init__", construct)
    _count(monkeypatch, rootsys._cartan_matrix, calls("cartan_matrix"))
    _count(monkeypatch, rootsys._ascend, calls("ascend"))
    _count(monkeypatch, rootsys._classify_diagram, calls("classify_diagram"))
    _count(monkeypatch, intlat.hermite_normal_form, calls("hermite_normal_form"))
    _count(monkeypatch, intlat.saturate, calls("saturate"))
    _count(monkeypatch, intlat.residue, calls("residue"))
    _count(monkeypatch, layers.n_theta, calls("n_theta"))
    _count(monkeypatch, oracle._grid_points, grid_scan)
    _count(
        monkeypatch, subsys.parabolic_classes,
        lambda args, result: counts.update(flats=sum(size for _, size in result)),
    )
    for row in json.loads((REFERENCE / f"{workload}.json").read_text()):
        clear_every_cache()
        counts = totals.setdefault(row["argv"][0], Counter())
        code = cli.main(list(row["argv"]))
        assert (capsys.readouterr().out, code) == (row["stdout"], row["exit"]), row["argv"]
    return {command: dict(sorted(counts.items())) for command, counts in totals.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counted_work_equals_the_record(monkeypatch, capsys, clear_every_cache, workload):
    counts = _replay(monkeypatch, capsys, clear_every_cache, workload)
    assert counts == json.loads(COUNTS.read_text())[workload], json.dumps(counts)


def test_record_names_every_workload():
    assert set(json.loads(COUNTS.read_text())) == set(WORKLOADS)
