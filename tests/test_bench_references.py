"""The CLI bytes of every benchmark request: stdout and exit code equal the recorded reference.

`perfbench/reference/<workload>.json` records each request's argv, stdout
and exit code.  Each request is replayed in process through `cli.main`,
with every library cache emptied first, as a fresh CLI process starts.
This only reads `perfbench/`.
"""

import json
from pathlib import Path

import pytest

from toricarr import cli

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
WORKLOADS = ("census", "verify", "closed-forms")
REQUESTS = [
    pytest.param(row, id=f"{workload}:{' '.join(row['argv'])}")
    for workload in WORKLOADS
    for row in json.loads((REFERENCE / f"{workload}.json").read_text())
]


@pytest.mark.parametrize("row", REQUESTS)
def test_request_replays_its_recorded_bytes(capsys, clear_every_cache, row):
    clear_every_cache()
    code = cli.main(list(row["argv"]))
    assert (capsys.readouterr().out, code) == (row["stdout"], row["exit"])


def test_every_workload_has_requests():
    # An empty reference file would leave nothing to replay and nothing failing.
    assert {param.id.split(":")[0] for param in REQUESTS} == set(WORKLOADS)
