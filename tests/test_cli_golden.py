"""The CLI bytes of every command in every format it offers: stdout, stderr and exit code.

`cli_golden.json` beside this file records, for each argv of `requests()`,
what a fresh `toricarr` process printed and returned.  Each request is
replayed in process through `cli.main`, with every library cache emptied
first and the working directory a new empty one, and must give the same
bytes.  Running this module as a script records the file again from the
`toricarr` on `PYTHONPATH`, one interpreter per request; do that only at
a commit whose bytes are trusted.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from toricarr import cli

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"


def requests():
    """Every command in each of its formats on G2 and A3xA1, two more posets, two refusals and a bad --out."""
    argvs = [
        [command, "--type", t, "--format", fmt]
        for t in ("G2", "A3xA1")
        for command, (_, formats, *_) in cli._COMMANDS.items()
        for fmt in formats
    ]
    for extra in (["B3"], ["A3xA1", "--poset-rank", "4"]):  # A3xA1 is past the default poset rank
        argvs += [["poset", "--type", *extra, "--format", fmt] for fmt in cli._COMMANDS["poset"][1]]
    return argvs + [
        ["poset", "--type", "E6", "--poset-rank", "6"],
        ["points", "--type", "A215"],
        ["points", "--type", "A1", "--out", "missing/x.json"],
    ]


ROWS = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("row", ROWS, ids=[" ".join(row["argv"]) for row in ROWS])
def test_request_replays_its_golden_bytes(capsys, monkeypatch, tmp_path, clear_every_cache, row):
    clear_every_cache()
    monkeypatch.chdir(tmp_path)
    code = cli.main(list(row["argv"]))
    captured = capsys.readouterr()
    assert (captured.out, captured.err, code) == (row["stdout"], row["stderr"], row["exit"])


def test_golden_file_covers_every_request():
    assert [row["argv"] for row in ROWS] == requests()


def _record():
    script = "import sys\nfrom toricarr import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
    rows = []
    for argv in requests():
        with tempfile.TemporaryDirectory() as cwd:
            proc = subprocess.run(
                [sys.executable, "-c", script, *argv], capture_output=True, text=True, cwd=cwd, timeout=120
            )
        rows.append({"argv": argv, "stdout": proc.stdout, "stderr": proc.stderr, "exit": proc.returncode})
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    _record()
