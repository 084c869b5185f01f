"""The benchmark's tracing and cache-scan self-tests, run from `perfbench/` as `python3 selftest.py` is.

`TracingTest` checks that the trace probes of `perfbench/spans.py` still
find their functions in `src/`, leave every response unchanged and count
the same work twice; `GuardTest` that the cold-state guard fires and finds
the caches it names.  A change to `src/` can break either.  `OutputTest`
is left out because it writes `perfbench/out/`.  This only reads
`perfbench/`.
"""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracing_and_guard_self_tests_pass():
    proc = subprocess.run(
        [sys.executable, "selftest.py", "TracingTest", "GuardTest"],
        cwd=PERFBENCH, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
