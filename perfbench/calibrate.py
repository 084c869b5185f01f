"""Speed probes: read the host's current speed so measured times can be scaled.

The benchmark shares a virtual machine whose CPU speed switches between
states about 1.7x apart every few seconds, and shifts for minutes at a
time.  Process CPU time moves with it, so neither wall time nor CPU time
of a request is steady from run to run.  The benchmark therefore times a
fixed probe while each request runs and scales the request's time by
``REFERENCE_S / median probe time``: the time then reads as it would on
a host where one probe takes ``REFERENCE_S``.

A probe is a short pure-Python kernel that imports nothing from
toricarr, so a change to the program cannot move it.  Its work resembles
the program's: Gauss-Jordan elimination over ``Fraction`` (as in
``intlat``) and hashing and sorting tuples (as in ``rootsys``, ``weyl``
and ``subsys``).  Its time follows a request's far more closely than a
plain integer loop's does: their logs correlate about 0.8 against 0.3 to
0.5 over repeats of one request.  Inside a request
child, ``Sampler`` runs a few probes before and after ``main`` and one on
a SIGALRM every ``EVERY_S`` while it runs, so a request that spans a
change of speed is scaled by the speed it actually got.  The time spent
in probes is reported so it can be subtracted from the request's latency.
"""

from __future__ import annotations

import marshal
import os
import signal
import statistics
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.0007  # one probe, at this host's typical speed (2-vCPU VM, Python 3.11)
EVERY_S = 0.05
AROUND = 3  # probes before and after main
READING = 9  # probes per reading of measure()

_MATRIX = ((2, -1, 0, 1), (1, 3, -2, 0), (0, 1, 1, -1), (1, 0, 2, 3))


def _kernel() -> list:
    m = [[Fraction(x) for x in row] for row in _MATRIX]
    for c in range(len(m)):
        inv = Fraction(1) / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(len(m)):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    seen: dict[tuple[int, ...], int] = {}
    for i in range(300):
        key = (i % 7, i % 5, i % 3, i % 11)
        seen[key] = seen.get(key, 0) + 1
    return sorted(seen)


def probe() -> float:
    """Seconds taken by one probe now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class Sampler:
    """Probes in a request child: AROUND before, one every EVERY_S, AROUND after."""

    def __init__(self):
        self.times: list[float] = []

    def _around(self) -> None:
        for _ in range(AROUND):
            self.times.append(probe())

    def _on_alarm(self, signum, frame) -> None:
        self.times.append(probe())

    def start(self) -> None:
        self._around()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._around()


def measure() -> float:
    """Median probe time now, read in a fresh fork."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            sys.setprofile(None)
            os.close(rfd)
            os.write(wfd, marshal.dumps(statistics.median(probe() for _ in range(READING))))
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    if not data:
        raise OSError("the probe child sent nothing")
    return marshal.loads(data)
