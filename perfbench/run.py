"""Cold-request benchmark of the toricarr command line.

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

One load-generating process imports ``toricarr.cli`` from this checkout's
``src/`` and computes nothing else.  For each request it forks a child
that runs ``toricarr.cli.main(argv)`` with stdout captured, sends back the
stdout bytes, and exits with main's exit code; the parent reaps it with
``os.wait4``.  Every request therefore starts with all module caches
empty, as a CLI invocation does; interpreter start-up and import are
reported separately as ``setup_s``.  The load is a closed loop with one
client.  The request sequence is a seeded shuffle of whole sweeps over the
workload's request list, so the seed changes only the order; new sweeps
run as long as the next one is expected to end within ``--seconds``.

The host's speed changes by tens of percent within seconds, so every
time an untraced run reports is scaled to a fixed host speed: each request
child times the speed probes of ``calibrate.py`` before, during and after
``main``, and the request's latency, less the time in probes, is scaled by
``calibrate.REFERENCE_S`` over the median probe time.  Set-up launches are
scaled by probe readings taken just before and just after each launch.
The run, and every process it starts, is pinned to one CPU.

Every response is checked (see ``workloads.py``).  With ``--trace 0`` the
run prints the end-to-end metrics; with ``--trace 1`` each request runs
untraced and traced in turn, and the run prints the per-layer metrics of
``spans.py`` and writes every span to ``perfbench/out/``.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import marshal
import math
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import calibrate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_LAUNCHES = 15
CRASH_EXIT = 70  # exit code of a request child whose main raised

END_TO_END_UNITS = {
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_share": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; it exits without a result."""


def load_program():
    """Import toricarr.cli from this checkout's src/ and return it."""
    if not (SRC / "toricarr" / "cli.py").is_file():
        raise BenchError(f"no toricarr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import toricarr.cli

    if Path(toricarr.cli.__file__).resolve().parent != SRC / "toricarr":
        raise BenchError(f"imported {toricarr.cli.__file__}, not the checkout's sources")
    return toricarr.cli


class ColdGuard:
    """Asserts that the parent never calls into toricarr and its caches stay empty.

    The caches are found by scanning every toricarr module and class for
    functools.lru_cache objects, so renamed or added caches stay covered.
    A profile hook records any call whose code lives in the package.
    """

    def __init__(self, package_dir: Path):
        self.package_dir = str(package_dir)
        self.calls: list[str] = []
        self.caches = self._find_caches()
        if not self.caches:
            raise BenchError("found no lru_cache objects in toricarr")
        sys.setprofile(self._hook)

    @staticmethod
    def _find_caches() -> dict[str, functools._lru_cache_wrapper]:
        found = {}
        for name, module in list(sys.modules.items()):
            if name != "toricarr" and not name.startswith("toricarr."):
                continue
            values = list(vars(module).values())
            values += [
                getattr(attr, "fget", attr)
                for value in values
                if isinstance(value, type)
                for attr in vars(value).values()
            ]
            for value in values:
                if isinstance(value, functools._lru_cache_wrapper):
                    found[f"{value.__module__}.{value.__qualname__}"] = value
        return found

    def _hook(self, frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(self.package_dir):
            self.calls.append(frame.f_code.co_name)

    def check(self) -> None:
        if self.calls:
            raise BenchError(f"the load generator called into toricarr: {sorted(set(self.calls))}")
        warm = [label for label, cache in self.caches.items() if cache.cache_info().currsize]
        if warm:
            raise BenchError(f"toricarr caches are not empty: {warm}")


@dataclass
class Response:
    exit_code: int
    stdout: bytes
    stderr: str
    latency_s: float  # fork until reaped
    request_s: float  # inside main
    maxrss_kb: int
    spans: list
    probes: list  # seconds per speed probe; empty unless probed

    def scaled_s(self) -> float:
        """Latency less the time in probes, at the reference speed."""
        return (self.latency_s - sum(self.probes)) * calibrate.REFERENCE_S / statistics.median(self.probes)


def _child(main, argv, targets, probe: bool, wfd: int) -> None:
    code = CRASH_EXIT
    try:
        sys.setprofile(None)
        recorded = spans.install(targets) if targets is not None else []
        sampler = calibrate.Sampler()
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        if probe:
            sampler.start()
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except BaseException:  # a crash is a failed response, reported by the parent
            err.write(traceback.format_exc())
            code = CRASH_EXIT
        request_s = time.perf_counter() - start
        if probe:
            sampler.stop()
        payload = marshal.dumps(
            (out.getvalue().encode("utf-8"), err.getvalue(), request_s, recorded, sampler.times)
        )
        with os.fdopen(wfd, "wb") as fh:
            fh.write(payload)
    finally:
        os._exit(code if isinstance(code, int) else CRASH_EXIT)


def run_request(main, argv, targets=None, probe=False) -> Response:
    """Run one request in a fresh fork; targets set means traced, probe means speed-probed."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(main, argv, targets, probe, wfd)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    latency = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if not data:
        return Response(code, b"", "child sent nothing", latency, 0.0, usage.ru_maxrss, [], [])
    stdout, stderr, request_s, recorded, probes = marshal.loads(data)
    return Response(code, stdout, stderr, latency, request_s, usage.ru_maxrss, recorded, probes)


class Checker:
    """Compares responses with the recorded ones and checks their facts."""

    def __init__(self, workload: str):
        self.reference = workloads.load_reference(workload)
        self.facts: dict[bytes, list[str]] = {}
        self.reported = 0

    def problems(self, argv, response: Response) -> list[str]:
        expected_exit, expected_stdout = self.reference[argv]
        if response.exit_code != expected_exit:
            return [f"exit code {response.exit_code}, expected {expected_exit}: {response.stderr[-500:]}"]
        out = []
        if response.stdout != expected_stdout:
            out.append("stdout differs from the recorded bytes")
        if response.stdout not in self.facts:
            self.facts[response.stdout] = workloads.fact_problems(argv, response.stdout)
        return out + self.facts[response.stdout]

    def report(self, argv, problems: list[str]) -> None:
        if self.reported < 10:
            print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
        self.reported += 1


def measure_setup() -> tuple[float, float]:
    """Median time from launching an interpreter until `import toricarr.cli` returns.

    Returns the median scaled to the reference host speed, and raw.
    """
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import toricarr.cli; "
        "sys.stdout.write(toricarr.cli.__file__); sys.stdout.flush()"
    )
    times = []
    readings = [calibrate.measure()]
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT
        ) as proc:
            first = proc.stdout.read(1)
            times.append(time.perf_counter() - start)
            path = first + proc.stdout.read()
        if proc.returncode != 0 or Path(path.decode()).resolve().parent != SRC / "toricarr":
            raise BenchError(f"set-up launch failed: exit {proc.returncode}, imported {path!r}")
        readings.append(calibrate.measure())
    scaled = [t * 2 * calibrate.REFERENCE_S / (a + b) for t, a, b in zip(times, readings, readings[1:])]
    return statistics.median(scaled), statistics.median(times)


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics.  A
    run of census or verify holds only a few samples of each request type,
    and its median falls between two such clusters; a single order
    statistic there swings with the extremes of a few samples, while this
    estimate averages over the samples around the quantile.  It is not
    used for p90: the weights would reach into the next cluster, which for
    verify (F4) is seven times slower.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule over each ((i-1)/n, i/n)
    weights = []
    for i in range(n):
        total = 0.0
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            total += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(total)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    requests = workloads.WORKLOADS[workload]
    checker = Checker(workload)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cli = load_program()
    guard = ColdGuard(Path(cli.__file__).resolve().parent)
    targets = spans.find_targets() if trace else None
    setup_s, raw_setup_s = measure_setup() if not trace else (0.0, 0.0)
    rng = random.Random(seed)

    attempted = failed = sweeps = sent = 0
    latencies: list[float] = []
    scaled: list[float] = []  # latency at the reference speed
    probe_s: list[float] = []  # median probe time of each request
    maxrss_kb = 0
    walls = {False: 0.0, True: 0.0}  # fork-to-reap seconds, untraced and traced
    breakdown = spans.Breakdown([t[0] for t in targets]) if trace else None
    traced_requests = []

    start = time.perf_counter()
    elapsed = 0.0
    # Whole sweeps, as long as the next one is expected to end within `seconds`.
    while sweeps == 0 or elapsed * (sweeps + 1) / sweeps <= seconds:
        for argv in rng.sample(requests, len(requests)):
            guard.check()
            sent += 1
            if trace:
                # Alternate which of the pair runs first.
                order = (None, targets) if sent % 2 else (targets, None)
                pair = {t is not None: run_request(cli.main, argv, t) for t in order}
            else:
                pair = {False: run_request(cli.main, argv, probe=True)}
            for traced, response in pair.items():
                attempted += 1
                problems = checker.problems(argv, response)
                if traced and response.stdout != pair[False].stdout:
                    problems.append("traced and untraced responses differ")
                if problems:
                    failed += 1
                    checker.report(argv, problems)
                walls[traced] += response.latency_s
                if traced:
                    breakdown.add(response.spans, response.request_s)
                    traced_requests.append((argv, marshal.dumps(response.spans)))
                else:
                    latencies.append(response.latency_s)
                    if response.probes:
                        scaled.append(response.scaled_s())
                        probe_s.append(statistics.median(response.probes))
                    maxrss_kb = max(maxrss_kb, response.maxrss_kb)
        sweeps += 1
        elapsed = time.perf_counter() - start
    wall = elapsed
    guard.check()
    sys.setprofile(None)

    if trace:
        metrics = breakdown.metrics(sweeps, (walls[True] - walls[False]) / walls[False])
        units = spans.per_layer_units()
        OUT.mkdir(exist_ok=True)
        spans.write_spans(OUT / f"spans-{workload}.jsonl", breakdown.names, traced_requests)
    else:
        metrics = {
            "throughput_rps": (attempted - failed) / sum(scaled),
            "latency_p50_ms": harrell_davis(scaled, 0.5) * 1e3,
            # p90 lies inside one request type's cluster; the inclusive
            # method (numpy's default) takes that cluster's median there.
            "latency_p90_ms": statistics.quantiles(scaled, n=10, method="inclusive")[8] * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": maxrss_kb / 1024,
            "success_share": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
        beyond = sum(1 for x in scaled if x * 1e3 > metrics["latency_p90_ms"])
        print(
            f"{workload}: {sweeps} sweeps of {len(requests)} requests, {len(latencies)} latency "
            f"samples, {beyond} beyond p90, {wall:.1f} s; median probe "
            f"{statistics.median(probe_s) * 1e6:.0f} us (reference {calibrate.REFERENCE_S * 1e6:.0f} us)"
        )
        print(
            f"  unscaled: {(attempted - failed) / wall:.4f} req/s over the wall time, "
            f"p50 {harrell_davis(latencies, 0.5) * 1e3:.2f} ms, "
            f"p90 {statistics.quantiles(latencies, n=10, method='inclusive')[8] * 1e3:.2f} ms, "
            f"setup {raw_setup_s:.4f} s"
        )
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6f} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
