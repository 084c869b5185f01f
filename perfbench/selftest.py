"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Takes about half a minute.  Checks that tracing does not change a
response, that every count repeats exactly between two traced runs, that
speed probes do not change a response and are all collected, that every
metric named in BENCHMARK.json is printed with its unit, that the
cold-state guard fires, and that the grid modulus table matches the
program's.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

import calibrate
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent


def _rank(argv) -> int:
    return sum(n for _, n in workloads.parse_factors(argv[argv.index("--type") + 1]))


# A short pass over each workload: its requests of rank at most 3, and all
# of closed-forms, whose requests are all fast.
SMOKE = {
    name: [argv for argv in requests if name == "closed-forms" or _rank(argv) <= 3]
    for name, requests in workloads.WORKLOADS.items()
}


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, timeout=120
    )


class TracingTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = run.load_program()
        cls.targets = spans.find_targets()
        cls.names = [t[0] for t in cls.targets]

    def _counts(self, response):
        breakdown = spans.Breakdown(self.names)
        breakdown.add(response.spans, response.request_s)
        return breakdown.calls, breakdown.flats, breakdown.grid_candidates, breakdown.grid_points

    def test_tracing_is_neutral_and_counts_repeat(self):
        for name, requests in SMOKE.items():
            self.assertTrue(requests, name)
            reference = workloads.load_reference(name)
            for argv in requests:
                with self.subTest(argv=" ".join(argv)):
                    plain = run.run_request(self.cli.main, argv)
                    first = run.run_request(self.cli.main, argv, self.targets)
                    second = run.run_request(self.cli.main, argv, self.targets)
                    self.assertEqual((plain.exit_code, plain.stdout), reference[argv])
                    self.assertEqual(first.stdout, plain.stdout)
                    self.assertEqual(second.stdout, plain.stdout)
                    self.assertTrue(first.spans)
                    self.assertEqual(self._counts(first), self._counts(second))


class ProbeTest(unittest.TestCase):
    def test_probes_are_neutral_and_collected(self):
        cli = run.load_program()
        argv = ("verify", "--type", "B3", "--format", "json")  # about 0.3 s, so probed while it runs
        plain = run.run_request(cli.main, argv)
        probed = run.run_request(cli.main, argv, probe=True)
        self.assertEqual((probed.exit_code, probed.stdout), workloads.load_reference("verify")[argv])
        self.assertEqual(probed.stdout, plain.stdout)
        self.assertEqual(plain.probes, [])
        in_main = len(probed.probes) - 2 * calibrate.AROUND
        self.assertGreaterEqual(in_main, int(probed.request_s / calibrate.EVERY_S) - 1)
        self.assertLess(sum(probed.probes), probed.latency_s)
        self.assertGreater(probed.scaled_s(), 0)


class OutputTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        with open(HERE.parent / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in bench[key]}
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "closed-forms",
                 "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=170,
            )
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(printed, expected)


class GuardTest(unittest.TestCase):
    def test_guard_fires_after_a_call_into_the_program(self):
        proc = _python(
            "import run\n"
            "from pathlib import Path\n"
            "cli = run.load_program()\n"
            "guard = run.ColdGuard(Path(cli.__file__).parent)\n"
            "guard.check()\n"
            "cli.build(cli.parse_type('A2'))\n"
            "try:\n"
            "    guard.check()\n"
            "except run.BenchError as exc:\n"
            "    print('fired:', exc)\n"
        )
        self.assertIn("fired: the load generator called into toricarr", proc.stdout, proc.stderr)

    def test_guard_finds_caches_by_scanning(self):
        proc = _python(
            "import run\n"
            "from pathlib import Path\n"
            "cli = run.load_program()\n"
            "print(sorted(run.ColdGuard(Path(cli.__file__).parent).caches))\n"
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("toricarr.rootsys.build", proc.stdout)
        self.assertIn("toricarr.subsys._span_levels", proc.stdout)


class TableTest(unittest.TestCase):
    def test_grid_modulus_matches_the_program(self):
        types = sorted({argv[argv.index("--type") + 1]
                        for requests in workloads.WORKLOADS.values() for argv in requests})
        proc = _python(
            "import json, run\n"
            "cli = run.load_program()\n"
            "from toricarr import oracle, rootsys\n"
            f"print(json.dumps({{t: oracle.order_bound(rootsys.parse_type(t)) for t in {types!r}}}))\n"
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        for type_text, modulus in json.loads(proc.stdout).items():
            self.assertEqual(workloads.grid_modulus(workloads.parse_factors(type_text)), modulus, type_text)


if __name__ == "__main__":
    unittest.main()
