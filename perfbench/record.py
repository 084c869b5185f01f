"""Record the stdout bytes and exit code of every request of every workload.

    python3 perfbench/record.py

Writes ``perfbench/reference/<workload>.json``.  The recorded outputs are
what the benchmark compares every response with, byte for byte, so run
this only at a commit whose CLI output is the accepted one.
"""

import json

import run
import workloads


def main() -> None:
    cli = run.load_program()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, requests in workloads.WORKLOADS.items():
        rows = []
        for argv in requests:
            response = run.run_request(cli.main, argv)
            rows.append({"argv": list(argv), "exit": response.exit_code, "stdout": response.stdout.decode("utf-8")})
            print(f"{name}: {' '.join(argv)} -> exit {response.exit_code}, {len(response.stdout)} bytes")
        with open(workloads.REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
