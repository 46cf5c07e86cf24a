"""Record a ``BENCH_<n>.json``: the perfbench lines of a fixed set of runs.

Usage, from the root of a git checkout of the commit to measure::

    python3 scripts/record_bench.py BENCH_<n>.json

It runs ``perfbench/run.py --seed 1 --seconds 40`` one run at a time:
``--trace 0`` and ``--trace 1`` for each workload that ``BENCHMARK.json``
lists, then one ``--trace 1`` run of ``wide-sparse``, which it does not
list. For each run the file keeps the environment line and the result
line as ``run.py`` printed them, and whether ``BENCHMARK.json`` lists the
workload. From a ``git archive`` export the environment line records
``git_commit: null``, so run it from a checkout.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SEED, SECONDS = 1, 40
UNLISTED = ("wide-sparse",)


def run(workload: str, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    environment, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return {"command": " ".join(["python3", *command[1:]]), "listed": workload not in UNLISTED,
            **environment, "result": result}


def main(path: str) -> None:
    listed = [w["name"] for w in json.loads(Path("BENCHMARK.json").read_text())["workloads"]]
    plan = [(w, trace) for w in listed for trace in (0, 1)] + [(w, 1) for w in UNLISTED]
    runs = []
    for workload, trace in plan:
        print(f"{workload} --trace {trace}", file=sys.stderr, flush=True)
        runs.append(run(workload, trace))
    Path(path).write_text(json.dumps({"runs": runs}, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 scripts/record_bench.py BENCH_<n>.json")
    main(sys.argv[1])
