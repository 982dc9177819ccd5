"""Run every workload at one seed and print every end-to-end metric.

Usage, from the repository root::

    python3 perfbench/suite.py --seed 1

Each workload runs untraced in its own fresh interpreter
(``perfbench/run.py``, for ``BENCHMARK.json``'s ``run_seconds``), one after
the other.  Their reports are relayed as they finish, then one table lists
each workload's metrics with units and ``error_rate``.  The exit status is
non-zero when a run fails or any check does not hold.  A traced run is
``run.py --trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import HERE, ROOT, WORKLOAD_NAMES


def run_workload(workload: str, seed: int):
    """Run one workload untraced in a fresh interpreter; return ``(result, stdout)``.

    ``result`` is the parsed JSON of the run's last line, or ``None`` when
    the run exited non-zero (its stderr is then relayed).
    """
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        return None, completed.stdout
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    results = {}
    status = 0
    for workload in WORKLOAD_NAMES:
        result, report = run_workload(workload, args.seed)
        print(report, flush=True)
        if result is None or not result["correct"]:
            status = 1
        results[workload] = result
    print(f"\nsummary, seed {args.seed}:")
    for workload, result in results.items():
        if result is None:
            print(f"  {workload:<14} run failed")
            continue
        error_rate = result["failed"] / result["attempted"]
        cells = [f"error_rate={error_rate:g} ({result['attempted']} ops)"]
        cells += [
            f"{name}={metric['value']:.6g} {metric['unit']}"
            for name, metric in result["metrics"].items()
        ]
        print(f"  {workload:<14} " + ", ".join(cells))
    return status


if __name__ == "__main__":
    sys.exit(main())
