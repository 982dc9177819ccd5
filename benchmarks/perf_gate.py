"""Fail when one checkout is slower than another on the end-to-end benchmark.

Usage, with two checkouts of this repository::

    python3 benchmarks/perf_gate.py BASE HEAD --pairs 4 --seconds 5

For every perfbench workload the script runs ``perfbench/run.py --workload
W --seed S --seconds T --trace 0`` of each checkout in turn, so each side
runs its own ``src/``.  Pair ``i`` runs both sides at seed ``i + 1``; the
side that runs first alternates from one pair to the next, so an even
``--pairs`` lets each side go first equally often.  The gate fails when a
run exits non-zero or reports ``"correct": false``, or when the head's
median of an end-to-end metric is worse than the base's by more than that
metric's ``bound`` in the head's ``BENCHMARK.json`` (``better`` gives the
direction).  With ``--out DIR`` every run's output is kept as
``DIR/<side>-<workload>-<pair>.out``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time


def _run(checkout, workload, seed, seconds):
    """One untraced perfbench run of ``checkout``: ``(result or None, stdout)``."""
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(checkout, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        return None, completed.stdout
    return json.loads(completed.stdout.strip().splitlines()[-1]), completed.stdout


def _cell(q):
    return f"{q[1]:.5g} ({q[0]:.5g}-{q[2]:.5g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="checkout the head is compared against")
    parser.add_argument("head", help="checkout under test; its BENCHMARK.json sets the bounds")
    parser.add_argument("--pairs", type=int, required=True, help="runs per side and workload (even)")
    parser.add_argument("--seconds", type=float, required=True, help="length of each run")
    parser.add_argument("--out", help="directory that keeps every run's output")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.pairs % 2:
        parser.error("--pairs must be a positive even number")
    sides = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    sys.path.insert(0, os.path.join(sides["head"], "perfbench"))
    from run import WORKLOAD_NAMES, load_spec
    from steadiness import quartiles

    metrics = load_spec()["end_to_end"]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    values = {
        (side, workload): {metric["name"]: [] for metric in metrics}
        for side in sides
        for workload in WORKLOAD_NAMES
    }
    failures = []
    start = time.perf_counter()
    for i in range(args.pairs):
        seed = i + 1
        for workload in WORKLOAD_NAMES:
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                result, stdout = _run(sides[side], workload, seed, args.seconds)
                if args.out:
                    path = os.path.join(args.out, f"{side}-{workload}-{i}.out")
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(stdout)
                label = f"pair {i} {workload} {side} seed {seed}"
                if result is None or not result["correct"]:
                    failures.append(f"{label}: run failed or incorrect")
                    print(f"{label}: failed or incorrect", flush=True)
                    continue
                run_values = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
                for name, value in run_values.items():
                    values[(side, workload)][name].append(value)
                print(
                    f"{label}: " + ", ".join(f"{k}={v:.5g}" for k, v in run_values.items()),
                    flush=True,
                )

    print(
        f"\n{'workload':<14} {'metric':<12} {'base median (q1-q3)':>30} "
        f"{'head median (q1-q3)':>30} {'change':>7} {'bound':>6}"
    )
    for workload in WORKLOAD_NAMES:
        for metric in metrics:
            base = values[("base", workload)][metric["name"]]
            head = values[("head", workload)][metric["name"]]
            if not base or not head:
                continue
            qb, qh = quartiles(base), quartiles(head)
            change = (qh[1] - qb[1]) / qb[1]
            worse = change if metric["better"] == "lower" else -change
            verdict = "WORSE" if worse > metric["bound"] else ""
            print(
                f"{workload:<14} {metric['name']:<12} {_cell(qb):>30} {_cell(qh):>30} "
                f"{change:>+7.1%} {metric['bound']:>6.0%}  {verdict}"
            )
            if verdict:
                failures.append(
                    f"{workload} {metric['name']}: head median {qh[1]:.5g} against base "
                    f"{qb[1]:.5g}, {change:+.1%} ({metric['better']} is better, "
                    f"bound {metric['bound']:.0%})"
                )
    for failure in failures:
        print(f"FAIL {failure}")
    print(
        f"perf gate {'failed' if failures else 'passed'}: {args.pairs} pairs of "
        f"{args.seconds:g} s runs per workload, {time.perf_counter() - start:.0f} s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
