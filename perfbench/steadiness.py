"""Two interleaved sets of runs of the same code, compared metric by metric.

Usage, from the repository root::

    python3 perfbench/steadiness.py --runs 10

Every run is an untraced run of one workload for ``BENCHMARK.json``'s
``run_seconds``.  Run ``i`` of both sets uses seed ``--seed + i``; the order
of the two sets alternates from one ``i`` to the next, so slow drift of the
host lands on both.  For every workload and end-to-end metric the report
gives each set's sample count, quartiles and median, the spread
(interquartile range over the median) and the change of set B's median
against set A's.  The two sets run the same code in an arbitrary order, so
a pair is flagged when either set's spread exceeds the metric's bound in
``BENCHMARK.json`` (``SPREAD``), or when the two medians differ by more than
the bound in either direction (``DRIFT``); a spread above a third of the
bound is marked as noisy.  The exit status is non-zero when any pair is
flagged or a run fails.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from run import WORKLOAD_NAMES, load_spec
from suite import run_workload


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def compare(values_a, values_b, metric):
    """Quartiles of both sets, their spreads, the median change and flags."""
    qa = quartiles(values_a)
    qb = quartiles(values_b)
    spread_a = (qa[2] - qa[0]) / qa[1]
    spread_b = (qb[2] - qb[0]) / qb[1]
    change = (qb[1] - qa[1]) / qa[1]
    bound = metric["bound"]
    flags = []
    if max(spread_a, spread_b) > bound:
        flags.append("SPREAD")
    if abs(change) > bound:
        flags.append("DRIFT")
    if not flags and max(spread_a, spread_b) > bound / 3:
        flags.append("noisy")
    return qa, qb, spread_a, spread_b, change, flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first run")
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric for metric in load_spec()["end_to_end"]}
    values = {
        (label, workload): {name: [] for name in bounds}
        for label in "AB"
        for workload in WORKLOAD_NAMES
    }
    status = 0
    for i in range(args.runs):
        for label in ("AB" if i % 2 == 0 else "BA"):
            for workload in WORKLOAD_NAMES:
                result, _report = run_workload(workload, args.seed + i)
                if result is None or not result["correct"]:
                    print(f"run {label}{i} {workload}: failed or incorrect")
                    status = 1
                    continue
                for name in bounds:
                    values[(label, workload)][name].append(result["metrics"][name]["value"])
                print(
                    f"run {label}{i} {workload} seed {args.seed + i}: "
                    + ", ".join(
                        f"{name}={result['metrics'][name]['value']:.5g}" for name in bounds
                    ),
                    flush=True,
                )
    print(
        f"\n{'workload':<14} {'metric':<12} {'set':<3} {'n':>3} {'q1':>10} {'median':>10} "
        f"{'q3':>10} {'spread':>7} {'B-A':>7} {'bound':>6}  flags"
    )
    for workload in WORKLOAD_NAMES:
        for name, metric in bounds.items():
            values_a = values[("A", workload)][name]
            values_b = values[("B", workload)][name]
            if not values_a or not values_b:
                print(f"{workload:<14} {name:<12} no samples")
                status = 1
                continue
            qa, qb, spread_a, spread_b, change, flags = compare(values_a, values_b, metric)
            if {"SPREAD", "DRIFT"} & set(flags):
                status = 1
            for label, count, q, spread in (
                ("A", len(values_a), qa, spread_a),
                ("B", len(values_b), qb, spread_b),
            ):
                tail = (
                    f"{change:>+7.1%} {metric['bound']:>6.0%}  {' '.join(flags)}"
                    if label == "B"
                    else ""
                )
                print(
                    f"{workload:<14} {name:<12} {label:<3} {count:>3} {q[0]:>10.5g} "
                    f"{q[1]:>10.5g} {q[2]:>10.5g} {spread:>7.1%} {tail}"
                )
    return status


if __name__ == "__main__":
    sys.exit(main())
