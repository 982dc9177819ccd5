"""Compare the traces of two commits: self time and count deltas per layer.

Usage, from the repository root::

    python3 perfbench/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are trace files written by ``run.py --trace 1``
(``.perfbench/traces/*.jsonl``) or directories of them.  Traces of the same
workload on one side are pooled: each pass is one sample, and every figure
is the median per pass (per set-up for set-up spans), at nominal host speed
(each pass's spans are scaled by the host speed factor recorded with it).  For each workload
and span the report prints both sides' self time, their difference, and the
change in the span's count per pass — the rows that account for a change in
``pass_s`` or ``setup_s``.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from collections import defaultdict

from tracing import layer_table, read_trace


def load_side(path: str):
    """Spans of every trace under ``path``, grouped by workload."""
    files = sorted(glob.glob(os.path.join(path, "*.jsonl"))) if os.path.isdir(path) else [path]
    if not files:
        raise SystemExit(f"error: no trace files under {path}")
    by_workload = defaultdict(list)
    factors = {}
    for name in files:
        spans, phase_factors = read_trace(name)
        factors.update(phase_factors)
        for span in spans:
            by_workload[span["workload"]].append(span)
    return by_workload, factors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="trace file or directory of the parent commit")
    parser.add_argument("change", help="trace file or directory of the change")
    args = parser.parse_args(argv)
    parent, parent_factors = load_side(args.parent)
    change, change_factors = load_side(args.change)
    for workload in sorted(set(parent) | set(change)):
        for phase, label in (("setup:", "per set-up"), ("pass:", "per pass")):
            before, runs_before = layer_table(parent.get(workload, []), phase, parent_factors)
            after, runs_after = layer_table(change.get(workload, []), phase, change_factors)
            print(
                f"\n{workload}, {label} ({runs_before} parent / {runs_after} change samples)"
            )
            print(
                f"  {'span':<26} {'self parent':>12} {'self change':>12} {'delta s':>10} "
                f"{'delta':>8} {'count':>8} {'d count':>8}"
            )
            names = sorted(
                set(before) | set(after),
                key=lambda name: -max(
                    before.get(name, {}).get("self_s", 0.0), after.get(name, {}).get("self_s", 0.0)
                ),
            )
            zero = {"self_s": 0.0, "count": 0}
            for name in names:
                old = before.get(name, zero)
                new = after.get(name, zero)
                delta = new["self_s"] - old["self_s"]
                share = f"{delta / old['self_s']:+.1%}" if old["self_s"] else "new"
                print(
                    f"  {name:<26} {old['self_s']:>12.4f} {new['self_s']:>12.4f} "
                    f"{delta:>+10.4f} {share:>8} {new['count']:>8g} "
                    f"{new['count'] - old['count']:>+8g}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
