"""Grid-sweep benchmark: shared worker payloads + resumable result stores.

Four claims are measured and enforced:

1. **Shared slim-index payloads keep parallel suites correct.**  The same
   grid suite runs pooled (the parent broadcasts each scenario's slim route
   index through the pool initializer) and in-process.  The rows must be
   byte-identical — the pool is an optimisation, never a semantic change —
   and both wall times are recorded so regressions in either path show up
   in the JSON.

2. **Supervised dispatch is free on the clean path.**  The same suite runs
   through the :class:`~repro.runtime.Supervisor` (timeouts, retry budgets,
   dead-worker detection armed) and through a bare
   ``multiprocessing.Pool(...).imap`` over the shared battery worker
   function, pool initializer, payload and task list (:class:`_BarePool`).  Rows must
   be identical and the supervised best time must stay within 5% of the
   baseline (or a small absolute delta on quick runs, where timer noise
   exceeds 5%).

3. **Resumed grid campaigns recompute nothing that was stored.**  A grid
   sweep is persisted to a JSONL result store, the store is truncated
   mid-row (simulating a kill), and the sweep is resumed.  The gate checks
   that (a) the resumed store is byte-identical to the uninterrupted one,
   (b) the resumed run evaluated strictly fewer shard tasks than the full
   run, and (c) the rendered scaling report matches exactly.

4. **Split strategy-comparison runs merge losslessly.**  One
   ``kernel|circular`` grid is swept whole, then again split per strategy
   into two separate stores which are merged with
   :func:`~repro.results.store.merge_result_stores`.  Battery seeds hash
   scenario identity rather than suite position, so the merged store must
   hold exactly the combined run's records and the rendered comparison
   table (strategy × t column groups, mean ± worst cells) must match the
   combined run's byte for byte.

Results are persisted to ``BENCH_grid.json`` at the repo root.

Run directly (no pytest needed)::

    python benchmarks/bench_grid.py          # full suite
    python benchmarks/bench_grid.py --quick  # CI smoke run
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import tempfile
import time

if __package__ in (None, ""):  # allow running as a plain script from anywhere
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.analysis import format_table, render_scaling_report
from repro.results import ResultStore, merge_result_stores, result_frame
from repro.scenarios import (
    expand_grids,
    parse_grid,
    run_scenario_suite,
    suite_manifest,
)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_DEFAULT_JSON = os.path.join(_REPO_ROOT, "BENCH_grid.json")


def _grid_workload(quick: bool):
    """Return ``(grid_spec, samples, workers)`` for the payload gate.

    Few, comparatively large scenarios: the shape where the shared payload
    matters (building a scenario costs more than its small batteries).
    """
    if quick:
        return ("circulant:n=40..48,offsets=1+2/kernel/sizes:2", 8, 2)
    return ("circulant:n=96..112,offsets=1+2/kernel/sizes:2,4", 24, 4)


def _bench_shared_payload(quick: bool) -> dict:
    grid_spec, samples, workers = _grid_workload(quick)
    scenarios = expand_grids([grid_spec])

    start = time.perf_counter()
    shared_rows = run_scenario_suite(
        scenarios, samples=samples, seed=11, workers=workers
    )
    shared_seconds = time.perf_counter() - start

    start = time.perf_counter()
    inprocess_rows = run_scenario_suite(scenarios, samples=samples, seed=11)
    inprocess_seconds = time.perf_counter() - start

    identical = [row.as_row() for row in shared_rows] == [
        row.as_row() for row in inprocess_rows
    ]
    print(
        format_table(
            [row.as_row() for row in shared_rows],
            caption=(
                f"Grid suite [{grid_spec}] ({len(scenarios)} scenarios, "
                f"workers={workers}, shared payload)"
            ),
        )
    )
    print(
        f"\nshared payload {shared_seconds:.3f}s vs in-process "
        f"{inprocess_seconds:.3f}s "
        f"(rows {'identical' if identical else 'DIVERGE'})"
    )
    return {
        "grid": grid_spec,
        "scenarios": len(scenarios),
        "samples": samples,
        "workers": workers,
        "shared_s": round(shared_seconds, 4),
        "inprocess_s": round(inprocess_seconds, 4),
        "rows_identical": identical,
    }


def _overhead_workload(quick: bool):
    """Return ``(grid_spec, samples, workers, repeats)`` for the gate."""
    if quick:
        return ("circulant:n=40..44,offsets=1+2/kernel/sizes:2", 8, 2, 3)
    return ("circulant:n=96..104,offsets=1+2/kernel/sizes:2,4", 24, 4, 3)


class _BarePool:
    """The overhead gate's baseline in place of the battery runner's Supervisor.

    It receives what the supervisor would — the shared battery worker
    function (:func:`repro.faults.engine._evaluate_task`), pool
    initializer, payload and task list — and drains the tasks through one
    bare ``multiprocessing.Pool(...).imap``: no window, deadlines, liveness
    polling, retries or crash recovery.
    """

    def __init__(self, worker_fn, initializer=None, initargs=(), workers=1, **_):
        self.worker_fn = worker_fn
        self.initializer = initializer
        self.initargs = initargs
        self.workers = workers

    def __enter__(self) -> "_BarePool":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def run(self, tasks):
        with multiprocessing.Pool(
            self.workers, initializer=self.initializer, initargs=self.initargs
        ) as pool:
            yield from zip(tasks, pool.imap(self.worker_fn, tasks))


def _bench_supervisor_overhead(quick: bool) -> dict:
    """Clean-path cost of supervised dispatch vs a bare ``Pool.imap``.

    The supervisor's sliding window, deadlines and liveness polling must be
    invisible when nothing fails: the gate takes the best of ``repeats``
    runs each way (damping scheduler noise), requires identical rows, and
    requires the supervised best within 5% of the bare-pool best — or
    within a small absolute delta, since quick-mode runs are short enough
    for timer noise to exceed 5%.  Both runs go through
    :func:`run_scenario_suite`; the baseline swaps :class:`_BarePool` in for
    the supervisor the battery runner builds, so scenario builds and row
    folding are timed alike.
    """
    from repro.faults import engine as engine_module

    grid_spec, samples, workers, repeats = _overhead_workload(quick)
    scenarios = expand_grids([grid_spec])

    def timed(runner):
        best = float("inf")
        rows = None
        supervisor = engine_module.Supervisor
        engine_module.Supervisor = runner
        try:
            for _ in range(repeats):
                start = time.perf_counter()
                rows = run_scenario_suite(
                    scenarios, samples=samples, seed=11, workers=workers
                )
                best = min(best, time.perf_counter() - start)
        finally:
            engine_module.Supervisor = supervisor
        return best, rows

    supervised_s, supervised_rows = timed(engine_module.Supervisor)
    plain_s, plain_rows = timed(_BarePool)
    identical = [row.as_row() for row in supervised_rows] == [
        row.as_row() for row in plain_rows
    ]
    overhead = supervised_s / plain_s - 1 if plain_s else 0.0
    within_gate = overhead < 0.05 or (supervised_s - plain_s) < 0.25
    print(
        f"\nsupervisor overhead gate [{grid_spec}]: supervised "
        f"{supervised_s:.3f}s vs bare pool {plain_s:.3f}s -> "
        f"{overhead:+.1%} (best of {repeats}; rows "
        f"{'identical' if identical else 'DIVERGE'}, gate "
        f"{'ok' if within_gate else 'EXCEEDED'})"
    )
    return {
        "grid": grid_spec,
        "samples": samples,
        "workers": workers,
        "repeats": repeats,
        "supervised_s": round(supervised_s, 4),
        "bare_pool_s": round(plain_s, 4),
        "overhead": round(overhead, 4),
        "rows_identical": identical,
        "within_gate": within_gate,
    }


def _resume_workload(quick: bool):
    if quick:
        return ("hypercube:d=3..4/kernel/t=1..2/sizes:1-2", 6)
    return ("hypercube:d=3..5/kernel/t=1..2/sizes:1-3", 20)


def _bench_resume(quick: bool) -> dict:
    grid_spec, samples = _resume_workload(quick)
    scenarios = expand_grids([grid_spec])
    run = suite_manifest(scenarios, samples, 7, None)

    from repro.faults import engine as engine_module

    evaluated = []
    original_eval = engine_module._evaluate_task

    def counting_eval(task, indexes=None):
        evaluated.append(task[0])
        return original_eval(task, indexes)

    engine_module._evaluate_task = counting_eval
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rows.jsonl")

            start = time.perf_counter()
            with ResultStore.open(path, run) as store:
                full_rows = run_scenario_suite(
                    scenarios, samples=samples, seed=7, store=store
                )
            full_seconds = time.perf_counter() - start
            full_tasks = len(evaluated)
            full_text = open(path).read()
            full_report = render_scaling_report(
                result_frame(row.record() for row in full_rows), run
            )

            # Kill simulation: keep the manifest, half the rows, and a
            # truncated partial line.
            lines = full_text.splitlines(keepends=True)
            keep = 1 + (len(lines) - 1) // 2
            with open(path, "w") as handle:
                handle.write("".join(lines[:keep]) + lines[keep][:25])

            evaluated.clear()
            start = time.perf_counter()
            with ResultStore.open(path, run) as store:
                resumed_rows = run_scenario_suite(
                    scenarios, samples=samples, seed=7, store=store
                )
            resume_seconds = time.perf_counter() - start
            resume_tasks = len(evaluated)
            resumed_text = open(path).read()
            resumed_report = render_scaling_report(
                result_frame(row.record() for row in resumed_rows), run
            )
    finally:
        engine_module._evaluate_task = original_eval

    store_identical = resumed_text == full_text
    report_identical = resumed_report == full_report
    print(
        f"\nresume gate [{grid_spec}]: full run {full_tasks} tasks "
        f"({full_seconds:.3f}s), resumed run {resume_tasks} tasks "
        f"({resume_seconds:.3f}s); store "
        f"{'byte-identical' if store_identical else 'DIVERGES'}, report "
        f"{'identical' if report_identical else 'DIVERGES'}"
    )
    print()
    print(full_report)
    return {
        "grid": grid_spec,
        "samples": samples,
        "campaign_rows": len(full_rows),
        "full_tasks": full_tasks,
        "resumed_tasks": resume_tasks,
        "full_s": round(full_seconds, 4),
        "resume_s": round(resume_seconds, 4),
        "store_byte_identical": store_identical,
        "report_identical": report_identical,
        "skipped_any_work": resume_tasks < full_tasks,
    }


def _merge_workload(quick: bool):
    if quick:
        return ("cycle:n=10..12/{}/t=1/sizes:1-2", ("kernel", "circular"), 8)
    return ("cycle:n=16..24/{}/t=1/sizes:1-2", ("kernel", "circular"), 20)


def _bench_strategy_merge(quick: bool) -> dict:
    template, strategies, samples = _merge_workload(quick)
    combined_spec = template.format("|".join(strategies))
    combined_scenarios = expand_grids([combined_spec])
    combined_run = suite_manifest(combined_scenarios, samples, 7, None)

    with tempfile.TemporaryDirectory() as tmp:
        combined_path = os.path.join(tmp, "combined.jsonl")
        start = time.perf_counter()
        with ResultStore.open(combined_path, combined_run) as store:
            combined_rows = run_scenario_suite(
                combined_scenarios, samples=samples, seed=7, store=store
            )
        combined_seconds = time.perf_counter() - start
        combined_report = render_scaling_report(
            result_frame(row.record() for row in combined_rows), combined_run
        )

        split_paths = []
        start = time.perf_counter()
        for strategy in strategies:
            scenarios = expand_grids([template.format(strategy)])
            path = os.path.join(tmp, f"{strategy}.jsonl")
            split_paths.append(path)
            run = suite_manifest(scenarios, samples, 7, None)
            with ResultStore.open(path, run) as store:
                run_scenario_suite(
                    scenarios, samples=samples, seed=7, store=store
                )
        split_seconds = time.perf_counter() - start

        merged = merge_result_stores(split_paths)
        combined_store = ResultStore.load(combined_path)
        records_identical = set(combined_store.keys()) == set(
            merged.keys()
        ) and all(
            combined_store.get(key) == merged.get(key) for key in merged.keys()
        )
        # Render with the merged store's own manifest — the real
        # `repro report a b` path.  Headers legitimately differ (the merged
        # scenario union is in per-store order, the combined run's is in
        # expansion order); the *table* must match byte for byte.
        merged_report = render_scaling_report(merged.frame, merged.run)

        def _table_of(report: str) -> str:
            return report[report.index("| family") :]

        report_identical = _table_of(merged_report) == _table_of(
            combined_report
        )
        comparison_layout = any(
            f"{strategy} t=" in merged_report for strategy in strategies
        )

    print(
        f"\nstrategy-merge gate [{combined_spec}]: combined run "
        f"{combined_seconds:.3f}s vs split runs {split_seconds:.3f}s; "
        f"records {'identical' if records_identical else 'DIVERGE'}, "
        f"merged comparison table "
        f"{'identical' if report_identical else 'DIVERGES'}"
    )
    print()
    print(merged_report)
    return {
        "grid": combined_spec,
        "samples": samples,
        "campaign_rows": len(combined_rows),
        "combined_s": round(combined_seconds, 4),
        "split_s": round(split_seconds, 4),
        "records_identical": records_identical,
        "report_identical": report_identical,
        "comparison_layout": comparison_layout,
    }


def run(quick: bool, json_path: str) -> int:
    payload = _bench_shared_payload(quick)
    overhead = _bench_supervisor_overhead(quick)
    resume = _bench_resume(quick)
    merge = _bench_strategy_merge(quick)

    document = {
        "generated_by": "benchmarks/bench_grid.py",
        "mode": "quick" if quick else "full",
        "shared_payload": payload,
        "supervisor_overhead": overhead,
        "resume": resume,
        "strategy_merge": merge,
    }
    with open(json_path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"\nresults written to {json_path}")

    failures = []
    if not payload["rows_identical"]:
        failures.append("shared-payload rows diverge from in-process rows")
    if not overhead["rows_identical"]:
        failures.append("supervised rows diverge from bare-pool rows")
    if not overhead["within_gate"]:
        failures.append(
            f"supervisor clean-path overhead {overhead['overhead']:+.1%} "
            "exceeds the 5% gate"
        )
    if not resume["store_byte_identical"]:
        failures.append("resumed store is not byte-identical to the full run")
    if not resume["report_identical"]:
        failures.append("resumed report differs from the full run's")
    if not resume["skipped_any_work"]:
        failures.append("resume recomputed every task (no work was skipped)")
    if not merge["records_identical"]:
        failures.append("merged split-run records diverge from the combined run")
    if not merge["report_identical"]:
        failures.append("merged comparison table differs from the combined run's")
    if not merge["comparison_layout"]:
        failures.append("merged report lacks strategy × t column groups")
    if failures:
        for failure in failures:
            print(f"FAIL — {failure}")
        return 1
    print(
        f"PASS — payload rows identical, supervisor overhead {overhead['overhead']:+.1%}, resume "
        f"skipped {resume['full_tasks'] - resume['resumed_tasks']} of "
        f"{resume['full_tasks']} tasks with byte-identical store + report, "
        f"split strategy runs merged to the combined run's table"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small instances (CI smoke run)",
    )
    parser.add_argument(
        "--json",
        default=_DEFAULT_JSON,
        help="path of the machine-readable results file (default: repo-root "
        "BENCH_grid.json)",
    )
    args = parser.parse_args(argv)
    return run(args.quick, args.json)


if __name__ == "__main__":
    sys.exit(main())
