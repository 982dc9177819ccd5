"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-sparse --seed 1 --trace 0

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``, which also
names the metrics each kind of run reports and their units.

One run is one fresh interpreter running one workload in a single process:

1. every ``REPRO_*`` variable is cleared (their names are recorded) and the
   library is imported in full, so no timing below includes an import;
2. the workload's set-up (graph, routing, index or artifact) runs
   ``SETUPS`` times; ``setup_s`` is the median;
3. passes over the last set-up, each on fresh inputs drawn from the seed
   and the pass number, run until ``--seconds`` have elapsed since the
   first one started (at least ``MIN_PASSES``); ``pass_s`` is the median
   pass;
4. each pass's outputs are checked against the naive oracle right after
   it, outside its timing.

Times are reported at nominal host speed (see ``hostspeed.py``): each
set-up's and pass's wall time is scaled by the speed of a fixed reference
loop sampled while it ran, and the medians are taken over the scaled
times.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` passes alternate untraced and traced; the last line holds the
per-layer metrics (medians over the traced passes and set-ups), the spans
are written to ``.perfbench/traces/`` as JSON lines, and the tracing overhead
is the traced median pass minus the untraced one.  The exit status is 0 when
the run completed (the JSON says whether every check held) and non-zero,
with no JSON line, when the run could not complete.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pkgutil
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOAD_NAMES = ("sweep-sparse", "certify-dense", "serve-traffic")

#: Set-up repetitions per run (``setup_s`` is their median).
SETUPS = 5

#: Passes run even past ``--seconds``; a traced run needs two of each kind.
MIN_PASSES = 3
MIN_TRACED_PASSES = 4

#: Span name behind each per-layer ``*_s`` metric, and whether it belongs to
#: the set-up (median per set-up) or to the pass (median per pass).
SPAN_METRICS = {
    "core.build_routing_s": ("core.build_routing", "setup:"),
    "core.route_index_build_s": ("core.route_index_build", "setup:"),
    "serving.compile_s": ("serving.compile", "setup:"),
    "serving.save_s": ("serving.save", "setup:"),
    "serving.load_s": ("serving.load", "setup:"),
    "faults.battery_s": ("faults.battery", "pass:"),
    "faults.certify_s": ("faults.certify", "pass:"),
    "faults.greedy_s": ("faults.greedy", "pass:"),
    "results.append_s": ("results.append", "pass:"),
    "results.load_s": ("results.load", "pass:"),
    "analysis.report_s": ("analysis.report", "pass:"),
    "serving.update_s": ("serving.update", "pass:"),
    "serving.diameter_s": ("serving.diameter", "pass:"),
    "serving.batch_s": ("serving.batch", "pass:"),
    "network.traffic_s": ("network.traffic", "pass:"),
    "py.gc_s": ("py.gc", "pass:"),
}


def load_spec() -> dict:
    """``BENCHMARK.json``: run length, bounds, and the metric names and units."""
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def _git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without leaving ``root``."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def _import_library() -> None:
    """Import every ``repro`` module now, so lazy imports never hit a timing."""
    import numpy  # noqa: F401  (the serving batch path imports it lazily)
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args, spec) -> int:
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"error: no library sources at {os.path.relpath(SRC)}/repro; run from "
            "the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [SRC, HERE]
    _import_library()
    import hostspeed
    import numpy
    import tracing
    import workloads

    trace = bool(args.trace)
    sampler = hostspeed.HostSampler()
    run_id = f"{args.workload}-s{args.seed}-{os.getpid()}-{time.time_ns()}"
    tracer = tracing.Tracer(args.workload, run_id, sampler.clock)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workdir = os.path.join(STATE_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        state = None
        for number in range(SETUPS):
            state = None
            gc.collect()
            tracer.set_phase(f"setup:{number}")
            state, wall, factor = sampler.timed(
                lambda: _traced(tracer, trace, "setup", workload.setup, tracer, workdir)
            )
            setups.append((wall, factor))
            tracer.factors[tracer.phase] = factor

        passes = {False: [], True: []}
        ops_rates = []
        latencies = []
        traffic_rates = []
        counts = []
        attempted = failed = 0
        problems = []
        measured = 0.0
        number = 0
        min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
        window_start = time.perf_counter()
        while time.perf_counter() - window_start < args.seconds or number < min_passes:
            traced = trace and number % 2 == 1
            inputs = workload.inputs(state, number)
            gc.collect()
            tracer.set_phase(f"pass:{number}")
            output, wall, factor = sampler.timed(
                lambda: _traced(
                    tracer,
                    traced,
                    "pass",
                    workload.run_pass,
                    state,
                    inputs,
                    tracer,
                    workdir,
                    sampler.clock,
                )
            )
            measured += wall
            passes[traced].append((wall, factor))
            tracer.factors[tracer.phase] = factor
            counts.append(workload.layer_counts(output))
            if not traced:
                ops_rates.append(output["ops"] / output["ops_s"] / factor)
                latencies.extend(value * factor for value in output.get("latencies", ()))
                if "traffic_rate" in output:
                    traffic_rates.append(output["traffic_rate"] / factor)
            tried, bad, notes = workload.check(state, inputs, output)
            attempted += tried
            failed += bad
            problems.extend(f"pass {number}: {note}" for note in notes)
            number += 1
        setup_factor = statistics.median(factor for _wall, factor in setups)
        pass_factor = statistics.median(
            factor for _wall, factor in passes[False] + passes[True]
        )
        provenance = {
            "workload": args.workload,
            "seed": args.seed,
            "commit": _git_commit(ROOT),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cleared_env": cleared,
            "setups": len(setups),
            "passes": number,
            "seconds": args.seconds,
            "trace": trace,
            "reference_s": hostspeed.REFERENCE_S,
            "setup_factor": setup_factor,
            "pass_factor": pass_factor,
            "scenarios": workload.provenance(state),
        }
        if "serving.lru_hit_ratio" in counts[0]:
            provenance["lru_hit_share"] = statistics.median(
                row["serving.lru_hit_ratio"] for row in counts
            )
    finally:
        tracer.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for note in problems[:20]:
        print(f"check failed: {note}")
    untraced = passes[False]
    lines = [
        f"{args.workload} seed {args.seed}: {len(setups)} set-ups, "
        f"{number} passes ({len(passes[True])} traced), {measured:.1f} s of passes; "
        f"median host speed factor {setup_factor:.3f} over set-ups, "
        f"{pass_factor:.3f} over passes",
        f"  {'error_rate':<18} {failed / attempted:<12.4g} ratio  "
        f"({failed} failed of {attempted} attempted)",
    ]
    if not trace:
        values = {
            "setup_s": _normalised_median(setups),
            "pass_s": _normalised_median(untraced),
            "peak_rss_mb": _peak_rss_mb(),
            "ops_per_s": statistics.median(ops_rates),
        }
        metrics = {
            metric["name"]: _metric(values[metric["name"]], metric["unit"])
            for metric in spec["end_to_end"]
        }
        samples = {
            "setup_s": f"median of {len(setups)} set-ups; wall "
            f"{statistics.median(wall for wall, _ in setups):.4f} s",
            "pass_s": f"median of {len(untraced)} passes; wall "
            f"{statistics.median(wall for wall, _ in untraced):.4f} s",
            "peak_rss_mb": "peak of the run's process",
            "ops_per_s": f"median of {len(ops_rates)} passes; {workload.ops_label}",
        }
        for name, metric in metrics.items():
            lines.append(
                f"  {name:<18} {metric['value']:<12.6g} {metric['unit']:<6} ({samples[name]})"
            )
        if latencies:
            for label, fraction in (("update_p50_ms", 0.50), ("update_p99_ms", 0.99)):
                value = workloads.percentile(latencies, fraction) * 1e3
                lines.append(
                    f"  {label:<18} {value:<12.6g} ms     (of {len(latencies)} churn events)"
                )
            lines.append(
                f"  {'traffic_msgs_per_s':<18} "
                f"{statistics.median(traffic_rates):<12.6g} msg/s  "
                f"(median of {len(traffic_rates)} passes)"
            )
    else:
        metrics, table_lines = _layer_metrics(
            spec["per_layer"],
            tracer,
            passes,
            counts,
            latencies,
            traffic_rates,
            workload.setup_counts(state),
        )
        lines.extend(table_lines)
        os.makedirs(os.path.join(STATE_DIR, "traces"), exist_ok=True)
        trace_path = os.path.join(STATE_DIR, "traces", f"{run_id}.jsonl")
        tracer.write_jsonl(
            trace_path,
            {"provenance": provenance, "metrics": metrics, "run": run_id},
        )
        lines.append(f"  trace written to {os.path.relpath(trace_path, ROOT)}")
    for line in lines:
        print(line)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _traced(tracer, on, name, call, *args):
    """``call(*args)`` inside a root span, with recording on only if ``on``."""
    tracer.enable(on)
    try:
        with tracer.span(name):
            return call(*args)
    finally:
        tracer.enable(False)


def _normalised_median(samples) -> float:
    """Median of ``wall * factor`` over ``(wall, factor)`` samples."""
    return statistics.median(wall * factor for wall, factor in samples)


def _layer_metrics(per_layer, tracer, passes, counts, latencies, traffic_rates, setup_counts):
    """Per-layer metrics and the span tables of a traced run.

    Every metric ``per_layer`` names is reported; one the workload's layers
    do not produce reads 0.
    """
    import tracing
    import workloads

    spans = tracer.span_records()
    factors = tracer.factor_table()
    pass_table, traced_passes = tracing.layer_table(spans, "pass:", factors)
    setup_table, traced_setups = tracing.layer_table(spans, "setup:", factors)
    traced_pass = _normalised_median(passes[True])
    untraced_pass = _normalised_median(passes[False])
    values = dict(setup_counts)
    for metric, (span, phase) in SPAN_METRICS.items():
        table = setup_table if phase == "setup:" else pass_table
        values[metric] = table.get(span, {}).get("total_s", 0.0)
    values["py.gc_collections"] = pass_table.get("py.gc", {}).get("count", 0)
    for key in counts[0]:
        values[key] = statistics.median(row[key] for row in counts)
    if latencies:
        values["serving.update_p50_ms"] = workloads.percentile(latencies, 0.50) * 1e3
        values["serving.update_p99_ms"] = workloads.percentile(latencies, 0.99) * 1e3
        values["network.msgs_per_s"] = statistics.median(traffic_rates)
    values["trace.pass_s"] = traced_pass
    values["trace.overhead_s"] = traced_pass - untraced_pass
    metrics = {
        metric["name"]: _metric(values.get(metric["name"], 0), metric["unit"])
        for metric in per_layer
    }
    lines = tracing.render_layer_table(
        setup_table,
        setup_table["setup"]["total_s"],
        f"  set-up spans (median per set-up over {traced_setups} traced set-ups):",
    )
    lines += tracing.render_layer_table(
        pass_table,
        traced_pass,
        f"  pass spans (median per traced pass over {traced_passes}; share of "
        f"traced pass_s {traced_pass:.4f} s):",
    )
    lines.append(
        f"  tracing overhead {traced_pass - untraced_pass:+.4f} s per pass "
        f"({(traced_pass - untraced_pass) / untraced_pass:+.1%}; traced median "
        f"{traced_pass:.4f} s over {len(passes[True])} passes, untraced median "
        f"{untraced_pass:.4f} s over {len(passes[False])})"
    )
    return metrics, lines


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args, spec)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
