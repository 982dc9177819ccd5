"""One-off placement of each workload's evaluation on the bitset/numpy choice.

Usage, from the repository root::

    python3 perfbench/placement.py --seed 1

This is not part of the benchmark's runs: it passes ``backend=`` explicitly,
which the workloads never do.  For each workload it times the evaluation
phase whose backend the library chooses (the sweep's batteries, the
certification, the serving churn) once per backend, best of ``REPEATS``,
over the same inputs the workload uses at ``--seed``, and checks that both
backends return the same values.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from run import ROOT, SRC

sys.path.insert(0, SRC)

import workloads  # noqa: E402
from repro.core.route_index import RouteIndex  # noqa: E402
from repro.faults import CampaignEngine  # noqa: E402
from repro.serving import ServingEngine  # noqa: E402
from tracing import Tracer  # noqa: E402

BACKENDS = ("bitset", "numpy")

#: Timings per phase and backend; the best one is reported.
REPEATS = 3


def best_of(call):
    times, value = [], None
    for _ in range(REPEATS):
        start = time.perf_counter()
        value = call()
        times.append(time.perf_counter() - start)
    return min(times), value


def sweep_phase(seed: int, backend: str, tracer):
    workload = workloads.SweepSparse(seed)
    state = workload.setup(tracer, "")
    total, values = 0.0, []
    for (scenario, graph, result, _engine), battery_seed in zip(state, workload.inputs(state, 0)):
        index = RouteIndex(graph, result.routing, backend=backend)
        engine = CampaignEngine(graph, result.routing, index=index)
        seconds, rows = best_of(
            lambda: engine.sweep_fault_sizes(
                scenario.faults.sizes, samples=workload.samples, seed=battery_seed
            ),
        )
        total += seconds
        values += [(row.mean_diameter, row.max_diameter, row.disconnected_fraction) for row in rows]
    return total, values


def certify_phase(seed: int, backend: str, tracer):
    workload = workloads.CertifyDense(seed)
    _scenario, graph, result, _engine = workload.setup(tracer, "")
    index = RouteIndex(graph, result.routing, backend=backend)
    engine = CampaignEngine(graph, result.routing, index=index)
    seconds, certificate = best_of(lambda: engine.exhaustive_worst_case(result.t // 2, 4))
    worst, worst_set, evaluated, holds = certificate
    return seconds, (worst, sorted(worst_set.nodes()), evaluated, holds)


def serve_phase(seed: int, backend: str, tracer, workdir: str):
    workload = workloads.ServeTraffic(seed)
    state = workload.setup(tracer, workdir)
    inputs = workload.inputs(state, 0)
    batches = inputs["batches"]

    def churn():
        engine = ServingEngine(state["artifact"], backend=backend)
        diameters = []
        for position, (action, node) in enumerate(inputs["events"]):
            if action == "fail":
                engine.fail(node)
            elif action == "restore":
                engine.restore(node)
            else:
                engine.set_faults(node)
            diameters.append(engine.surviving_diameter())
            engine.batch_next_hop_ids(*batches[position % len(batches)])
        return diameters

    return best_of(churn)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    tracer = Tracer("placement", "placement")
    workdir = os.path.join(ROOT, ".perfbench", f"placement-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    phases = (
        ("sweep-sparse", "batteries", lambda b: sweep_phase(args.seed, b, tracer)),
        ("certify-dense", "certification", lambda b: certify_phase(args.seed, b, tracer)),
        (
            "serve-traffic",
            "serving churn",
            lambda b: serve_phase(args.seed, b, tracer, workdir),
        ),
    )
    status = 0
    print(f"{'workload':<14} {'phase':<14} {'bitset s':>9} {'numpy s':>9} {'numpy/bitset':>13}  values")
    try:
        for workload, phase, measure in phases:
            (bitset_s, bitset_values), (numpy_s, numpy_values) = map(measure, BACKENDS)
            same = bitset_values == numpy_values
            status |= not same
            print(
                f"{workload:<14} {phase:<14} {bitset_s:>9.3f} {numpy_s:>9.3f} "
                f"{numpy_s / bitset_s:>12.2f}x  {'identical' if same else 'DIFFER'}",
                flush=True,
            )
    finally:
        os.rmdir(workdir)
    return status


if __name__ == "__main__":
    sys.exit(main())
