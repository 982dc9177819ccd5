"""Throughput benchmark: naive vs bitset vs numpy engines.

For each graph family the same fault battery is evaluated four ways:

* **naive** — the per-fault-set path that re-walks every route
  (:func:`repro.core.surviving.surviving_diameter` without an index), the
  oracle every other column is checked against;
* **bitset** — the big-int kernel: one adjacency row per node, fault
  subtraction and BFS level advances as machine-word ``&``/``|`` operations;
* **numpy** — the packed-uint64 batched kernel
  (:mod:`repro.core.np_kernel`): the whole battery advances one BFS level
  per handful of vectorised calls through the
  :meth:`RouteIndex.surviving_diameters` batch API (column omitted when
  numpy is not installed);
* **parallel** — the engine sharding the battery over a process pool, with
  the pre-built index shipped to the workers.

Every column is the best of three runs after one full-width warm-up run,
so one-time costs (the numpy kernel's scratch buffers, pool start-up) stay
out of the timings.  All paths must produce identical outcomes (asserted).
Three further measurements ride along:

* **greedy adversary end-to-end** — the delta-aware cursor path
  (:meth:`RouteIndex.cursor` / ``with_added``) against the same greedy loop
  re-evaluating every candidate from scratch through the naive oracle;
* **worker serialization** — pickling the pre-built index (what the engine
  ships to its pool) versus pickling the raw routing and rebuilding the
  index per worker;
* **2000-node hub battery** (full mode, numpy installed) — a directly-built
  hub-and-spoke routing far above what the paper constructions reach,
  checking the numpy backend stays correct and fast at scale.

Results are persisted as machine-readable JSON (``BENCH_kernel.json`` at the
repo root by default) so the perf trajectory is tracked across changes.

Acceptance targets (enforced in full mode): the bitset kernel must be
>= 19.72x the naive oracle on the 200-node battery, the cursor-driven
greedy adversary >= 32.87x its naive from-scratch replica, and the numpy
backend >= 3x the bitset kernel on the dense 200-node battery (the dense
instance is where batching pays; ratios on sparse batteries are smaller).
Quick mode (CI smoke) skips the ratio targets but still fails when the
bitset path is below 8.7x the naive oracle, or the numpy path slower than
the bitset path, on the smoke instance.  The two oracle-based gates replace
gates against a set-based kernel since removed; their targets are the old
ones scaled by that kernel's measured speed over the oracle (see
:data:`SET_KERNEL_VS_NAIVE`), so neither is looser than before.

Run directly (no pytest needed)::

    python benchmarks/bench_campaign_engine.py          # full suite
    python benchmarks/bench_campaign_engine.py --quick  # CI smoke run
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import sys
import time
from typing import List

if __package__ in (None, ""):  # allow running as a plain script from anywhere
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.analysis import format_table
from repro.core import (
    RouteIndex,
    clique_augmented_kernel_routing,
    kernel_routing,
    surviving_diameter,
)
from repro.core.np_kernel import numpy_available
from repro.core.routing import Routing
from repro.faults import CampaignEngine, greedy_adversarial_fault_set, random_fault_sets
from repro.faults.adversary import greedy_fault_set_from_index
from repro.graphs import generators
from repro.graphs.graph import Graph

#: Speed of the removed set-based kernel over the naive oracle on the
#: 200-node target battery, as last recorded in full mode (naive 1.1545 s,
#: set kernel 0.1756 s).  The oracle-based targets below are the old
#: set-kernel targets times this ratio.
SET_KERNEL_VS_NAIVE = 1.1545 / 0.1756

#: Acceptance thresholds on the 200-node target workloads.
TARGET_BITSET_VS_NAIVE = 3.0 * SET_KERNEL_VS_NAIVE  # was: bitset >= 3x set kernel
TARGET_GREEDY_VS_NAIVE = 5.0 * SET_KERNEL_VS_NAIVE  # was: cursor >= 5x set greedy
TARGET_NUMPY_SPEEDUP = 3.0    # numpy batch vs bitset on the *dense* battery
TARGET_BATCHED_GREEDY_SPEEDUP = 2.0  # batched vs sequential greedy (numpy, dense)
#: Quick-mode smoke gate, was "bitset no slower than the set kernel": the
#: set kernel ran the smoke battery at 8.7x the naive oracle (median of
#: nine best-of-3 runs).
TARGET_SMOKE_BITSET_VS_NAIVE = 8.7

_DEFAULT_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_kernel.json"
)


def _workloads(quick: bool):
    """Yield ``(name, graph, construct, fault_size, samples, is_target,
    is_np_target)``.

    ``is_target`` marks the bitset-vs-naive gate instance, ``is_np_target``
    the numpy-vs-bitset gate instance: the *dense* circulant (offsets
    1,2,3,5), where batched vectorised level advances amortise best.  In
    quick mode one smoke instance carries both gates.
    """
    if quick:
        yield ("hypercube-16", generators.hypercube_graph(4), kernel_routing, 2, 8, False, False)
        yield (
            "clique-kernel-16",
            generators.cycle_graph(16),
            clique_augmented_kernel_routing,
            1,
            8,
            False,
            False,
        )
        # The smoke gate instance: large enough for stable timings.
        yield (
            "circulant-60",
            generators.circulant_graph(60, [1, 2]),
            kernel_routing,
            2,
            12,
            True,
            True,
        )
        return
    yield ("hypercube-64", generators.hypercube_graph(6), kernel_routing, 3, 30, False, False)
    yield (
        "random-regular-100",
        generators.random_regular_graph(4, 100, seed=7),
        kernel_routing,
        3,
        30,
        False,
        False,
    )
    yield (
        "clique-kernel-60",
        generators.cycle_graph(60),
        clique_augmented_kernel_routing,
        1,
        30,
        False,
        False,
    )
    yield (
        "circulant-200",
        generators.circulant_graph(200, [1, 2]),
        kernel_routing,
        3,
        40,
        True,
        False,
    )
    yield (
        "circulant-200-dense",
        generators.circulant_graph(200, [1, 2, 3, 5]),
        kernel_routing,
        3,
        40,
        False,
        True,
    )


def _best_of(fn, repeats: int = 3):
    """Best-of-``repeats`` wall time of ``fn()`` (noise-robust gate timing)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _warm_best_of(fn):
    """One warm-up call of ``fn()``, then its best-of-3 wall time."""
    fn()
    return _best_of(fn)


def _hub_routing(n: int = 2000, hub_count: int = 5):
    """A directly-built hub-and-spoke workload far above paper-construction
    sizes.

    ``hub_count`` hub nodes form a clique; every other node attaches to one
    hub.  The (partial) routing carries spoke<->hub and hub<->hub routes
    only — about ``2n`` arcs, surviving diameter 3 — so index construction
    stays cheap at ``n=2000`` while the evaluation tensors are full-size.
    """
    graph = Graph(name=f"hub-{n}")
    for node in range(n):
        graph.add_node(node)
    for a in range(hub_count):
        for b in range(a + 1, hub_count):
            graph.add_edge(a, b)
    for node in range(hub_count, n):
        graph.add_edge(node, node % hub_count)
    routing = Routing(graph, bidirectional=False)
    for a in range(hub_count):
        for b in range(hub_count):
            if a != b:
                routing.set_route(a, b, [a, b])
    for node in range(hub_count, n):
        hub = node % hub_count
        routing.set_route(node, hub, [node, hub])
        routing.set_route(hub, node, [hub, node])
    return graph, routing


def _bench_hub_battery(samples: int = 20, fault_size: int = 3):
    """Time the 2000-node hub battery on both backends; assert equal values."""
    graph, routing = _hub_routing()
    battery = list(
        random_fault_sets(range(5, graph.number_of_nodes()), fault_size, samples, seed=23)
    )
    bitset_index = RouteIndex(graph, routing, backend="bitset")
    numpy_index = RouteIndex(graph, routing, backend="numpy")
    bitset_s, bitset_values = _warm_best_of(
        lambda: bitset_index.surviving_diameters(battery)
    )
    numpy_s, numpy_values = _warm_best_of(
        lambda: numpy_index.surviving_diameters(battery)
    )
    assert bitset_values == numpy_values, "hub-2000 backends diverged"
    return {
        "n": graph.number_of_nodes(),
        "arcs": 2 * (graph.number_of_nodes() - 5) + 20,
        "fault_size": fault_size,
        "battery": len(battery),
        "bitset_s": round(bitset_s, 4),
        "numpy_s": round(numpy_s, 4),
        "numpy_vs_bitset": round(bitset_s / numpy_s, 2) if numpy_s else None,
    }


def _greedy_naive_baseline(graph, routing, size, candidate_limit, seed):
    """Replica of the greedy loop re-evaluating every candidate naively.

    Kept here (not in the library) purely as the end-to-end baseline for the
    cursor path: same candidate schedule, but every trial fault set is
    evaluated from scratch through the naive oracle, with the original
    prefer-finite selection rule.
    """
    rng = random.Random(seed)
    faults = set()
    for _ in range(size):
        remaining = [node for node in graph.nodes() if node not in faults]
        if not remaining:
            break
        if len(remaining) > candidate_limit:
            candidates = rng.sample(remaining, candidate_limit)
        else:
            candidates = remaining
        best_node = None
        best_key = -1.0
        for node in candidates:
            diam = surviving_diameter(graph, routing, faults | {node})
            key = -0.5 if diam == float("inf") else diam
            if key > best_key:
                best_key, best_node = key, node
        if best_node is None:
            break
        faults.add(best_node)
    return faults


def _bench_greedy(graph, routing, index, size, candidate_limit, seed):
    naive_seconds, _ = _best_of(
        lambda: _greedy_naive_baseline(graph, routing, size, candidate_limit, seed),
        repeats=2,
    )
    cursor_seconds, _ = _warm_best_of(
        lambda: greedy_adversarial_fault_set(
            graph, routing, size, candidate_limit=candidate_limit, seed=seed,
            index=index,
        )
    )
    return naive_seconds, cursor_seconds


def _bench_batched_greedy(graph, routing, size, candidate_limit, seed, backend):
    """Batched vs sequential greedy on one backend; asserts identical picks.

    Both sides run the library's own greedy (:func:`greedy_fault_set_from_
    index`) — the only difference is ``batched``: the sequential path
    evaluates every candidate one ``with_added``/``diameter`` at a time,
    the batched path ships cap-pruned candidate batches through the
    backend's batch kernel with sibling-bound memoisation.  Best-of-3 on
    both sides; each run builds fresh cursors, so no memoisation leaks
    across timings.
    """
    index = RouteIndex(graph, routing, backend=backend)
    index.surviving_diameters([frozenset()])  # build + warm the kernel
    sequential_s, sequential_pick = _best_of(
        lambda: greedy_fault_set_from_index(
            index, size, candidate_limit=candidate_limit, seed=seed, batched=False
        )
    )
    batched_s, batched_pick = _best_of(
        lambda: greedy_fault_set_from_index(
            index, size, candidate_limit=candidate_limit, seed=seed, batched=True
        )
    )
    assert batched_pick.nodes() == sequential_pick.nodes(), (
        f"batched greedy diverged from sequential on backend {backend}"
    )
    return {
        "size": size,
        "candidate_limit": candidate_limit,
        "backend": index.eval_backend,
        "sequential_s": round(sequential_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(sequential_s / batched_s, 2) if batched_s else None,
    }


def _bench_serialization(graph, routing, index):
    """Time the old per-worker payload (raw routing + rebuild) vs the new one."""
    start = time.perf_counter()
    raw_payload = pickle.dumps((graph, routing))
    raw_graph, raw_routing = pickle.loads(raw_payload)
    RouteIndex(raw_graph, raw_routing)  # what each worker would have to do
    raw_seconds = time.perf_counter() - start

    start = time.perf_counter()
    index_payload = pickle.dumps(index)
    pickle.loads(index_payload)  # the shipped pre-built index, ready to use
    index_seconds = time.perf_counter() - start
    return {
        "raw_payload_bytes": len(raw_payload),
        "raw_roundtrip_rebuild_s": round(raw_seconds, 4),
        "index_payload_bytes": len(index_payload),
        "index_roundtrip_s": round(index_seconds, 4),
        "speedup": round(raw_seconds / index_seconds, 2) if index_seconds else None,
    }


def run(quick: bool, workers: int, json_path: str) -> int:
    rows: List[dict] = []
    json_workloads: List[dict] = []
    target_speedups: List[float] = []
    numpy_speedups: List[float] = []
    have_numpy = numpy_available()
    numpy_smoke_ok = True
    target_entry = None
    np_target_entry = None
    for name, graph, construct, fault_size, samples, is_target, is_np_target in _workloads(
        quick
    ):
        result = construct(graph)
        battery = list(
            random_fault_sets(graph.nodes(), fault_size, samples, seed=13)
        )

        naive_seconds, naive = _warm_best_of(
            lambda: [
                surviving_diameter(graph, result.routing, fault_set)
                for fault_set in battery
            ]
        )

        index = RouteIndex(graph, result.routing, backend="bitset")
        bitset_seconds, bitset = _warm_best_of(
            lambda: index.surviving_diameters(battery)
        )

        numpy_seconds = None
        numpy_ratio = None
        if have_numpy:
            np_index = RouteIndex(graph, result.routing, backend="numpy")
            numpy_seconds, numpy_values = _warm_best_of(
                lambda: np_index.surviving_diameters(battery)
            )
            numpy_ratio = (
                bitset_seconds / numpy_seconds if numpy_seconds else float("inf")
            )
            if is_np_target:
                numpy_speedups.append(numpy_ratio)
                if quick and numpy_seconds > bitset_seconds:
                    numpy_smoke_ok = False
            assert numpy_values == bitset, f"numpy backend diverged on {name}"

        with CampaignEngine(graph, result.routing, workers=workers) as pool_engine:
            parallel_seconds, parallel = _warm_best_of(
                lambda: [diam for _, diam in pool_engine.evaluate(battery)]
            )

        assert naive == bitset == parallel, f"engine outcomes diverged on {name}"
        vs_naive = naive_seconds / bitset_seconds if bitset_seconds else float("inf")
        if is_target:
            target_speedups.append(vs_naive)
            target_entry = (name, graph, result, index)
        if is_np_target:
            np_target_entry = (name, graph, result)
        rows.append(
            {
                "family": name,
                "n": graph.number_of_nodes(),
                "faults": fault_size,
                "battery": len(battery),
                "naive_s": round(naive_seconds, 3),
                "bitset_s": round(bitset_seconds, 3),
                "numpy_s": (
                    round(numpy_seconds, 3) if numpy_seconds is not None else "-"
                ),
                f"parallel_s(w={workers})": round(parallel_seconds, 3),
                "vs_naive": f"{vs_naive:.1f}x",
                "np_vs_bitset": (
                    f"{numpy_ratio:.1f}x" if numpy_ratio is not None else "-"
                ),
            }
        )
        json_workloads.append(
            {
                "family": name,
                "n": graph.number_of_nodes(),
                "fault_size": fault_size,
                "battery": len(battery),
                "naive_s": round(naive_seconds, 4),
                "bitset_s": round(bitset_seconds, 4),
                "numpy_s": (
                    round(numpy_seconds, 4) if numpy_seconds is not None else None
                ),
                "numpy_vs_bitset": (
                    round(numpy_ratio, 2) if numpy_ratio is not None else None
                ),
                "parallel_s": round(parallel_seconds, 4),
                "parallel_workers": workers,
                "bitset_vs_naive": round(vs_naive, 2),
                "is_target": is_target,
                "is_np_target": is_np_target,
            }
        )

    print(
        format_table(
            rows,
            caption=(
                "Campaign engine throughput (best of 3 after a warm-up): "
                "naive vs bitset vs numpy vs parallel"
            ),
        )
    )

    # Greedy adversary end-to-end + serialization, on the target workload.
    greedy_entry = None
    serialization = None
    if target_entry is not None:
        name, graph, result, index = target_entry
        size, candidate_limit = (3, 20) if quick else (5, 40)
        naive_s, cursor_s = _bench_greedy(
            graph, result.routing, index, size, candidate_limit, seed=7
        )
        greedy_speedup = naive_s / cursor_s if cursor_s else float("inf")
        greedy_entry = {
            "family": name,
            "size": size,
            "candidate_limit": candidate_limit,
            "naive_from_scratch_s": round(naive_s, 4),
            "cursor_s": round(cursor_s, 4),
            "speedup": round(greedy_speedup, 2),
        }
        print(
            f"\ngreedy adversary on {name} (size={size}, candidates={candidate_limit}): "
            f"naive from scratch {naive_s:.3f}s, cursor {cursor_s:.3f}s "
            f"-> {greedy_speedup:.1f}x"
        )
        serialization = _bench_serialization(graph, result.routing, index)
        print(
            f"worker payload on {name}: raw routing {serialization['raw_payload_bytes']}B "
            f"+ rebuild {serialization['raw_roundtrip_rebuild_s']}s vs pre-built index "
            f"{serialization['index_payload_bytes']}B "
            f"roundtrip {serialization['index_roundtrip_s']}s "
            f"-> {serialization['speedup']}x"
        )

    # Batched vs sequential greedy adversary on the dense numpy-target
    # workload: the gate for the cap-pruned candidate-batch layer.  The
    # sequential side on the same backend is exactly the pre-batch library
    # behaviour, so the ratio isolates the batching (both sides must pick
    # the identical fault set — asserted inside the bench).  Without numpy
    # the bitset timing is still recorded (equality check included), but
    # the speedup gate only applies to the vectorised backend.
    batched_greedy_entry = None
    if np_target_entry is not None:
        name, graph, result = np_target_entry
        size, candidate_limit = (3, 20) if quick else (5, 40)
        batched_greedy_entry = _bench_batched_greedy(
            graph,
            result.routing,
            size,
            candidate_limit,
            seed=7,
            backend="numpy" if have_numpy else "bitset",
        )
        batched_greedy_entry["family"] = name
        print(
            f"batched greedy on {name} "
            f"({batched_greedy_entry['backend']} backend, size={size}, "
            f"candidates={candidate_limit}): sequential "
            f"{batched_greedy_entry['sequential_s']}s, batched "
            f"{batched_greedy_entry['batched_s']}s "
            f"-> {batched_greedy_entry['speedup']}x"
        )

    # 2000-node smoke battery: numpy-backend scale check (full mode only —
    # index construction at n=2000 is too slow for the CI smoke run).
    hub_entry = None
    if not quick and have_numpy:
        hub_entry = _bench_hub_battery()
        print(
            f"hub-2000 battery ({hub_entry['battery']} sets, "
            f"|F|={hub_entry['fault_size']}): bitset {hub_entry['bitset_s']}s, "
            f"numpy {hub_entry['numpy_s']}s -> {hub_entry['numpy_vs_bitset']}x"
        )

    payload = {
        "generated_by": "benchmarks/bench_campaign_engine.py",
        "mode": "quick" if quick else "full",
        "timing": "best of 3 after one warm-up run",
        "numpy_available": have_numpy,
        "workloads": json_workloads,
        "greedy_adversary": greedy_entry,
        "batched_greedy": batched_greedy_entry,
        "worker_serialization": serialization,
        "hub_2000": hub_entry,
        "targets": {
            "bitset_vs_naive_target": round(TARGET_BITSET_VS_NAIVE, 2),
            "greedy_cursor_vs_naive_target": round(TARGET_GREEDY_VS_NAIVE, 2),
            "smoke_bitset_vs_naive_target": TARGET_SMOKE_BITSET_VS_NAIVE,
            "numpy_vs_bitset_target": TARGET_NUMPY_SPEEDUP,
            "batched_greedy_target": TARGET_BATCHED_GREEDY_SPEEDUP,
        },
    }
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nresults written to {json_path}")

    if quick:
        smoke = min(target_speedups)
        if smoke < TARGET_SMOKE_BITSET_VS_NAIVE:
            print(
                f"quick mode: FAIL — bitset kernel only {smoke:.1f}x the naive "
                f"oracle on the smoke instance (target >= "
                f"{TARGET_SMOKE_BITSET_VS_NAIVE}x)"
            )
            return 1
        if not numpy_smoke_ok:
            print(
                "quick mode: FAIL — numpy backend slower than the bitset "
                "kernel on the smoke instance"
            )
            return 1
        numpy_note = (
            "numpy >= bitset on the smoke instance"
            if have_numpy
            else "numpy gate skipped (numpy not installed)"
        )
        print(
            f"quick mode: equivalence checked, bitset {smoke:.1f}x naive on the "
            f"smoke instance, {numpy_note}; speedup targets not enforced"
        )
        return 0

    worst = min(target_speedups)
    battery_ok = worst >= TARGET_BITSET_VS_NAIVE
    greedy_ok = (
        greedy_entry is not None
        and greedy_entry["speedup"] >= TARGET_GREEDY_VS_NAIVE
    )
    print(
        f"\n200-node battery bitset-vs-naive speedup: {worst:.1f}x "
        f"(target >= {TARGET_BITSET_VS_NAIVE:.2f}x) -> "
        f"{'PASS' if battery_ok else 'FAIL'}"
    )
    print(
        f"greedy adversary cursor-vs-naive speedup: {greedy_entry['speedup']:.1f}x "
        f"(target >= {TARGET_GREEDY_VS_NAIVE:.2f}x) -> "
        f"{'PASS' if greedy_ok else 'FAIL'}"
    )
    if have_numpy:
        worst_np = min(numpy_speedups)
        numpy_ok = worst_np >= TARGET_NUMPY_SPEEDUP
        print(
            f"dense 200-node battery numpy-vs-bitset speedup: {worst_np:.1f}x "
            f"(target >= {TARGET_NUMPY_SPEEDUP:.0f}x) -> "
            f"{'PASS' if numpy_ok else 'FAIL'}"
        )
        batched_ok = (
            batched_greedy_entry is not None
            and batched_greedy_entry["speedup"] >= TARGET_BATCHED_GREEDY_SPEEDUP
        )
        print(
            f"dense 200-node batched-vs-sequential greedy speedup: "
            f"{batched_greedy_entry['speedup'] if batched_greedy_entry else 0:.1f}x "
            f"(target >= {TARGET_BATCHED_GREEDY_SPEEDUP:.0f}x) -> "
            f"{'PASS' if batched_ok else 'FAIL'}"
        )
    else:
        numpy_ok = True
        batched_ok = True
        print("numpy gate skipped (numpy not installed)")
        print(
            "batched greedy gate skipped (vectorised backend unavailable; "
            "pick equivalence still asserted)"
        )
    return 0 if (battery_ok and greedy_ok and numpy_ok and batched_ok) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small graphs only (CI smoke run; smoke gates, no ratio targets)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=max(2, min(4, os.cpu_count() or 1)),
        help="worker processes for the parallel run",
    )
    parser.add_argument(
        "--json",
        default=_DEFAULT_JSON,
        help="path of the machine-readable results file (default: repo-root "
        "BENCH_kernel.json)",
    )
    args = parser.parse_args(argv)
    return run(args.quick, args.workers, args.json)


if __name__ == "__main__":
    sys.exit(main())
