"""Backend selection, numpy fallback, worker shipping, and cursor memoisation.

Covers the plumbing around the packed-uint64 numpy backend rather than its
arithmetic (that is the hypothesis suite's job): which values ``backend=``
accepts, the backend rule that resolves ``backend=None``, the bitset
fallback in a process without numpy, that the resolved backend survives
pickling, ``slim()`` and ``export_state`` shipping unchanged, and the
``EvalCursor`` lower-bound memoisation added alongside the backend (a
failed ``diameter(cap=...)`` must not be forgotten).
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core import RouteIndex, kernel_routing, np_kernel
from repro.core.np_kernel import numpy_available
from repro.core.route_index import (
    EVAL_BACKEND_BITSET,
    EVAL_BACKEND_NUMPY,
)
from repro.faults import CampaignEngine
from repro.faults.adversary import random_fault_sets
from repro.graphs import generators
from repro.graphs.traversal import INFINITY
from repro.results import ResultStore
from repro.scenarios import parse_scenario
from repro.scenarios.suite import run_scenario_suite, suite_manifest
from repro.serving import ServingEngine, compile_routing_artifact

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not available"
)


@pytest.fixture(scope="module")
def workload():
    graph = generators.circulant_graph(20, [1, 2])
    result = kernel_routing(graph)
    return graph, result.routing


#: A dense route graph above the rule's node floor: it resolves to numpy.
DENSE = "circulant:n=96,offsets=1+2+3/kernel"

_BUILT = {}


def _built(spec):
    """``(graph, routing)`` of a scenario spec, built once per module."""
    if spec not in _BUILT:
        graph, result = parse_scenario(spec).build()
        _BUILT[spec] = (graph, result.routing)
    return _BUILT[spec]


class TestBackendResolution:
    def test_default_is_bitset(self, workload):
        graph, routing = workload
        index = RouteIndex(graph, routing)
        assert index.backend == EVAL_BACKEND_BITSET
        assert index.eval_backend == EVAL_BACKEND_BITSET

    def test_invalid_backend_rejected(self, workload):
        graph, routing = workload
        for value in ("cuda", "auto", "sets"):
            with pytest.raises(ValueError, match="unknown eval backend"):
                RouteIndex(graph, routing, backend=value)

    @pytest.mark.parametrize(
        "spec, expected",
        [
            # Sparse route graphs (8 * arcs <= n^2) at or above the floor.
            ("cycle:n=120/kernel", EVAL_BACKEND_NUMPY),
            ("circulant:n=96,offsets=1+2/kernel", EVAL_BACKEND_NUMPY),
            ("circulant:n=200,offsets=1+2+3/kernel", EVAL_BACKEND_NUMPY),
            (DENSE, EVAL_BACKEND_NUMPY),
            ("hypercube:d=6/kernel", EVAL_BACKEND_NUMPY),
            # Below the node floor, dense (n = 32) or sparse (n = 63).
            ("hypercube:d=5/kernel", EVAL_BACKEND_BITSET),
            ("cycle:n=63/kernel", EVAL_BACKEND_BITSET),
        ],
    )
    def test_rule_resolves_backend(self, spec, expected):
        graph, routing = _built(spec)
        assert RouteIndex(graph, routing).backend == expected
        other = (
            EVAL_BACKEND_NUMPY if expected == EVAL_BACKEND_BITSET else EVAL_BACKEND_BITSET
        )
        assert RouteIndex(graph, routing, backend=other).backend == other

    @pytest.mark.parametrize("spec", [DENSE, "cycle:n=120/kernel"])
    def test_resolved_backend_travels_with_the_index(self, spec):
        graph, routing = _built(spec)
        index = RouteIndex(graph, routing)
        resolved = index.backend
        assert pickle.loads(pickle.dumps(index)).backend == resolved
        assert pickle.loads(pickle.dumps(index.slim())).backend == resolved
        assert RouteIndex.from_state(index.export_state()).backend == resolved

    @requires_numpy
    def test_resolution_does_not_depend_on_numpy(self, monkeypatch):
        """Without numpy a numpy-resolved index keeps its name and its bytes."""
        graph, routing = _built(DENSE)
        battery = list(random_fault_sets(graph.nodes(), 3, 40, seed=4))
        index = RouteIndex(graph, routing)
        assert index.eval_backend == EVAL_BACKEND_NUMPY
        values = index.surviving_diameters(battery)
        record = CampaignEngine(graph, routing).run_campaign(2, samples=24, seed=3).record()
        monkeypatch.setattr(np_kernel, "np", None)
        degraded = RouteIndex(graph, routing)
        assert degraded.backend == EVAL_BACKEND_NUMPY
        assert degraded.eval_backend == EVAL_BACKEND_BITSET
        assert degraded.surviving_diameters(battery) == values
        again = CampaignEngine(graph, routing).run_campaign(2, samples=24, seed=3).record()
        assert record["backend"] == EVAL_BACKEND_NUMPY
        assert json.dumps(again, sort_keys=True) == json.dumps(record, sort_keys=True)

    def test_suite_rows_record_each_scenario_resolution(self, tmp_path):
        specs = ["hypercube:d=6/kernel/sizes:1,3", "hypercube:d=5/kernel/sizes:2"]
        stores = []
        for workers in (1, 2):
            path = tmp_path / f"workers{workers}.jsonl"
            store = ResultStore.create(str(path), suite_manifest(specs, 12, 5))
            try:
                rows = run_scenario_suite(
                    specs, samples=12, seed=5, workers=workers, store=store
                )
            finally:
                store.close()
            assert [row.record()["backend"] for row in rows] == [
                EVAL_BACKEND_NUMPY,
                EVAL_BACKEND_NUMPY,
                EVAL_BACKEND_BITSET,
            ]
            stores.append(path.read_bytes())
        assert stores[0] == stores[1]

    def test_serving_keeps_bitset_on_dense_routings(self):
        graph, routing = _built(DENSE)
        artifact = compile_routing_artifact(graph, routing)
        assert artifact.to_index().backend == EVAL_BACKEND_BITSET
        assert ServingEngine(artifact).index.backend == EVAL_BACKEND_BITSET
        assert artifact.to_index(backend="numpy").backend == EVAL_BACKEND_NUMPY

    def test_kill_switch_forces_bitset_evaluation(self, workload, monkeypatch):
        """Without numpy a numpy index evaluates on bitset, values unchanged."""
        graph, routing = workload
        index = RouteIndex(graph, routing, backend="numpy")
        baseline = [
            index.surviving_diameter(faults)
            for faults in random_fault_sets(graph.nodes(), 2, 5, seed=11)
        ]
        monkeypatch.setattr(np_kernel, "np", None)
        assert not numpy_available()
        # The requested backend is preserved; only this process's
        # effective kernel degrades.
        assert index.backend == EVAL_BACKEND_NUMPY
        assert index.eval_backend == EVAL_BACKEND_BITSET
        degraded = [
            index.surviving_diameter(faults)
            for faults in random_fault_sets(graph.nodes(), 2, 5, seed=11)
        ]
        assert degraded == baseline


@requires_numpy
class TestNumpyShipping:
    """The numpy kernel is process-local; shipped indexes rebuild it lazily."""

    def test_pickle_drops_np_kernel(self, workload):
        graph, routing = workload
        index = RouteIndex(graph, routing, backend="numpy")
        faults = frozenset(list(graph.nodes())[:2])
        before = index.surviving_diameter(faults)
        assert index._np_kernel is not None  # warmed by the evaluation
        clone = pickle.loads(pickle.dumps(index))
        assert clone._np_kernel is None
        assert clone.backend == EVAL_BACKEND_NUMPY
        assert clone.surviving_diameter(faults) == before

    def test_slim_drops_np_kernel_and_keeps_tunables(self, workload):
        graph, routing = workload
        index = RouteIndex(graph, routing, backend="numpy")
        faults = frozenset(list(graph.nodes())[:2])
        before = index.surviving_diameter(faults)
        slim = pickle.loads(pickle.dumps(index.slim()))
        assert slim.graph is None and slim.routing is None
        assert slim._np_kernel is None
        assert slim.backend == EVAL_BACKEND_NUMPY
        assert slim.surviving_diameter(faults) == before

    def test_batch_api_matches_per_set(self, workload):
        graph, routing = workload
        index = RouteIndex(graph, routing, backend="numpy")
        battery = list(random_fault_sets(graph.nodes(), 3, 12, seed=5))
        assert index.surviving_diameters(battery) == [
            index.surviving_diameter(faults) for faults in battery
        ]
        capped = index.surviving_diameters(battery, cap=2)
        for value, faults in zip(capped, battery):
            exact = index.surviving_diameter(faults)
            assert value == exact if exact <= 2 else value > 2


class TestCursorLowerBoundMemoisation:
    """A failed diameter(cap=...) must inform later queries on the cursor."""

    @pytest.fixture(scope="class")
    def deep_cursor(self):
        """A cursor whose surviving diameter is at least 3.

        A cycle's kernel routing is total, so the fault-free route graph is
        complete; knocking out consecutive nodes forces long route detours.
        """
        graph = generators.circulant_graph(16, [1])
        result = kernel_routing(graph)
        index = RouteIndex(graph, result.routing)
        nodes = sorted(graph.nodes(), key=repr)
        faults = nodes[:3]
        exact = index.surviving_diameter(faults)
        assert exact >= 3, "fixture workload must have a deep surviving diameter"
        return index, faults, exact

    def test_failed_cap_is_memoised(self, deep_cursor):
        index, faults, exact = deep_cursor
        cursor = index.cursor(faults)
        assert cursor.diameter(cap=1) == INFINITY
        assert cursor._lower_bound >= 2

    def test_bound_short_circuits_without_bfs(self, deep_cursor, monkeypatch):
        index, faults, exact = deep_cursor
        cursor = index.cursor(faults)
        assert cursor.diameter(cap=2) == INFINITY
        # Any further evaluation attempt would be a regression: the memoised
        # lower bound already decides bounds below it.  EvalCursor uses
        # __slots__, so the trap goes on the class.
        from repro.core.route_index import EvalCursor

        monkeypatch.setattr(
            EvalCursor,
            "_evaluate",
            lambda *a, **k: pytest.fail("bound query re-ran the BFS"),
        )
        assert cursor.diameter_at_most(1) is False
        assert cursor.diameter_at_most(2) is False
        assert cursor.diameter(cap=2) == INFINITY

    def test_exact_diameter_still_obtainable_after_failed_cap(self, deep_cursor):
        index, faults, exact = deep_cursor
        cursor = index.cursor(faults)
        assert cursor.diameter(cap=1) == INFINITY
        assert cursor.diameter() == exact
        assert cursor.diameter(cap=1) == INFINITY  # memo survives exact eval

    def test_lower_bound_propagates_to_derived_cursors(self, deep_cursor):
        index, faults, exact = deep_cursor
        cursor = index.cursor(faults)
        assert cursor.diameter(cap=1) == INFINITY
        assert cursor._capped_unreached is not None
        source_bit, unreached, lb = cursor._capped_unreached
        # Pick a node that is neither the witness source nor its last
        # unreached node: removing more nodes only lengthens routes, so the
        # bound transfers.
        pool = index.node_pool
        fault_set = set(faults)
        for node in pool:
            bit = 1 << index._id_of[node]
            if node in fault_set or bit == source_bit or unreached == bit:
                continue
            child = cursor.with_added(node)
            assert child._lower_bound >= lb
            assert child.diameter() >= lb
            break
        else:  # pragma: no cover
            pytest.fail("no propagation candidate in the pool")

    @requires_numpy
    def test_numpy_backend_memoises_failed_caps_too(self):
        graph = generators.circulant_graph(16, [1])
        result = kernel_routing(graph)
        index = RouteIndex(graph, result.routing, backend="numpy")
        nodes = sorted(graph.nodes(), key=repr)
        cursor = index.cursor(nodes[:3])
        assert cursor.diameter(cap=1) == INFINITY
        assert cursor._lower_bound >= 2
        assert cursor.diameter_at_most(1) is False
