"""Property-based equivalence: compiled artifacts vs ``RouteIndex`` ground truth.

For random graphs, routings (single and multi) and fault sets, the serving
layer must answer **byte-identically** to a fresh :class:`RouteIndex` built
from the same objects:

* every ``next_hop``/``route`` answer equals the first surviving route of
  the pair (the routing's own get_route/get_routes filtered by the faults);
* ``reachable`` equals connectivity in the naive surviving route graph;
* ``surviving_diameter`` equals ``RouteIndex.surviving_diameter`` — through
  the bitset backend and, when numpy is installed, the numpy backend of the
  artifact-rebuilt index (``to_index(backend=...)``);
* everything above also holds after a disk round trip (save + verified
  load), which pins the on-disk format against the in-memory compiler.

Without numpy the numpy legs are skipped; the bitset legs stay enforced —
exactly the no-numpy CI configuration.
"""

import os
import random as _random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RouteIndex
from repro.core.np_kernel import numpy_available
from repro.core.routing import MultiRouting, Routing
from repro.graphs import generators
from repro.graphs.traversal import shortest_path
from repro.serving import ServingEngine, compile_routing_artifact, load_artifact

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not available"
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _shortest_path_routing(graph, rng):
    bidirectional = rng.random() < 0.5
    routing = Routing(graph, bidirectional=bidirectional)
    nodes = graph.nodes()
    for source in nodes:
        for target in nodes:
            if source == target or routing.has_route(source, target):
                continue
            path = shortest_path(graph, source, target)
            if path is not None:
                routing.set_route(source, target, path)
    return routing


def _random_multirouting(graph, rng):
    routing = MultiRouting(graph, bidirectional=True)
    nodes = graph.nodes()
    for source in nodes:
        for target in nodes:
            if repr(source) >= repr(target):
                continue
            path = shortest_path(graph, source, target)
            if path is None:
                continue
            routing.add_route(source, target, path)
            if len(path) >= 2 and rng.random() < 0.5:
                for middle in sorted(graph.neighbors(source), key=repr):
                    if middle in (source, target) or middle in path:
                        continue
                    tail = shortest_path(graph, middle, target)
                    if tail and source not in tail and len(set(tail)) == len(tail):
                        routing.add_route(source, target, [source] + tail)
                        break
    return routing


@st.composite
def serving_cases(draw):
    n = draw(st.integers(min_value=3, max_value=11))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    extra = draw(st.floats(min_value=0.0, max_value=0.4))
    multi = draw(st.booleans())
    graph = generators.random_connected_graph(
        n, extra_edge_probability=extra, seed=seed
    )
    rng = _random.Random(seed + 1)
    routing = (
        _random_multirouting(graph, rng)
        if multi
        else _shortest_path_routing(graph, rng)
    )
    fault_count = draw(st.integers(min_value=0, max_value=max(0, n - 1)))
    faults = sorted(rng.sample(graph.nodes(), fault_count), key=repr)
    return graph, routing, faults


def _first_surviving_route(routing, source, target, faults):
    """Ground truth straight off the routing objects (no index machinery)."""
    fault_set = set(faults)
    if source in fault_set or target in fault_set:
        return None
    if isinstance(routing, MultiRouting):
        candidates = routing.get_routes(source, target)
    else:
        path = routing.get_route(source, target)
        candidates = [] if path is None else [path]
    for path in candidates:
        if fault_set.isdisjoint(path):
            return tuple(path)
    return None


class TestCompiledAnswersMatchGroundTruth:
    @SETTINGS
    @given(serving_cases())
    def test_next_hop_and_route(self, case):
        graph, routing, faults = case
        artifact = compile_routing_artifact(graph, routing)
        engine = ServingEngine(artifact)
        engine.set_faults(faults)
        for source in graph.nodes():
            for target in graph.nodes():
                if source == target:
                    continue
                expected = _first_surviving_route(
                    routing, source, target, faults
                )
                assert engine.route(source, target) == expected
                assert engine.next_hop(source, target) == (
                    None if expected is None else expected[1]
                )

    @SETTINGS
    @given(serving_cases())
    def test_batch_equals_scalar(self, case):
        graph, routing, faults = case
        artifact = compile_routing_artifact(graph, routing)
        engine = ServingEngine(artifact)
        engine.set_faults(faults)
        view = engine.view()
        nodes = graph.nodes()
        pairs = [(s, d) for s in nodes for d in nodes if s != d]
        assert view.batch_next_hop(pairs) == [
            view.next_hop(s, d) for s, d in pairs
        ]

    @SETTINGS
    @given(serving_cases())
    def test_reachability_and_diameter(self, case):
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        artifact = compile_routing_artifact(graph, routing, index=index)
        engine = ServingEngine(artifact)
        engine.set_faults(faults)
        assert engine.surviving_diameter() == index.surviving_diameter(faults)
        surviving = index.surviving_route_graph(faults)
        alive = set(surviving.nodes())
        for source in graph.nodes():
            for target in graph.nodes():
                expected = (
                    source in alive
                    and target in alive
                    and shortest_path(surviving, source, target) is not None
                )
                assert engine.reachable(source, target) == expected


class TestBackendsAndDiskRoundTrip:
    @SETTINGS
    @given(serving_cases())
    def test_disk_round_trip_is_byte_identical(self, tmp_path_factory, case):
        graph, routing, faults = case
        artifact = compile_routing_artifact(graph, routing)
        directory = tmp_path_factory.mktemp("artifacts")
        path = os.path.join(directory, "case.repart")
        artifact.save(path)
        loaded = load_artifact(path, expect_fingerprint=routing.fingerprint())
        fresh = ServingEngine(artifact)
        reloaded = ServingEngine(loaded)
        fresh.set_faults(faults)
        reloaded.set_faults(faults)
        nodes = graph.nodes()
        pairs = [(s, d) for s in nodes for d in nodes if s != d]
        assert reloaded.batch_next_hop(pairs) == fresh.batch_next_hop(pairs)
        assert reloaded.surviving_diameter() == fresh.surviving_diameter()

    @SETTINGS
    @given(serving_cases())
    def test_bitset_backend_matches_index(self, case):
        graph, routing, faults = case
        index = RouteIndex(graph, routing, backend="bitset")
        artifact = compile_routing_artifact(graph, routing)
        engine = ServingEngine(artifact, backend="bitset")
        engine.set_faults(faults)
        assert engine.index.eval_backend == "bitset"
        assert engine.surviving_diameter() == index.surviving_diameter(faults)

    @requires_numpy
    @SETTINGS
    @given(serving_cases())
    def test_numpy_backend_matches_bitset(self, case):
        graph, routing, faults = case
        artifact = compile_routing_artifact(graph, routing)
        bitset = ServingEngine(artifact, backend="bitset")
        vectorised = ServingEngine(artifact, backend="numpy")
        bitset.set_faults(faults)
        vectorised.set_faults(faults)
        assert vectorised.index.eval_backend == "numpy"
        assert vectorised.surviving_diameter() == bitset.surviving_diameter()
        nodes = graph.nodes()
        pairs = [(s, d) for s in nodes for d in nodes if s != d]
        assert vectorised.batch_next_hop(pairs) == bitset.batch_next_hop(pairs)
