"""Batch next-hop tables built from kill masks equal the row-unpacking build.

A view's effective next-hop table is the artifact's flat ``next_hop`` table
with ``-1`` at every pair whose route meets a fault.  The engine builds it
by copying the artifact's table and writing ``-1`` at each fault's kill
pairs.  The oracle below is the earlier construction, which unpacked the
cursor's surviving bit rows into a mask: the two must agree byte for byte
(values and dtype) on every view, over random fail / restore /
``set_faults`` sequences that reach the empty fault set and land on cursors
held in the LRU.  Multiroutings keep their per-pair fallback loop, whose
answers must equal the scalar path's.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import build_routing
from repro.core.routing import Routing
from repro.graphs import generators
from repro.graphs.traversal import shortest_path
from repro.scenarios.spec import parse_scenario
from repro.serving import ServingEngine, compile_routing_artifact

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)


def _unpacked_table(view):
    """The effective table from the cursor's rows, unpacked bit by bit."""
    artifact = view.artifact
    n = artifact.n
    rows = view.cursor._materialise_rows()
    width = (n + 7) // 8
    buffer = b"".join(row.to_bytes(width, "little") for row in rows)
    alive = np.unpackbits(
        np.frombuffer(buffer, dtype=np.uint8).reshape(n, width),
        axis=1,
        bitorder="little",
    )[:, :n]
    hops = np.frombuffer(artifact.next_hop, dtype="<i4")
    return np.where(alive.reshape(-1) != 0, hops, np.int32(-1))


def _shortest_path_routing(graph):
    """A non-kernel single routing: one BFS shortest path per pair."""
    routing = Routing(graph, bidirectional=False)
    for source in graph.nodes():
        for target in graph.nodes():
            if source != target:
                path = shortest_path(graph, source, target)
                if path is not None:
                    routing.set_route(source, target, path)
    return routing


@pytest.fixture(scope="module")
def artifacts():
    built = {}
    for spec in (
        "circulant:n=24,offsets=1+2/kernel/sizes:1",
        "cycle:n=20/multi-kernel/sizes:1",
    ):
        scenario = parse_scenario(spec)
        graph = scenario.build_graph()
        result = build_routing(graph, strategy=scenario.strategy, t=scenario.t)
        built[spec] = compile_routing_artifact(
            graph, result.routing, scheme=result.scheme
        )
    graph = generators.random_connected_graph(14, extra_edge_probability=0.2, seed=5)
    built["shortest-path"] = compile_routing_artifact(
        graph, _shortest_path_routing(graph)
    )
    return built


@st.composite
def churn(draw):
    """A random sequence of fail / restore / set_faults operations."""
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    steps = draw(st.integers(min_value=1, max_value=24))
    lru = draw(st.sampled_from([1, 2, 4, 128]))
    return seed, steps, lru


def _apply(engine, rng, nodes):
    action = rng.random()
    faults = engine.faults
    if action < 0.4:
        engine.fail(rng.choice(nodes))
    elif action < 0.75 and faults:
        engine.restore(rng.choice(faults))
    elif action < 0.85:
        engine.set_faults(())
    else:
        engine.set_faults(rng.sample(nodes, rng.randint(0, 4)))


class TestSingleRoutingTables:
    @SETTINGS
    @given(
        spec=st.sampled_from(
            ["circulant:n=24,offsets=1+2/kernel/sizes:1", "shortest-path"]
        ),
        case=churn(),
    )
    def test_tables_equal_the_unpacked_rows(self, artifacts, spec, case):
        seed, steps, lru = case
        artifact = artifacts[spec]
        engine = ServingEngine(artifact, cursor_lru=lru)
        rng = random.Random(seed)
        nodes = list(artifact.nodes)
        n = artifact.n
        sources = np.repeat(np.arange(n), n)
        targets = np.tile(np.arange(n), n)
        views = []
        for _ in range(steps):
            _apply(engine, rng, nodes)
            view = engine.view()
            hops = engine.batch_next_hop_ids(sources, targets)
            # A no-op update keeps the view, and the view keeps its table.
            if not views or views[-1] is not view:
                views.append(view)
            oracle = _unpacked_table(view)
            table = view._np_effective
            assert table.dtype == oracle.dtype
            assert table.tobytes() == oracle.tobytes()
            assert hops.dtype == oracle.dtype
            assert hops.tobytes() == oracle.tobytes()
            # A second batch on the same view reuses its table.
            engine.batch_next_hop_ids(sources[:7], targets[:7])
            assert view._np_effective is table
            assert engine.stats()["batch_tables"] == len(views)

    def test_empty_fault_set_is_the_artifact_table(self, artifacts):
        artifact = artifacts["circulant:n=24,offsets=1+2/kernel/sizes:1"]
        engine = ServingEngine(artifact)
        engine.fail(artifact.nodes[3])
        engine.restore(artifact.nodes[3])
        view = engine.view()
        engine.batch_next_hop_ids(np.arange(3), np.arange(3))
        assert view._np_effective.tobytes() == artifact.next_hop.tobytes()
        assert view._np_effective.tobytes() == _unpacked_table(view).tobytes()


class TestMultiroutingFallback:
    @SETTINGS
    @given(case=churn())
    def test_batches_equal_scalar_answers(self, artifacts, case):
        seed, steps, lru = case
        artifact = artifacts["cycle:n=20/multi-kernel/sizes:1"]
        engine = ServingEngine(artifact, cursor_lru=lru)
        rng = random.Random(seed)
        nodes = list(artifact.nodes)
        n = artifact.n
        sources = [sid for sid in range(n) for _ in range(n)]
        targets = [tid for _ in range(n) for tid in range(n)]
        for _ in range(steps):
            _apply(engine, rng, nodes)
            view = engine.view()
            expected = [view.next_hop_id(s, t) for s, t in zip(sources, targets)]
            assert engine.batch_next_hop_ids(sources, targets) == expected
            assert view._np_effective is None
        assert engine.stats()["batch_tables"] == 0
