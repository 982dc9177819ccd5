"""Unit tests for the serving engine: views, deltas, LRU, batch queries."""

import pytest

from repro.core import build_routing
from repro.core.route_index import RouteIndex
from repro.exceptions import FaultModelError, ServingError
from repro.graphs import generators
from repro.serving import ServingEngine, compile_routing_artifact


@pytest.fixture(scope="module")
def case():
    graph = generators.circulant_graph(16, [1, 2])
    result = build_routing(graph, strategy="kernel")
    artifact = compile_routing_artifact(graph, result.routing, scheme=result.scheme)
    index = RouteIndex(graph, result.routing)
    return graph, result, artifact, index


def _ground_truth_hop(routing, faults, source, target):
    path = routing.get_route(source, target)
    if path is None or any(node in faults for node in path):
        return None
    return path[1]


class TestPointQueries:
    def test_next_hop_matches_routing_under_faults(self, case):
        graph, result, artifact, _index = case
        engine = ServingEngine(artifact)
        nodes = graph.nodes()
        faults = {nodes[2], nodes[9]}
        engine.set_faults(faults)
        for source in nodes:
            for target in nodes:
                if source == target:
                    continue
                assert engine.next_hop(source, target) == _ground_truth_hop(
                    result.routing, faults, source, target
                ), (source, target)

    def test_route_is_the_surviving_route(self, case):
        graph, result, artifact, _index = case
        engine = ServingEngine(artifact)
        nodes = graph.nodes()
        engine.fail(nodes[4])
        for source in nodes:
            for target in nodes:
                if source == target:
                    continue
                path = result.routing.get_route(source, target)
                served = engine.route(source, target)
                if path is None or nodes[4] in path:
                    assert served is None
                else:
                    assert served == tuple(path)

    def test_reachability_matches_surviving_route_graph(self, case):
        graph, _result, artifact, index = case
        engine = ServingEngine(artifact)
        nodes = graph.nodes()
        faults = [nodes[0], nodes[8]]
        engine.set_faults(faults)
        surviving = index.surviving_route_graph(faults)
        from repro.graphs.traversal import shortest_path

        for source in surviving.nodes():
            for target in surviving.nodes():
                expected = (
                    shortest_path(surviving, source, target) is not None
                )
                assert engine.reachable(source, target) == expected

    def test_diameter_matches_index(self, case):
        graph, _result, artifact, index = case
        engine = ServingEngine(artifact)
        nodes = graph.nodes()
        assert engine.surviving_diameter() == index.surviving_diameter([])
        engine.fail(nodes[3])
        engine.fail(nodes[7])
        assert engine.surviving_diameter() == index.surviving_diameter(
            [nodes[3], nodes[7]]
        )

    def test_unknown_node_raises(self, case):
        _graph, _result, artifact, _index = case
        engine = ServingEngine(artifact)
        with pytest.raises(FaultModelError):
            engine.next_hop("not-a-node", artifact.nodes[0])
        with pytest.raises(FaultModelError):
            engine.fail("not-a-node")
        with pytest.raises(FaultModelError):
            engine.restore("not-a-node")


class TestConsistencyModel:
    def test_views_are_immutable_snapshots(self, case):
        graph, _result, artifact, _index = case
        engine = ServingEngine(artifact)
        nodes = graph.nodes()
        before = engine.view()
        hops_before = before.batch_next_hop(
            [(nodes[0], nodes[5]), (nodes[1], nodes[6])]
        )
        engine.fail(nodes[5])
        # The old snapshot still answers for generation 0.
        assert before.generation == 0
        assert before.batch_next_hop(
            [(nodes[0], nodes[5]), (nodes[1], nodes[6])]
        ) == hops_before
        assert engine.view().generation == 1
        assert engine.view() is not before

    def test_generation_counter(self, case):
        graph, _result, artifact, _index = case
        engine = ServingEngine(artifact)
        nodes = graph.nodes()
        assert engine.generation == 0
        assert engine.fail(nodes[1]) == 1
        assert engine.fail(nodes[1]) == 1  # already faulty: no-op
        assert engine.restore(nodes[1]) == 2
        assert engine.restore(nodes[1]) == 2  # not faulty: no-op
        assert engine.set_faults([nodes[1], nodes[2]]) == 3

    def test_fail_restore_round_trip_restores_answers(self, case):
        graph, _result, artifact, _index = case
        engine = ServingEngine(artifact)
        nodes = graph.nodes()
        base = engine.surviving_diameter()
        engine.fail(nodes[6])
        degraded = engine.surviving_diameter()
        engine.restore(nodes[6])
        assert engine.surviving_diameter() == base
        assert engine.faults == ()
        engine.fail(nodes[6])
        assert engine.surviving_diameter() == degraded


class TestCursorLru:
    def test_flapping_fault_hits_the_cache(self, case):
        graph, _result, artifact, _index = case
        engine = ServingEngine(artifact)
        nodes = graph.nodes()
        for _ in range(4):
            engine.fail(nodes[5])
            engine.surviving_diameter()
            engine.restore(nodes[5])
        stats = engine.stats()
        # First fail is a miss; the three flaps afterwards all hit.
        assert stats["cursor_lru_hits"] >= 3
        assert stats["cursor_lru_misses"] == 1

    def test_lru_capacity_bounded(self, case):
        graph, _result, artifact, _index = case
        engine = ServingEngine(artifact, cursor_lru=2)
        nodes = graph.nodes()
        for node in nodes[:6]:
            engine.fail(node)
            engine.restore(node)
        assert engine.stats()["cursor_lru_size"] <= 2

    def test_lru_size_validated(self, case):
        _graph, _result, artifact, _index = case
        with pytest.raises(ServingError):
            ServingEngine(artifact, cursor_lru=0)

    def test_restore_replays_from_cached_prefix(self, case):
        graph, _result, artifact, index = case
        engine = ServingEngine(artifact)
        nodes = graph.nodes()
        engine.fail(nodes[1])
        engine.fail(nodes[2])
        engine.fail(nodes[3])
        engine.restore(nodes[2])
        assert set(engine.faults) == {nodes[1], nodes[3]}
        assert engine.surviving_diameter() == index.surviving_diameter(
            [nodes[1], nodes[3]]
        )


class TestBatchQueries:
    def test_batch_matches_scalar_under_faults(self, case):
        graph, _result, artifact, _index = case
        engine = ServingEngine(artifact)
        nodes = graph.nodes()
        engine.fail(nodes[2])
        view = engine.view()
        pairs = [(s, d) for s in nodes for d in nodes if s != d]
        assert engine.batch_next_hop(pairs) == [
            view.next_hop(s, d) for s, d in pairs
        ]

    def test_id_native_batch_mirrors_container(self, case):
        graph, _result, artifact, _index = case
        engine = ServingEngine(artifact)
        nodes = graph.nodes()
        engine.fail(nodes[1])
        n = artifact.n
        sources = [sid for sid in range(n) for _ in range(n)]
        targets = [tid for _ in range(n) for tid in range(n)]
        from_lists = engine.batch_next_hop_ids(sources, targets)
        assert isinstance(from_lists, list)
        view = engine.view()
        assert from_lists == [
            view.next_hop_id(s, d) for s, d in zip(sources, targets)
        ]
        np = pytest.importorskip("numpy")
        from_arrays = engine.batch_next_hop_ids(
            np.asarray(sources), np.asarray(targets)
        )
        assert isinstance(from_arrays, np.ndarray)
        assert from_arrays.tolist() == from_lists

    def test_batch_unknown_label_raises(self, case):
        _graph, _result, artifact, _index = case
        engine = ServingEngine(artifact)
        with pytest.raises(FaultModelError):
            engine.batch_next_hop([(artifact.nodes[0], "nope")])

    def test_stats_count_queries(self, case):
        graph, _result, artifact, _index = case
        engine = ServingEngine(artifact)
        nodes = graph.nodes()
        engine.next_hop(nodes[0], nodes[1])
        engine.batch_next_hop([(nodes[0], nodes[1]), (nodes[1], nodes[2])])
        engine.note_queries(5, batched=True)
        stats = engine.stats()
        assert stats["queries"] == 8
        assert stats["batched_queries"] == 7


class TestStats:
    """``stats()`` reports the successor memo and the batch tables built."""

    @pytest.fixture(scope="class")
    def sparse(self):
        # A sparse route graph: cursor evaluations take the batched
        # strategy, which reads the successor memo.
        graph = generators.cycle_graph(40)
        result = build_routing(graph, strategy="kernel")
        return graph, compile_routing_artifact(graph, result.routing)

    def test_memo_and_table_counters(self, sparse):
        graph, artifact = sparse
        engine = ServingEngine(artifact)
        stats = engine.stats()
        assert stats["successor_memo_size"] == 0
        assert stats["successor_memo_misses"] == 0
        assert stats["batch_tables"] == 0

        victim = graph.nodes()[5]
        engine.fail(victim)
        engine.surviving_diameter()
        stats = engine.stats()
        memo = engine.index._successor_memo
        assert stats["successor_memo_size"] == len(memo) > 0
        assert stats["successor_memo_misses"] == memo.misses == len(memo)

        # Flapping back to a known state re-reads memoised cursors: no
        # evaluation, so no new miss.
        engine.restore(victim)
        engine.fail(victim)
        engine.surviving_diameter()
        assert engine.stats()["successor_memo_misses"] == memo.misses

        np = pytest.importorskip("numpy")
        ids = np.arange(artifact.n)
        engine.batch_next_hop_ids(ids, ids[::-1])
        engine.batch_next_hop_ids(ids, ids)
        assert engine.stats()["batch_tables"] == 1  # one view, one table
        engine.fail(graph.nodes()[20])
        engine.batch_next_hop_ids(ids, ids)
        assert engine.stats()["batch_tables"] == 2
