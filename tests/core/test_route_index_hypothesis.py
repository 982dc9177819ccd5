"""Property-based equivalence: bitset vs numpy kernels vs naive path.

For random graphs, routings (single routes and multiroutings) and fault
sets, the :class:`~repro.core.route_index.RouteIndex` evaluation must
reproduce the naive computation *node for node*: the same surviving route
graph (same node set, same arc set) and the same diameter — through the
bitset kernel (the default, with either BFS strategy) and (when numpy is
installed) the packed-uint64 numpy backend, all of which must agree with
each other value-for-value.  The bounded decision API must satisfy
``surviving_diameter_at_most(F, b) <=> surviving_diameter(F) <= b`` for
every bound, and delta-derived cursors must equal from-scratch evaluations
— on every backend.  This is the contract that lets every campaign, battery
and sweep in the library ride the fast paths without changing any
observable result.

Without numpy the suite still runs: the numpy legs are skipped (the bitset
and oracle legs stay enforced), which is exactly the no-numpy CI
configuration.
"""

import random as _random
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import (
    RouteIndex,
    surviving_diameter,
    surviving_diameter_at_most,
    surviving_route_graph,
)
from repro.core.np_kernel import numpy_available
from repro.core.route_index import _batched_diameter, _per_source_diameter
from repro.core.routing import MultiRouting, Routing
from repro.faults import adversary
from repro.graphs import generators
from repro.graphs.traversal import shortest_path

INF = float("inf")

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not available"
)

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _shortest_path_routing(graph, rng):
    """A total routing assigning one BFS shortest path per ordered pair.

    Built directly (rather than via a paper construction) so the property
    test exercises arbitrary route shapes, including asymmetric ones: with
    probability 1/2 the routing is unidirectional and each direction gets an
    independently discovered path.
    """
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
    """A multirouting with the shortest path plus occasional detour routes."""
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
                # A detour through a neighbour of the source, when one exists.
                for middle in sorted(graph.neighbors(source), key=repr):
                    if middle in (source, target) or middle in path:
                        continue
                    tail = shortest_path(graph, middle, target)
                    if tail and source not in tail and len(set(tail)) == len(tail):
                        routing.add_route(source, target, [source] + tail)
                        break
    return routing


@st.composite
def graph_routing_faults(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    extra = draw(st.floats(min_value=0.0, max_value=0.4))
    multi = draw(st.booleans())
    graph = generators.random_connected_graph(n, extra_edge_probability=extra, seed=seed)
    rng = _random.Random(seed + 1)
    routing = (
        _random_multirouting(graph, rng) if multi else _shortest_path_routing(graph, rng)
    )
    fault_count = draw(st.integers(min_value=0, max_value=n))
    faults = set(rng.sample(graph.nodes(), fault_count))
    return graph, routing, faults


class TestIndexedEquivalence:
    @SETTINGS
    @given(graph_routing_faults())
    def test_surviving_graph_identical(self, case):
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        naive = surviving_route_graph(graph, routing, faults)
        fast = surviving_route_graph(graph, routing, faults, index=index)
        assert fast == naive
        assert sorted(map(repr, fast.nodes())) == sorted(map(repr, naive.nodes()))
        assert sorted(map(repr, fast.edges())) == sorted(map(repr, naive.edges()))

    @SETTINGS
    @given(graph_routing_faults())
    def test_surviving_diameter_identical(self, case):
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        assert surviving_diameter(
            graph, routing, faults, index=index
        ) == surviving_diameter(graph, routing, faults)

    @SETTINGS
    @given(graph_routing_faults())
    def test_index_is_reusable_across_fault_sets(self, case):
        """One index must serve many fault sets without cross-contamination."""
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        # Evaluate a different fault set first, then the real one.
        nodes = graph.nodes()
        other = set(nodes[: min(2, len(nodes))])
        index.surviving_diameter(other)
        assert surviving_diameter(
            graph, routing, faults, index=index
        ) == surviving_diameter(graph, routing, faults)

    @SETTINGS
    @given(graph_routing_faults())
    def test_all_kernels_agree(self, case):
        """Three-way equivalence: bitset == numpy kernel == naive path.

        The numpy leg silently degrades to two-way where numpy is not
        installed (the dedicated numpy suite below is skipped explicitly).
        """
        graph, routing, faults = case
        naive = surviving_diameter(graph, routing, faults)
        bitset = RouteIndex(graph, routing, backend="bitset")
        assert bitset.surviving_diameter(faults) == naive
        if numpy_available():
            vectorised = RouteIndex(graph, routing, backend="numpy")
            assert vectorised.surviving_diameter(faults) == naive


def _ids(mask):
    return [node for node in range(mask.bit_length()) if (mask >> node) & 1]


def _distances(rows, source):
    """BFS distances from ``source`` over bitset rows."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        step = []
        for node in frontier:
            for target in _ids(rows[node]):
                if target not in dist:
                    dist[target] = dist[node] + 1
                    step.append(target)
        frontier = step
    return dist


@st.composite
def surviving_rows(draw):
    """Bitset rows of a random digraph with faulty rows zeroed, plus a cap.

    At least two nodes stay alive, as in every call the index makes.
    """
    n = draw(st.integers(min_value=2, max_value=10))
    full = (1 << n) - 1
    first = draw(st.integers(min_value=0, max_value=n - 2))
    second = draw(st.integers(min_value=first + 1, max_value=n - 1))
    alive = draw(st.integers(min_value=0, max_value=full))
    alive |= (1 << first) | (1 << second)
    rows = []
    for node in range(n):
        row = draw(st.integers(min_value=0, max_value=full)) & ~(1 << node)
        rows.append(row & alive if (alive >> node) & 1 else 0)
    cap = draw(st.sampled_from([None, 0, 1, 2, 3, 1.5]))
    return rows, alive, cap


class TestBfsStrategies:
    """The batched and per-source BFS strategies are interchangeable.

    Uncapped, they return identical ``(value, witness, capped)`` triples,
    connected or not; so do capped evaluations of strongly connected rows
    under a positive integer cap.  Otherwise a capped evaluation may stop
    at a different point (a disconnection one strategy meets before the cap
    is a capped witness for the other; a cap below 1 or between integers
    lets the batched strategy finish an exact level the per-source one
    abandons), so there both must keep the cap contract and return sound
    witnesses.  Either way, when the lowest alive node's own BFS fails, both
    stop there with the same triple.
    """

    @SETTINGS
    @given(surviving_rows())
    def test_strategies_agree(self, case):
        rows, alive, cap = case
        batched = _batched_diameter(rows, alive, alive.bit_count(), cap)
        per_source = _per_source_diameter(rows, alive, cap)
        eccentricities = []
        for source in _ids(alive):
            dist = _distances(rows, source)
            reached = len(dist) == alive.bit_count()
            eccentricities.append(max(dist.values()) if reached else INF)
        exact = max(eccentricities)
        if cap is None or (exact != INF and cap >= 1 and cap == int(cap)):
            assert batched == per_source
        for value, witness, capped in (batched, per_source):
            if cap is None or value != INF:
                assert value == exact
            else:
                assert exact > cap
            if witness is not None:
                source_bit, unreached = witness
                dist = _distances(rows, source_bit.bit_length() - 1)
                assert unreached and not set(_ids(unreached)) & set(dist)
            if capped is not None:
                source_bit, unreached, lower_bound = capped
                assert lower_bound > cap
                dist = _distances(rows, source_bit.bit_length() - 1)
                assert unreached and all(
                    dist.get(node, INF) >= lower_bound for node in _ids(unreached)
                )

    @SETTINGS
    @given(surviving_rows())
    @example(([0, 0b0101, 0b1000, 0b0010], 0b1111, 1))
    def test_batched_returns_the_failing_lowest_source_triple(self, case):
        """The batched strategy starts with the lowest alive node's BFS.

        When that BFS misses a node or passes the cap, the per-source
        strategy stops at the same point, so both return the same triple.
        (The explicit example: node 0 has no out-arcs, so it is a
        disconnection, not a capped witness, even under cap 1.)
        """
        rows, alive, cap = case
        lowest = (alive & -alive).bit_length() - 1
        dist = _distances(rows, lowest)
        missed = len(dist) < alive.bit_count()
        if not missed and (cap is None or max(dist.values()) <= cap):
            return
        per_source = _per_source_diameter(rows, alive, cap)
        assert _batched_diameter(rows, alive, alive.bit_count(), cap) == per_source
        value, witness, capped = per_source
        assert value == INF
        assert (witness or capped)[0] == 1 << lowest
        assert witness is None or missed


class TestBoundedDecision:
    @SETTINGS
    @given(graph_routing_faults(), st.integers(min_value=0, max_value=14))
    def test_at_most_iff_diameter_leq_bound(self, case, bound):
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        exact = surviving_diameter(graph, routing, faults)
        assert index.surviving_diameter_at_most(faults, bound) == (exact <= bound)
        assert surviving_diameter_at_most(
            graph, routing, faults, bound, index=index
        ) == (exact <= bound)
        assert surviving_diameter_at_most(graph, routing, faults, bound) == (
            exact <= bound
        )

    @SETTINGS
    @given(graph_routing_faults())
    def test_at_most_infinite_bound_always_holds(self, case):
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        assert index.surviving_diameter_at_most(faults, float("inf"))

    @SETTINGS
    @given(graph_routing_faults(), st.integers(min_value=0, max_value=14))
    def test_capped_evaluation_is_exact_within_the_cap(self, case, cap):
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        exact = surviving_diameter(graph, routing, faults)
        capped = index.surviving_diameter(faults, cap=cap)
        if exact <= cap:
            assert capped == exact
        else:
            assert capped > cap


class TestCursorEquivalence:
    @SETTINGS
    @given(graph_routing_faults())
    def test_cursor_matches_fresh_evaluation(self, case):
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        cursor = index.cursor(faults)
        assert cursor.diameter() == surviving_diameter(graph, routing, faults)
        assert cursor.surviving_route_graph() == surviving_route_graph(
            graph, routing, faults
        )

    @SETTINGS
    @given(graph_routing_faults())
    def test_with_added_matches_from_scratch(self, case):
        """Delta-derived cursors equal from-scratch evaluation for every node."""
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        cursor = index.cursor(faults)
        for node in graph.nodes():
            derived = cursor.with_added(node)
            grown = set(faults) | {node}
            assert derived.diameter() == surviving_diameter(graph, routing, grown)
            assert derived.surviving_route_graph() == surviving_route_graph(
                graph, routing, grown
            )

    @SETTINGS
    @given(graph_routing_faults())
    def test_with_added_chain_matches_from_scratch(self, case):
        """A chain of derivations (the greedy adversary's access pattern)."""
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        cursor = index.cursor(())
        grown = set()
        for node in sorted(faults, key=repr):
            cursor = cursor.with_added(node)
            grown.add(node)
            assert cursor.diameter() == surviving_diameter(graph, routing, grown)


@requires_numpy
class TestNumpyBackendEquivalence:
    """The numpy backend must be observationally identical to the bitset one.

    Exercised through the same random graph/routing/fault generator as the
    bitset equivalence above — including multiroutings, whose killed-arc
    resolution is the trickiest part of the packed kernel — so every shape
    of surviving route graph crosses both kernels.
    """

    @SETTINGS
    @given(graph_routing_faults())
    def test_numpy_index_matches_naive(self, case):
        graph, routing, faults = case
        index = RouteIndex(graph, routing, backend="numpy")
        assert index.eval_backend == "numpy"
        assert index.surviving_diameter(faults) == surviving_diameter(
            graph, routing, faults
        )

    @SETTINGS
    @given(graph_routing_faults(), st.integers(min_value=0, max_value=14))
    def test_numpy_capped_evaluation_is_exact_within_the_cap(self, case, cap):
        graph, routing, faults = case
        index = RouteIndex(graph, routing, backend="numpy")
        exact = surviving_diameter(graph, routing, faults)
        capped = index.surviving_diameter(faults, cap=cap)
        if exact <= cap:
            assert capped == exact
        else:
            assert capped > cap

    @SETTINGS
    @given(graph_routing_faults(), st.integers(min_value=0, max_value=14))
    def test_numpy_bounded_decisions_match_bitset(self, case, bound):
        graph, routing, faults = case
        np_index = RouteIndex(graph, routing, backend="numpy")
        bs_index = RouteIndex(graph, routing, backend="bitset")
        assert np_index.surviving_diameter_at_most(
            faults, bound
        ) == bs_index.surviving_diameter_at_most(faults, bound)

    @SETTINGS
    @given(graph_routing_faults())
    def test_numpy_batch_matches_bitset_batch(self, case):
        """The batch API returns identical values (and types) per backend."""
        graph, routing, faults = case
        np_index = RouteIndex(graph, routing, backend="numpy")
        bs_index = RouteIndex(graph, routing, backend="bitset")
        ordered = sorted(faults, key=repr)
        battery = [frozenset(ordered[:k]) for k in range(len(ordered) + 1)]
        np_values = np_index.surviving_diameters(battery)
        bs_values = bs_index.surviving_diameters(battery)
        assert np_values == bs_values
        assert [type(v) for v in np_values] == [type(v) for v in bs_values]
        assert np_index.surviving_diameters(
            battery, cap=2
        ) == bs_index.surviving_diameters(battery, cap=2)

    @SETTINGS
    @given(graph_routing_faults())
    def test_numpy_cursor_chain_matches_bitset(self, case):
        """with_added chains agree across backends, caps and bounds included."""
        graph, routing, faults = case
        np_cursor = RouteIndex(graph, routing, backend="numpy").cursor(())
        bs_cursor = RouteIndex(graph, routing, backend="bitset").cursor(())
        for position, node in enumerate(sorted(faults, key=repr)):
            np_cursor = np_cursor.with_added(node)
            bs_cursor = bs_cursor.with_added(node)
            bound = position % 4
            assert np_cursor.diameter_at_most(bound) == bs_cursor.diameter_at_most(
                bound
            )
            assert np_cursor.diameter() == bs_cursor.diameter()


class TestBatchedCandidateEquivalence:
    """The batched candidate API must equal per-candidate evaluation exactly.

    ``batch_with_added`` (and its wrapper ``candidate_diameters``) is the
    substrate of the batched greedy adversary; these properties pin it to
    the one-at-a-time ground truth on every backend, capped and uncapped.
    A capped batch may legitimately return ``inf`` for values above the
    cap, but finite values must be exact.
    """

    def _backends(self):
        return ("bitset", "numpy") if numpy_available() else ("bitset",)

    @SETTINGS
    @given(graph_routing_faults())
    def test_batch_with_added_matches_with_added(self, case):
        graph, routing, faults = case
        candidates = [n for n in sorted(graph.nodes(), key=repr) if n not in faults]
        for backend in self._backends():
            index = RouteIndex(graph, routing, backend=backend)
            cursor = index.cursor(faults)
            trials = cursor.batch_with_added(candidates)
            reference = index.cursor(faults)
            for node, (child, value) in zip(candidates, trials):
                assert value == reference.with_added(node).diameter()
                assert child.diameter() == value

    @SETTINGS
    @given(graph_routing_faults(), st.integers(min_value=0, max_value=14))
    def test_capped_batch_finite_values_are_exact(self, case, cap):
        graph, routing, faults = case
        candidates = [n for n in sorted(graph.nodes(), key=repr) if n not in faults]
        inf = float("inf")
        for backend in self._backends():
            index = RouteIndex(graph, routing, backend=backend)
            trials = index.cursor(faults).batch_with_added(candidates, cap=cap)
            reference = index.cursor(faults)
            for node, (_child, value) in zip(candidates, trials):
                exact = reference.with_added(node).diameter()
                if exact <= cap:
                    assert value == exact
                elif value != inf:
                    # Above-cap values may come back exact from memoisation.
                    assert value == exact

    @SETTINGS
    @given(graph_routing_faults())
    def test_candidate_diameters_matches_from_scratch(self, case):
        graph, routing, faults = case
        candidates = [n for n in sorted(graph.nodes(), key=repr) if n not in faults]
        for backend in self._backends():
            index = RouteIndex(graph, routing, backend=backend)
            values = index.candidate_diameters(faults, candidates)
            for node, value in zip(candidates, values):
                assert value == surviving_diameter(
                    graph, routing, set(faults) | {node}
                )


def _sequential(search):
    """``search`` with each round evaluated one uncapped candidate at a time."""

    def run(*args, **kwargs):
        with mock.patch.object(adversary, "_batched_round", adversary._sequential_round):
            return search(*args, **kwargs)

    return run


class TestBatchedGreedyEquivalence:
    """Batched greedy must be byte-identical to the sequential adversary.

    The cap-pruned two-phase batch round, the sibling-bound memoisation and
    the numpy tensor path are all pure accelerations: for every graph,
    routing, seed, candidate budget and backend the chosen fault set — not
    just its diameter — must equal the choice of the sequential reference
    round (``adversary._sequential_round``, one uncapped evaluation per
    candidate).
    """

    @SETTINGS
    @given(
        graph_routing_faults(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    def test_batched_equals_sequential_across_backends(
        self, case, size, candidate_limit, seed
    ):
        from repro.faults.adversary import greedy_adversarial_fault_set

        graph, routing, _faults = case
        backends = ("bitset", "numpy") if numpy_available() else ("bitset",)
        picks = []
        for backend in backends:
            for search in (
                _sequential(greedy_adversarial_fault_set),
                greedy_adversarial_fault_set,
            ):
                index = RouteIndex(graph, routing, backend=backend)
                fault_set = search(
                    graph,
                    routing,
                    size,
                    candidate_limit=candidate_limit,
                    seed=seed,
                    index=index,
                )
                picks.append(tuple(sorted(fault_set, key=repr)))
        assert len(set(picks)) == 1

    @SETTINGS
    @given(
        graph_routing_faults(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    def test_index_greedy_equals_sequential(self, case, size, seed):
        """The index-only entry point agrees with its own sequential path."""
        from repro.faults.adversary import greedy_fault_set_from_index

        graph, routing, _faults = case
        index = RouteIndex(graph, routing)
        batched = greedy_fault_set_from_index(index, size, candidate_limit=4, seed=seed)
        sequential = _sequential(greedy_fault_set_from_index)(
            index, size, candidate_limit=4, seed=seed
        )
        assert sorted(batched, key=repr) == sorted(sequential, key=repr)
