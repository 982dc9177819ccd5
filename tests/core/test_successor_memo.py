"""The successor-list memo behind every evaluation on the bitset kernel.

:func:`repro.core.route_index._batched_diameter` reads the successor ids of
each row it propagates in two parts: the row's hub successors (``row &
hubs``, the nodes whose fault-free row is longer than the mean row) and the
rest (``row & ~hubs``), the latter only when the hub successors leave the
source's reach incomplete.  Index evaluations, cursor and one-shot alike,
pass their index's :class:`~repro.core.route_index._SuccessorMemo`, keyed
by part value, so parts that recur across related fault sets are converted
once.  The memo must stay within its documented bound, hold only such
parts mapped to their bit positions, start empty in every copied or rebuilt
index, and never change an answer: triples equal those of the memo-free,
hub-free evaluation kept below as the oracle, with the memo empty, warm, or
cleared mid-run, on route graphs with hub rows and without them.
"""

import math
import pickle
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RouteIndex, build_routing
from repro.core.route_index import (
    BFS_DENSITY_FACTOR,
    SUCCESSOR_MEMO_FACTOR,
    _batched_diameter,
    _per_source_diameter,
    _rows_diameter_witness,
    _SuccessorMemo,
)
from repro.core.routing import Routing
from repro.graphs import generators
from repro.scenarios.spec import parse_scenario

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)

#: Sparse route graphs, so cursor evaluations take the batched strategy:
#: single routings (the serving benchmark's among them) and a multirouting,
#: each with a few hub rows (the kernel's separator), and the edge routes of
#: a circulant, whose rows are all alike, so it has no hub.
SPECS = (
    "cycle:n=40/kernel/sizes:1",
    "circulant:n=96,offsets=1+2/kernel/sizes:1",
    "cycle:n=30/multi-kernel/sizes:1",
)
HUBLESS = "circulant:n=40,offsets=1+2/edge-routes"
ROUTE_GRAPHS = SPECS + (HUBLESS,)

CAPS = (None, 1, 2, 3, 5, 8)


@pytest.fixture(scope="module")
def built():
    indexes = {}
    for spec in SPECS:
        scenario = parse_scenario(spec)
        graph = scenario.build_graph()
        result = build_routing(graph, strategy=scenario.strategy, t=scenario.t)
        indexes[spec] = RouteIndex(graph, result.routing, backend="bitset")
    graph = generators.circulant_graph(40, [1, 2])
    routing = Routing(graph)
    routing.add_all_edge_routes()
    indexes[HUBLESS] = RouteIndex(graph, routing, backend="bitset")
    return indexes


def _fault_lists(draw, nodes):
    """Overlapping fault sets: a shared base plus churned extra nodes."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    base = rng.sample(nodes, draw(st.integers(min_value=0, max_value=2)))
    lists = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        extra = rng.sample(nodes, rng.randint(0, 2))
        lists.append(sorted(set(base) | set(extra), key=repr))
    return lists


def _bits(row):
    return tuple(node for node in range(row.bit_length()) if (row >> node) & 1)


def _hubs(rows):
    """The hub rule restated: rows holding more arcs than the mean row."""
    mean = sum(bin(row).count("1") for row in rows) / len(rows)
    return sum(
        1 << node for node, row in enumerate(rows) if bin(row).count("1") > mean
    )


def _memo_free_batched(rows, alive, cap):
    """The batched strategy with successor lists walked bit by bit: the oracle.

    The same guard and propagation as ``_batched_diameter``, without a
    memo: every alive row is turned into its successor ids afresh.
    """
    guard = _per_source_diameter(rows, alive, cap, alive & -alive)
    if guard[0] == math.inf:
        return guard
    ids = _bits(alive)
    succ = {node: _bits(rows[node]) for node in ids}
    reach = {node: (1 << node) | rows[node] for node in ids}
    level = 1
    while True:
        complete = alive
        for node in ids:
            complete &= reach[node]
        if complete == alive:
            return level, None, None
        if cap is not None and level >= cap:
            for node in ids:
                if reach[node] != alive:
                    return math.inf, None, (1 << node, alive & ~reach[node], level + 1)
        advanced = {}
        for node in ids:
            acc = reach[node]
            for target in succ[node]:
                acc |= reach[target]
            advanced[node] = acc
        if advanced == reach:
            for node in ids:
                if reach[node] != alive:
                    return math.inf, (1 << node, alive & ~reach[node]), None
        reach = advanced
        level += 1


def _memo_free_witness(rows, alive, cap):
    """``_rows_diameter_witness`` with the memo-free batched strategy."""
    if not alive:
        return math.inf, None, None
    total = alive.bit_count()
    if total == 1:
        return 0, None, None
    arcs = sum(row.bit_count() for row in rows)
    if arcs * BFS_DENSITY_FACTOR <= total * total:
        return _memo_free_batched(rows, alive, cap)
    return _per_source_diameter(rows, alive, cap)


def _reference(index, faults, cap):
    """The oracle's triple for the surviving rows of ``faults``."""
    cursor = index.cursor(faults)
    return _memo_free_witness(cursor._materialise_rows(), cursor._alive, cap)


class TestBound:
    def test_limit_is_the_documented_constant(self, built):
        for index in built.values():
            assert index._successor_memo.limit == SUCCESSOR_MEMO_FACTOR * index._n
            assert isinstance(index._successor_memo, _SuccessorMemo)

    def test_memo_never_exceeds_its_bound(self, built):
        """A tiny bound forces clears; the memo stays within it throughout."""
        index = RouteIndex.from_state(
            built["circulant:n=96,offsets=1+2/kernel/sizes:1"].export_state(),
            backend="bitset",
        )
        index._successor_memo = _SuccessorMemo(50, index._successor_memo.hubs)
        rng = random.Random(7)
        nodes = list(index._nodes)
        misses = 0
        for _ in range(60):
            faults = rng.sample(nodes, rng.randint(0, 3))
            expected = _reference(index, faults, None)
            assert index.cursor(faults)._evaluate(None) == expected
            memo = index._successor_memo
            assert len(memo) <= memo.limit
            assert memo.misses >= misses
            misses = memo.misses
        assert misses > 50  # the bound was reached, so the memo was cleared

    def test_default_bound_holds_under_churn(self, built):
        index = RouteIndex.from_state(
            built["cycle:n=40/kernel/sizes:1"].export_state(), backend="bitset"
        )
        rng = random.Random(3)
        nodes = list(index._nodes)
        for _ in range(200):
            index.cursor(rng.sample(nodes, rng.randint(0, 2))).diameter()
            assert len(index._successor_memo) <= index._successor_memo.limit


class TestHubs:
    def test_hubs_are_the_rows_longer_than_the_mean(self, built):
        for key, index in built.items():
            hubs = index._successor_memo.hubs
            assert hubs == _hubs(index._base_rows)
            assert bool(hubs) == (key != HUBLESS)
            # A memo for bare rows takes the hubs of those rows.
            rows = index.cursor([index._nodes[0]])._materialise_rows()
            assert _SuccessorMemo.for_rows(rows).hubs == _hubs(rows)
        # The serving benchmark's route graph: its four separator rows.
        index = built["circulant:n=96,offsets=1+2/kernel/sizes:1"]
        hub_ids = _bits(index._successor_memo.hubs)
        lengths = sorted(bin(index._base_rows[node]).count("1") for node in hub_ids)
        assert len(lengths) == 4 and lengths[0] > 90


class TestEntries:
    @SETTINGS
    @given(data=st.data())
    def test_every_entry_is_its_rows_bit_positions(self, built, data):
        """Every key is the hub part or the rest of a propagated row.

        An entry maps such a part to its bit positions, ascending.  Both
        parts of every surviving row of the evaluated fault sets are
        allowed; a key that mixes hub and non-hub bits is not.
        """
        spec = data.draw(st.sampled_from(ROUTE_GRAPHS))
        index = RouteIndex.from_state(built[spec].export_state(), backend="bitset")
        hubs = index._successor_memo.hubs
        index.cursor(()).diameter()
        parts = set()
        for faults in [()] + _fault_lists(data.draw, list(index._nodes)):
            cap = data.draw(st.sampled_from(CAPS))
            index.cursor(faults).diameter(cap=cap)
            index.surviving_diameter(faults, cap=cap)
            for row in index.cursor(faults)._materialise_rows():
                parts.update((row & hubs, row & ~hubs))
        memo = index._successor_memo
        if spec.startswith("circulant"):
            # Its fault-free route graph takes the batched strategy.
            assert memo
        for part, successors in memo.items():
            assert isinstance(successors, tuple)
            assert successors == _bits(part)
            assert part & hubs in (0, part)
        # At most two parts per row and evaluation: the bound was not reached.
        assert memo.misses == len(memo)
        assert set(memo) <= parts

    def test_misses_count_the_converted_rows(self, built):
        index = RouteIndex.from_state(
            built["circulant:n=96,offsets=1+2/kernel/sizes:1"].export_state(),
            backend="bitset",
        )
        memo = index._successor_memo
        index.cursor(()).diameter()
        first = memo.misses
        assert first == len(memo) > 0
        # The same fault set again: every part hits, no miss is counted.
        index.cursor(()).diameter()
        assert memo.misses == first


class TestCopiesStartEmpty:
    def _warm(self, built):
        index = built["circulant:n=96,offsets=1+2/kernel/sizes:1"]
        index.cursor([index._nodes[0]]).diameter()
        assert index._successor_memo
        return index

    def test_slim(self, built):
        index = self._warm(built)
        clone = index.slim()
        assert len(clone._successor_memo) == 0
        assert clone._successor_memo.misses == 0
        assert clone._successor_memo is not index._successor_memo
        assert clone._successor_memo.limit == index._successor_memo.limit
        assert clone._successor_memo.hubs == index._successor_memo.hubs

    def test_pickle(self, built):
        index = self._warm(built)
        for original in (index, index.slim()):
            copy = pickle.loads(pickle.dumps(original))
            assert isinstance(copy._successor_memo, _SuccessorMemo)
            assert len(copy._successor_memo) == 0
            assert copy._successor_memo.misses == 0
            assert copy._successor_memo.limit == index._successor_memo.limit
            assert copy._successor_memo.hubs == index._successor_memo.hubs
        # Pickling never empties the sender's memo.
        assert index._successor_memo

    def test_from_state(self, built):
        index = self._warm(built)
        rebuilt = RouteIndex.from_state(index.export_state())
        assert len(rebuilt._successor_memo) == 0
        assert rebuilt._successor_memo.misses == 0
        assert rebuilt._successor_memo.limit == SUCCESSOR_MEMO_FACTOR * rebuilt._n
        assert rebuilt._successor_memo.hubs == index._successor_memo.hubs


class TestOneShot:
    """One-shot ``surviving_diameter(s)`` calls read the same memo."""

    def test_one_shot_calls_fill_and_hit_the_memo(self, built):
        index = RouteIndex.from_state(
            built["circulant:n=96,offsets=1+2/kernel/sizes:1"].export_state(),
            backend="bitset",
        )
        memo = index._successor_memo
        nodes = index._nodes
        battery = [[nodes[1]], [nodes[2]], [nodes[3], nodes[9]]]
        expected = [_reference(index, faults, None)[0] for faults in battery]
        assert index.surviving_diameter(battery[0]) == expected[0]
        first = memo.misses
        assert first == len(memo) > 0
        # The same fault set again converts no part.
        assert index.surviving_diameter(battery[0]) == expected[0]
        assert memo.misses == first
        # A different fault set converts only the parts its faults changed.
        assert index.surviving_diameters(battery) == expected
        assert first < memo.misses < 3 * first
        # A cursor for a fault set the one-shot calls saw converts nothing.
        misses = memo.misses
        assert index.cursor(battery[2])._evaluate(None) == _reference(
            index, battery[2], None
        )
        assert memo.misses == misses

    @SETTINGS
    @given(data=st.data())
    def test_values_equal_the_oracle(self, built, data):
        spec = data.draw(st.sampled_from(ROUTE_GRAPHS))
        index = RouteIndex.from_state(built[spec].export_state(), backend="bitset")
        lists = _fault_lists(data.draw, list(index._nodes))
        cap = data.draw(st.sampled_from(CAPS))
        clear_at = data.draw(st.integers(min_value=0, max_value=len(lists)))
        expected = [_reference(index, faults, cap)[0] for faults in lists]
        for position, faults in enumerate(lists):
            assert index.surviving_diameter(faults, cap=cap) == expected[position]
            if position == clear_at:
                index._successor_memo.clear()
        assert index.surviving_diameters(lists, cap=cap) == expected
        memo = index._successor_memo
        assert len(memo) <= memo.limit


class TestSameTriples:
    """Cursor triples equal the oracle's whatever the memo's state."""

    @SETTINGS
    @given(data=st.data())
    def test_empty_warm_and_cleared(self, built, data):
        spec = data.draw(st.sampled_from(ROUTE_GRAPHS))
        state = built[spec].export_state()
        nodes = list(built[spec]._nodes)
        lists = _fault_lists(data.draw, nodes)
        caps = [data.draw(st.sampled_from(CAPS)) for _ in lists]
        clear_at = data.draw(st.integers(min_value=0, max_value=len(lists)))
        index = RouteIndex.from_state(state, backend="bitset")
        for position, (faults, cap) in enumerate(zip(lists, caps)):
            expected = _reference(index, faults, cap)
            # Fresh memo for the first call, warm (the same rows) for the
            # second; the run clears the memo once at ``clear_at``.
            assert index.cursor(faults)._evaluate(cap) == expected
            if position == clear_at:
                index._successor_memo.clear()
            assert index.cursor(faults)._evaluate(cap) == expected
        # Cursors derived by deltas read the same warm memo.
        cursor = index.cursor(lists[0])
        for node in data.draw(st.lists(st.sampled_from(nodes), max_size=3)):
            cursor = cursor.with_added(node)
            faults = sorted(cursor.faults, key=repr)
            for cap in CAPS:
                assert cursor._evaluate(cap) == _reference(index, faults, cap)

    @SETTINGS
    @given(data=st.data())
    def test_batched_strategy_equals_the_oracle(self, built, data):
        """A shared memo of any bound and hubs, or the call's own: the oracle's triple.

        Hubs drawn: the index's, none (every successor in the rest part),
        or every node (every successor in the hub part).
        """
        spec = data.draw(st.sampled_from(ROUTE_GRAPHS))
        index = built[spec]
        hubs = data.draw(
            st.sampled_from([index._successor_memo.hubs, 0, index._full_mask])
        )
        memo = _SuccessorMemo(data.draw(st.sampled_from([1, 5, 10 ** 6])), hubs)
        for faults in _fault_lists(data.draw, list(index._nodes)):
            cursor = index.cursor(faults)
            rows, alive = cursor._materialise_rows(), cursor._alive
            if not alive:
                continue
            cap = data.draw(st.sampled_from(CAPS))
            expected = _memo_free_batched(rows, alive, cap)
            total = alive.bit_count()
            assert _batched_diameter(rows, alive, total, cap, memo) == expected
            assert _batched_diameter(rows, alive, total, cap) == expected
            assert _rows_diameter_witness(rows, alive, cap) == _memo_free_witness(
                rows, alive, cap
            )
            assert len(memo) <= memo.limit
