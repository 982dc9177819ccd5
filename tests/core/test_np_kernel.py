"""The numpy kernel's tables, scratch memory and mixed-lane batteries.

* the per-fault kill data, built with one vectorised pass per node, must
  equal what a plain per-(fault, source) loop derives from the index's kill
  masks, and the gather layout must hold every arc exactly once;
* the kernel must not pull ``numpy.ma`` into the process (it cost the
  dense certification benchmark memory) and must keep one scratch set
  whatever battery widths it sees;
* batteries mixing shallow, deep and disconnecting lanes must agree with
  the bitset kernel and the naive oracle, capped and uncapped, including
  greedy candidate rounds (lanes that share their base faults);
* batteries wider than ``LANES`` reload settled lanes with pending fault
  lists, and every lane's witness triple must still equal the bitset
  kernel's on that lane's rows;
* on sparse route graphs a lane settles as soon as its lowest alive node's
  reach stops growing short of the alive set (the guard), with the witness
  the bitset kernel returns, and dense route graphs run no guard;
* a pass's temporaries stay within one intp per killed (slot, lane) entry.
"""

from __future__ import annotations

import bisect
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RouteIndex, surviving_diameter
from repro.core.np_kernel import LANES, NumpyKernel, numpy_available
from repro.core.route_index import _rows_diameter_witness
from repro.core.routing import Routing
from repro.faults.adversary import greedy_fault_set_from_index
from repro.graphs import generators
from repro.graphs.traversal import INFINITY, shortest_path
from repro.scenarios import parse_scenario

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not available"
)

SRC = Path(__file__).resolve().parents[2] / "src"

_BUILT = {}


def _built(spec):
    """``(graph, routing)`` of a scenario spec, built once per module."""
    if spec not in _BUILT:
        graph, result = parse_scenario(spec).build()
        _BUILT[spec] = (graph, result.routing)
    return _BUILT[spec]


def _reference_kill_arcs(index):
    """Killed arcs per fault node, by a per-(fault, source) loop.

    Arcs are the fault-free route graph's ``(source, target)`` pairs in
    source-then-target order; fault ``v`` kills, source by source in its
    kill-mask order, every arc of the source's row whose target is in the
    mask.
    """
    rows = index._base_rows
    n = index._n
    arcs = [(s, t) for s in range(n) for t in range(n) if rows[s] >> t & 1]
    offsets = [0]
    for row in rows:
        offsets.append(offsets[-1] + row.bit_count())
    table = {}
    for v in range(n):
        killed = []
        for s, mask in index._kill_rows[v].items():
            for a in range(offsets[s], offsets[s + 1]):
                if mask >> arcs[a][1] & 1:
                    killed.append(arcs[a])
        if killed:
            table[v] = killed
    return arcs, table


def _slot_arcs(kernel, slots):
    """The ``(source, target)`` arcs of gather slots."""
    ns = kernel.small.size
    small_slots = kernel.dmax * ns
    hub_starts = kernel.hub_starts.tolist()
    out = []
    for slot in slots:
        if slot < small_slots:
            source = int(kernel.small[slot % ns])
        else:
            position = bisect.bisect_right(hub_starts, slot - small_slots) - 1
            source = int(kernel.hubs[position])
        out.append((source, int(kernel.gather_tgt[slot])))
    return out


def _shortest_path_routing(graph, rng):
    """A total single routing of BFS shortest paths (uni- or bidirectional)."""
    routing = Routing(graph, bidirectional=rng.random() < 0.5)
    nodes = graph.nodes()
    for source in nodes:
        for target in nodes:
            if source != target and not routing.has_route(source, target):
                path = shortest_path(graph, source, target)
                if path is not None:
                    routing.set_route(source, target, path)
    return routing


@st.composite
def single_routings(draw):
    n = draw(st.integers(min_value=2, max_value=70))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    extra = draw(st.floats(min_value=0.0, max_value=0.5))
    graph = generators.random_connected_graph(n, extra_edge_probability=extra, seed=seed)
    return graph, _shortest_path_routing(graph, random.Random(seed))


class TestKernelTables:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(single_routings())
    def test_kill_data_matches_the_per_source_loop(self, case):
        graph, routing = case
        index = RouteIndex(graph, routing, backend="numpy")
        kernel = NumpyKernel(index)
        arcs, reference = _reference_kill_arcs(index)
        assert {
            v: _slot_arcs(kernel, slots.tolist()) for v, slots in kernel.kill_slots.items()
        } == reference
        # The layout holds every arc once; the other slots are padding.
        laid_out = _slot_arcs(
            kernel,
            [slot for slot, target in enumerate(kernel.gather_tgt) if target < index._n],
        )
        assert sorted(laid_out) == arcs


class TestKernelMemory:
    def test_kernel_keeps_numpy_ma_out_of_the_process(self):
        code = (
            "import sys\n"
            "from repro.core import RouteIndex\n"
            "from repro.scenarios import parse_scenario\n"
            "graph, result = parse_scenario('hypercube:d=6/kernel').build()\n"
            "index = RouteIndex(graph, result.routing, backend='numpy')\n"
            "pool = index.node_pool\n"
            "index.surviving_diameters([pool[i:i + 3] for i in range(40)], cap=3)\n"
            "assert index._np_kernel is not None\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_one_scratch_set_for_every_battery_width(self):
        import numpy as np

        def held_bytes(kernel):
            """Bytes of the distinct buffers the kernel's attributes reach."""
            seen, total = set(), 0
            stack = list(vars(kernel).values())
            while stack:
                item = stack.pop()
                if isinstance(item, np.ndarray):
                    while isinstance(item.base, np.ndarray):
                        item = item.base
                    if id(item) not in seen:
                        seen.add(id(item))
                        total += item.nbytes
                elif isinstance(item, dict):
                    stack.extend(item.values())
                elif isinstance(item, (list, tuple)):
                    stack.extend(item)
            return total

        graph, routing = _built("hypercube:d=6/kernel")
        index = RouteIndex(graph, routing, backend="numpy")
        pool = index.node_pool
        rng = random.Random(2)
        index.surviving_diameters([rng.sample(pool, 2)])
        kernel = index._np_kernel
        held = held_bytes(kernel)
        for width in range(1, 41):
            index.surviving_diameters(
                [rng.sample(pool, rng.randint(0, 8)) for _ in range(width)],
                cap=rng.choice([None, 2, 3]),
            )
        for size in (2, 3, 5):
            greedy_fault_set_from_index(index, size, candidate_limit=40, seed=size)
        assert index._np_kernel is kernel
        assert held_bytes(kernel) == held


#: Routings whose random batteries mix shallow, deep and disconnecting lanes.
MIXED = (
    "cycle:n=30/kernel",
    "circulant:n=40,offsets=1+2+3/kernel",
    "hypercube:d=4/kernel",
)


def _expected(graph, routing, faults, cap):
    """The oracle's diameter under the ``cap`` contract."""
    value = surviving_diameter(graph, routing, faults)
    return value if cap is None or value <= cap else INFINITY


class TestMixedBatteries:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.sampled_from(MIXED),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=40),
        st.sampled_from([None, 1, 2, 3, 6]),
    )
    def test_battery_matches_bitset_and_oracle(self, spec, seed, width, cap):
        graph, routing = _built(spec)
        rng = random.Random(seed)
        pool = sorted(graph.nodes(), key=repr)
        battery = [rng.sample(pool, rng.randint(0, len(pool))) for _ in range(width)]
        numpy_index = RouteIndex(graph, routing, backend="numpy")
        bitset_index = RouteIndex(graph, routing, backend="bitset")
        values = numpy_index.surviving_diameters(battery, cap=cap)
        assert values == bitset_index.surviving_diameters(battery, cap=cap)
        assert values == [_expected(graph, routing, faults, cap) for faults in battery]

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.sampled_from(MIXED),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([None, 2, 3]),
    )
    def test_candidate_round_matches_bitset_and_oracle(self, spec, seed, cap):
        """Lanes sharing a base set, as the greedy adversary's rounds do."""
        graph, routing = _built(spec)
        rng = random.Random(seed)
        pool = sorted(graph.nodes(), key=repr)
        base = rng.sample(pool, rng.randint(0, len(pool) // 3))
        candidates = rng.sample(pool, rng.randint(1, len(pool)))
        numpy_index = RouteIndex(graph, routing, backend="numpy")
        bitset_index = RouteIndex(graph, routing, backend="bitset")
        values = numpy_index.candidate_diameters(base, candidates, cap=cap)
        assert values == bitset_index.candidate_diameters(base, candidates, cap=cap)
        assert values == [
            _expected(graph, routing, set(base) | {node}, cap) for node in candidates
        ]

    def test_deep_lanes_share_a_battery_with_shallow_and_cut_ones(self):
        """Lanes 20+ levels deep, one-level lanes and disconnected lanes."""
        graph, routing = _built("circulant:n=96,offsets=1+2+3/kernel")
        pool = sorted(graph.nodes(), key=repr)
        rng = random.Random(7)
        battery = [rng.sample(pool, 10) for _ in range(200)]
        battery += [[], [1, 2, 3, 93, 94, 95]]  # fault-free; node 0 cut off
        numpy_index = RouteIndex(graph, routing)
        assert numpy_index.eval_backend == "numpy"
        bitset_index = RouteIndex(graph, routing, backend="bitset")
        values = numpy_index.surviving_diameters(battery)
        assert values == bitset_index.surviving_diameters(battery)
        finite = [value for value in values if value != INFINITY]
        assert max(finite) >= 20 and min(finite) <= 2
        assert values[-1] == INFINITY
        for cap in (3, 12):
            assert numpy_index.surviving_diameters(
                battery, cap=cap
            ) == bitset_index.surviving_diameters(battery, cap=cap)


#: Deep sparse lanes (levels 2 to 47 at sizes 5-10) and the mixed routings.
REFILL = ("circulant:n=96,offsets=1+2/kernel",) + MIXED

_INDEXES = {}


def _numpy_index(spec):
    """A numpy-backed index of a scenario spec, built once per module."""
    if spec not in _INDEXES:
        _INDEXES[spec] = RouteIndex(*_built(spec), backend="numpy")
    return _INDEXES[spec]


def _bitset_triples(index, lanes, cap):
    """``_rows_diameter_witness`` of every lane's surviving bitset rows."""
    triples = []
    for ids in lanes:
        fault_mask = sum(1 << v for v in set(ids))
        rows = index._surviving_rows(fault_mask)
        triples.append(_rows_diameter_witness(rows, index._full_mask & ~fault_mask, cap))
    return triples


def _reach(rows, source_bit, levels=None):
    """Nodes within ``levels`` hops of a source over bitset rows (all by default)."""
    seen = frontier = source_bit
    while frontier and levels != 0:
        step = 0
        while frontier:
            bit = frontier & -frontier
            step |= rows[bit.bit_length() - 1]
            frontier ^= bit
        frontier = step & ~seen
        seen |= frontier
        if levels is not None:
            levels -= 1
    return seen


def _assert_refilled(kernel, lanes, cap):
    """Every lane's triple, from a battery wider than ``LANES``, is right.

    Uncapped, each triple equals ``_rows_diameter_witness`` on the lane's
    bitset rows.  Capped, the values do, and each triple equals the lane's
    own one-lane evaluation; the kernel may then report a capped witness
    where the bitset kernel proves a disconnection one level later, so
    every witness is also checked on the rows: its source reaches exactly
    the alive nodes outside its mask, within ``lb - 1`` levels for a
    capped one.
    """
    index = kernel.index
    triples = kernel.batch_witnesses(lanes, cap)
    reference = _bitset_triples(index, lanes, cap)
    assert kernel.diameters(lanes, cap) == [value for value, _w, _c in triples]
    if cap is None:
        assert triples == reference
        return
    assert [value for value, _w, _c in triples] == [value for value, _w, _c in reference]
    assert triples == [kernel.diameter_witness(ids, cap) for ids in lanes]
    for ids, (value, witness, capped) in zip(lanes, triples):
        fault_mask = sum(1 << v for v in set(ids))
        alive = index._full_mask & ~fault_mask
        if witness is None and capped is None:
            assert value != INFINITY or not alive
            continue
        source_bit, unreached, *lb = witness or capped
        levels = lb[0] - 1 if lb else None
        assert unreached and source_bit & alive
        reached = _reach(index._surviving_rows(fault_mask), source_bit, levels)
        assert reached == alive & ~unreached


class TestRefill:
    """Batteries wider than ``LANES``: settled lanes take the next list."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.sampled_from(REFILL),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=LANES + 1, max_value=300),
        st.sampled_from([None, 1, 2, 3, 6, 12]),
    )
    def test_refilled_lanes_match_the_bitset_rows(self, spec, seed, width, cap):
        index = _numpy_index(spec)
        rng = random.Random(seed)
        n = index._n
        deep = spec == REFILL[0]
        lanes = [
            sorted(rng.sample(range(n), rng.randint(5, 10) if deep else rng.randint(0, n)))
            for _ in range(width)
        ]
        _assert_refilled(index._active_np_kernel(), lanes, cap)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        # The routings with more nodes than lanes.
        st.sampled_from(REFILL[:1] + MIXED[1:2]),
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from([None, 1, 2, 3, 6, 12]),
    )
    def test_wide_candidate_rounds_match_the_bitset_rows(self, spec, seed, cap):
        """Lanes sharing a base set, more candidates than lanes."""
        index = _numpy_index(spec)
        rng = random.Random(seed)
        n = index._n
        base = rng.sample(range(n), rng.randint(0, min(6, n - LANES - 1)))
        others = [v for v in range(n) if v not in base]
        candidates = rng.sample(others, rng.randint(LANES + 1, len(others)))
        lanes = [sorted(base + [v]) for v in candidates]
        _assert_refilled(index._active_np_kernel(), lanes, cap)

    def test_deep_battery_refills_lanes(self):
        """Deep and shallow lanes share a pass shorter than chunks would take."""
        index = _numpy_index(REFILL[0])
        kernel = index._active_np_kernel()
        rng = random.Random(3)
        lanes = [sorted(rng.sample(range(index._n), 5)) for _ in range(200)]
        values = kernel.diameters(lanes)
        finite = [value for value in values if value != INFINITY]
        assert max(finite) >= 20 and min(values) <= 3
        # Chunks of LANES lists would advance each chunk to its deepest lane.
        depths = [value if value != INFINITY else 1 for value in values]
        chunked = sum(
            max(depths[start : start + LANES]) for start in range(0, len(depths), LANES)
        )
        assert kernel._last_level < chunked


def _one_way_routing(n, seed):
    """A sparse unidirectional routing: about half the pairs within two hops.

    Its route graph is asymmetric, so lanes also stop where the lowest
    alive node reaches everything but another node does not.
    """
    rng = random.Random(seed)
    graph = generators.random_connected_graph(n, extra_edge_probability=0.02, seed=seed)
    routing = Routing(graph, bidirectional=False)
    for source in graph.nodes():
        for target in graph.nodes():
            if source != target and rng.random() < 0.5:
                path = shortest_path(graph, source, target)
                if len(path) <= 3:
                    routing.set_route(source, target, path)
    return graph, routing


def _random_lanes(index, size, lanes, rng):
    """``lanes`` sorted id lists of ``size`` random faults each."""
    return [sorted(rng.sample(range(index._n), size)) for _ in range(lanes)]


class TestGuard:
    """Sparse kernels settle disconnected lanes on the lowest alive node."""

    def test_disconnecting_battery_settles_within_three_advances(self):
        graph, routing = _built("cycle:n=120/kernel")
        index = RouteIndex(graph, routing, backend="numpy")
        pool = index.node_pool
        for seed in range(5):
            rng = random.Random(seed)
            battery = [rng.sample(pool, 6) for _ in range(LANES)]
            assert index.surviving_diameters(battery) == [INFINITY] * LANES
            # Without the guard a lane waits for every reach set to stop
            # growing: 50-89 advances on these batteries.
            assert index._np_kernel._last_level <= 3

    @pytest.mark.parametrize(
        "spec, sizes",
        [
            ("cycle:n=120/kernel", (1, 2, 4, 6)),
            ("circulant:n=96,offsets=1+2/kernel", (3, 5, 7, 9)),
            ("one-way:n=80", (0, 2, 5, 9)),
        ],
    )
    def test_uncapped_witnesses_equal_the_bitset_kernel(self, spec, sizes):
        """A stop on an unconverged row would let cursors propagate a false inf."""
        if spec == "one-way:n=80":
            graph, routing = _one_way_routing(80, seed=3)
        else:
            graph, routing = _built(spec)
        index = RouteIndex(graph, routing, backend="numpy")
        kernel = NumpyKernel(index)
        assert kernel.guard
        rng = random.Random(11)
        kinds = set()
        for size in sizes:
            lanes = _random_lanes(index, size, 2 * LANES, rng)
            triples = kernel.batch_witnesses(lanes)
            for ids, triple in zip(lanes, triples):
                fault_mask = sum(1 << v for v in ids)
                expected = _rows_diameter_witness(
                    index._surviving_rows(fault_mask), index._full_mask & ~fault_mask
                )
                assert triple == expected, (ids, triple, expected)
                kinds.add(triple[1] is None)
        assert kinds == {True, False}  # connected and disconnected lanes

    def test_dense_kernel_runs_no_guard(self):
        graph, routing = _built("circulant:n=96,offsets=1+2+3/kernel")
        index = RouteIndex(graph, routing)
        assert index.eval_backend == "numpy"
        kernel = NumpyKernel(index)
        assert not kernel.guard
        # Node 0 cut off: the lowest alive node stops at once, but the
        # lane runs until every reach set has stopped growing.
        cut = sorted(index._id_of[v] for v in (1, 2, 3, 93, 94, 95))
        value, witness, capped = kernel.batch_witnesses([cut])[0]
        assert value == INFINITY and capped is None
        assert witness[0] == 1 << index._id_of[0]
        assert kernel._last_level > 1


class TestPassMemory:
    def test_killed_arc_scatter_takes_one_intp_per_entry(self):
        graph, routing = _built("cycle:n=120/kernel")
        kernel = NumpyKernel(RouteIndex(graph, routing, backend="numpy"))
        lanes = _random_lanes(kernel.index, 6, LANES, random.Random(5))
        assert not set(lanes[0]).intersection(*lanes[1:])  # nothing shared
        entries = sum(
            kernel.kill_slots[v].size for ids in lanes for v in ids if v in kernel.kill_slots
        )
        kernel.diameters(lanes)  # allocates the scratch set
        tracemalloc.start()
        try:
            kernel.diameters(lanes)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 16 bytes per entry before killed arcs shared one zero row.
        assert peak < 12 * entries, (peak, entries)
