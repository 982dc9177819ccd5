"""Numpy packed-bitset evaluation kernel for :class:`RouteIndex`.

The big-int bitset kernel evaluates one fault set at a time: each BFS level
advance is a Python loop of ``|=`` over big-int adjacency rows.  This module
re-expresses the same batched all-sources propagation over packed uint64
words so a whole battery of fault sets advances in a handful of vectorised
numpy calls:

* each evaluation works on an ``(n + 1, B, w)`` *reach* tensor, one bit per
  node in ``w = ceil(n/64)`` words — ``B`` fault sets ("lanes") progressing
  together, with row ``n`` a phantom always-zero row;
* reach starts from the self bits (level 0), and one BFS level advance
  gathers every arc's target row with ``np.take`` and ORs the gathered
  rows into their sources — no per-node Python loop;
* fault masking is one ``&=`` against an *expected* tensor that zeroes both
  the faulty rows and the faulty target columns of every lane;
* killed arcs — arcs whose endpoints survive but whose route(s) die — are
  left out by the gather itself: its index points them all at the phantom
  row, so marking them takes one scalar write per killed (slot, lane)
  entry;
* "lane complete" and "lane stuck" are ``xor`` + ``or``-reduce checks over
  the whole tensor;
* on sparse route graphs (``BFS_DENSITY_FACTOR * arcs <= n^2``, fixed when
  the kernel is built) each lane also runs the *guard* of the bitset
  kernel's batched strategy: it settles at ``inf`` once its lowest alive
  node's reach stops growing short of the lane's alive set.  Past the
  tolerance most lanes disconnect, and they then end after a few levels
  instead of waiting for every reach set of the battery to converge.

The gather layout, ``gather_tgt``, has one slot per arc of the fault-free
route graph, holding its target.  Rows with at most ``dmax`` targets (the
90th degree percentile) form a padded table sorted by degree, stored column
by column: column ``j`` covers the prefix of rows with more than ``j``
targets, so a level advance reads it in one gather.  The few hub rows above
the cut follow, their targets concatenated and reduced segment-wise
(``bitwise_or.reduceat`` handles long segments well).  For single routings
the kernel lists, per node, the slots of the arcs that die with it (built
with one vectorised pass per node); multiroutings resolve killed arcs per
fault set, since an arc survives while any of its pair's routes avoids the
fault mask.

A battery is **one pass** over at most :data:`LANES` lanes.  A lane that
settles — complete, stuck, stopped by the guard or past its own cap —
hands back its value (and witness) at once and is reloaded with the next
pending fault list, so a long battery keeps every lane busy instead of
waiting, chunk after chunk, for each chunk's deepest lane.  Each lane
counts its levels from the advance it was loaded at; all loads at one
level are one in-place step over the freed lanes.

Scratch tensors form **one** set, allocated on first use for
:data:`LANES` lanes and reused by every call; a battery narrower than
that works on a contiguous prefix of the same buffers (its views are made
once per width).  So the kernel's memory does not grow with the widths or
lengths of the batteries it has seen.

The kernel is a **performance backend only**: it returns exactly the values
of :func:`repro.core.route_index._rows_diameter_witness` (the hypothesis
equivalence suites enforce this three ways against the bitset kernel and
the naive oracle).  It is built lazily by :class:`RouteIndex` when the
``numpy`` backend is in use and is never pickled — worker processes
rebuild it from the shipped bitset rows on first use.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.core.route_index import BFS_DENSITY_FACTOR
from repro.graphs.traversal import INFINITY

try:  # gated dependency: the library must work without numpy installed
    import numpy as np
except ImportError:  # pragma: no cover - exercised by numpy-less installs
    np = None

#: Lanes of the kernel's one pass: the width of the one scratch set.  A
#: battery with more fault lists refills settled lanes with pending ones.
LANES = 32

Triple = Tuple[float, Optional[Tuple[int, int]], Optional[Tuple[int, int, int]]]


def numpy_available() -> bool:
    """True when numpy is importable, so the numpy backend can be used."""
    return np is not None


def _pack_ints(values: Sequence[int], width: int) -> "np.ndarray":
    """Pack big-int bitmasks into a ``(len(values), width)`` uint64 matrix."""
    buf = b"".join(v.to_bytes(width * 8, "little") for v in values)
    return np.frombuffer(buf, dtype="<u8").reshape(len(values), width).copy()


def _percentile90(ordered: Sequence[int]) -> float:
    """``np.percentile(ordered, 90)`` (linear method) in plain Python.

    Mirrors numpy's float arithmetic step for step, so the result is the
    same double; computing it here keeps ``numpy.ma`` (which
    ``np.percentile`` imports) out of the process.
    """
    last = len(ordered) - 1
    virtual = last * 0.9
    if virtual >= last:
        return float(ordered[last])
    below = math.floor(virtual)
    gamma = virtual - below
    a, b = ordered[below], ordered[below + 1]
    if gamma >= 0.5:
        return b - (b - a) * (1 - gamma)
    return a + (b - a) * gamma


class _Views(NamedTuple):
    """Width-``B`` views of the scratch set (see :meth:`NumpyKernel._scratch`)."""

    reach: "np.ndarray"  # (n + 1, B, w): reach sets of the current level
    upd: "np.ndarray"  # (n + 1, B, w): the next level's reach sets
    expected: "np.ndarray"  # (n + 1, B, w): alive columns on alive rows
    xor_rows: "np.ndarray"  # (B, w): a tensor comparison or-reduced over rows
    contrib: "np.ndarray"  # (small rows, B, w): gathered contributions
    # (max(small rows, hub arcs), B, w): one gathered column, then the
    # gathered hub arcs (a level advance is done with the columns first)
    column: "np.ndarray"
    index: "np.ndarray"  # (gather slots, B): each slot's row in every lane
    low: "np.ndarray"  # (B,): flat reach row of each lane's lowest alive node
    low_alive: "np.ndarray"  # (B, w): that node's full reach, its alive set


class NumpyKernel:
    """Batched packed-bitset diameter kernel over one :class:`RouteIndex`.

    Built from the index's bitset structures only (base rows, kill masks,
    multirouting pair tables), so a slim, graph-free index can build it in a
    worker process.  All public entry points take fault sets as sorted lists
    of *node ids* (the index's internal ``0..n-1`` labels).
    """

    def __init__(self, index) -> None:
        if np is None:  # pragma: no cover - guarded by numpy_available()
            raise RuntimeError("numpy is not available")
        self._buffers = None  # the one scratch set, allocated on first use
        self._width_views = {}  # battery width -> views of the scratch set
        self._last_level = 0
        self.index = index
        n = index._n
        self.n = n
        self.w = w = (n + 63) // 64
        rows = index._base_rows
        bits = np.unpackbits(
            _pack_ints(rows, w).view(np.uint8), axis=1, bitorder="little"
        )
        # Arcs in (source, target) order: arc a is src_all[a] -> tgt_all[a].
        src_all, tgt_all = np.nonzero(bits[:, :n])
        # The sparse side of the BFS strategy rule runs the guard (see
        # `_bfs`); dense lanes end within a few levels without it.
        self.guard = src_all.size * BFS_DENSITY_FACTOR <= n * n
        counts = [row.bit_count() for row in rows]
        degrees = sorted(count for count in counts if count)
        cut = max(4, int(_percentile90(degrees))) if degrees else 4
        self.dmax = cut
        # Small rows by degree, largest first, so that column j of the
        # padded table covers a prefix of them.
        small = sorted(
            (s for s in range(n) if 0 < counts[s] <= cut),
            key=lambda s: (-counts[s], s),
        )
        hubs = [s for s in range(n) if counts[s] > cut]
        ns = len(small)
        self.small = np.asarray(small, dtype=np.int64)
        self.hubs = np.asarray(hubs, dtype=np.int64)
        self.prefix = [sum(1 for s in small if counts[s] > j) for j in range(cut)]
        # Gather slots: slot j * ns + r holds the j-th target of small row r
        # (the phantom row n past its degree), slot cut * ns + k the k-th
        # hub arc, hubs in order.  `slot_shift[s]` maps source s's arc ids
        # to its slots: a small row's arcs step by ns, a hub's by one.
        offsets, slot_shift, step, hub_starts = [0], [0] * n, [1] * n, []
        for count in counts:
            offsets.append(offsets[-1] + count)
        for r, s in enumerate(small):
            slot_shift[s], step[s] = r - offsets[s] * ns, ns
        hub_arcs = 0
        for s in hubs:
            hub_starts.append(hub_arcs)
            slot_shift[s] = cut * ns + hub_arcs - offsets[s]
            hub_arcs += counts[s]
        self.hub_starts = np.asarray(hub_starts, dtype=np.int64)
        arc_slot = np.arange(src_all.size, dtype=np.int64)
        arc_slot *= np.asarray(step, dtype=np.int64)[src_all]
        arc_slot += np.asarray(slot_shift, dtype=np.int64)[src_all]
        self.gather_tgt = np.full(cut * ns + hub_arcs, n, dtype=np.int64)
        self.gather_tgt[arc_slot] = tgt_all
        # Evaluations start from every node's self bit (distance 0).
        self.self_rows = _pack_ints([1 << s for s in range(n)], w)
        # kill_slots[v]: the slots of the arcs whose route(s) die with node
        # v (int32: the kernel's largest table).  Multiroutings resolve
        # killed arcs per fault set instead (an arc survives while any of
        # its pair's routes avoids the fault mask), through slot_of.
        self.kill_slots = {}
        if index._multi:
            self.slot_of = dict(
                zip(zip(src_all.tolist(), tgt_all.tolist()), arc_slot.tolist())
            )
            return
        offset_arr = np.asarray(offsets, dtype=np.int64)
        for v, kill in enumerate(index._kill_rows):
            if not kill:
                continue
            sids = np.fromiter(kill, dtype=np.int64, count=len(kill))
            masks = _pack_ints(list(kill.values()), w)
            # Every arc of the sources' rows, row by row, tested against its
            # source's kill mask (which only holds targets of its row).
            lengths = [counts[s] for s in kill]
            ends = np.cumsum(lengths)
            arcs = np.repeat(offset_arr[sids] - ends + lengths, lengths)
            arcs += np.arange(int(ends[-1]), dtype=np.int64)
            hit = np.unpackbits(masks.view(np.uint8), axis=1, bitorder="little")[
                np.repeat(np.arange(sids.size), lengths), tgt_all[arcs]
            ]
            killed = arc_slot[arcs[np.nonzero(hit)[0]]]
            if killed.size:
                self.kill_slots[v] = killed.astype(np.int32)

    # ------------------------------------------------------------------
    # Scratch management
    # ------------------------------------------------------------------
    def _shapes(self, B: int) -> _Views:
        """Shapes and dtypes of the scratch tensors for ``B`` lanes."""
        rows, w = self.n + 1, self.w
        ns = self.small.size
        nha = self.gather_tgt.size - self.dmax * ns
        u64 = np.uint64
        return _Views(
            ((rows, B, w), u64), ((rows, B, w), u64), ((rows, B, w), u64),
            ((B, w), u64), ((ns, B, w), u64), ((max(ns, nha), B, w), u64),
            ((self.gather_tgt.size, B), np.intp), ((B,), np.intp), ((B, w), u64),
        )

    def _scratch(self, B: int) -> _Views:
        """Width-``B`` views (``B <= LANES``) of the one scratch set.

        Each buffer is flat and sized for :data:`LANES` lanes, 32 of them; a
        width-``B`` view reshapes its contiguous prefix, so every width
        shares the same allocation.  The views of each width are made once.
        """
        views = self._width_views.get(B)
        if views is None:
            if self._buffers is None:
                self._buffers = tuple(
                    np.zeros(math.prod(shape), dtype=dtype)
                    for shape, dtype in self._shapes(LANES)
                )
            views = self._width_views[B] = _Views(
                *(
                    buf[: math.prod(shape)].reshape(shape)
                    for buf, (shape, _dtype) in zip(self._buffers, self._shapes(B))
                )
            )
        return views

    def _load(self, views, reach, lanes, lists, masks, common, reset) -> None:
        """Load fault id lists into ``lanes`` of the scratch set, in place.

        ``reach`` is the scratch tensor that holds the current level (the
        pass swaps it with ``upd`` at every advance), ``lists`` are the
        lanes' fault id lists and ``masks`` their alive masks.  Writes each
        lane's ``expected`` column (alive columns on alive rows), its
        level-0 reach (each alive node's self bit) and its guard row, and
        resets its gather-index column from ``reset``: every slot's target
        row, with the slots of the faults in ``common`` (shared by every
        list of the battery) already pointed at row ``n``, which is zero in
        every lane.  Then the lane's own killed arcs are pointed there too,
        so nothing of the list the lane held before is left.  Marking an
        arc whose source or target is faulty in that lane is harmless (its
        row or its gathered target is zero there anyway), so kills need no
        filtering.

        ``lanes`` is an ascending intp array.  When it holds every lane of
        the width — a battery's first load — the writes cover whole tensors
        and row ``n`` is zeroed; otherwise they touch the loaded lanes'
        columns only, in place.
        """
        B = views.reach.shape[1]
        n = self.n
        index = views.index
        packed = _pack_ints(masks, self.w)
        full = lanes.size == B
        cols = slice(None) if full else lanes
        expected = views.expected
        expected[:n, cols] = packed
        reach[:n, cols] = self.self_rows[:, None, :]
        if full:
            expected[n] = 0
            reach[n] = 0
        lane_list = lanes.tolist()
        faulty = [v for ids in lists for v in ids]
        lane_of = [lane for lane, ids in zip(lane_list, lists) for _v in ids]
        expected[faulty, lane_of] = 0
        reach[faulty, lane_of] = 0
        lows = [(mask & -mask).bit_length() - 1 for mask in masks]
        views.low[cols] = np.asarray(lows, dtype=np.intp) * B + lanes
        views.low_alive[cols] = packed
        # Row r of lane b is row r * B + b of the reach tensor seen as
        # (n + 1) * B rows of w words.
        if full:
            np.add(reset[:, None], lanes, out=index)
        else:
            for lane in lane_list:
                np.add(reset, lane, out=index[:, lane])
        route_index = self.index
        if route_index._multi:
            parts = []
            for position, mask in enumerate(masks):
                fault_mask = route_index._full_mask & ~mask
                dead = route_index._dead_pairs(
                    fault_mask, route_index._affected_pairs(fault_mask)
                )
                if dead:
                    slots = [self.slot_of[pair] for pair in dead]
                    parts.append((np.asarray(slots, dtype=np.intp), position))
        else:
            kill = self.kill_slots
            parts = [
                (kill[v], position)
                for position, ids in enumerate(lists)
                for v in ids
                if v in kill and v not in common
            ]
        if parts:
            # Entry slot * B + lane of the index, one intp per killed (slot,
            # lane) entry: the only temporary that grows with the kills.
            dead = np.concatenate([slots for slots, _lane in parts], dtype=np.intp)
            dead *= B
            sizes = [0] * len(lane_list)
            for slots, position in parts:
                sizes[position] += slots.size
            start = 0
            for lane, size in zip(lane_list, sizes):
                end = start + size
                if lane:
                    dead[start:end] += lane
                start = end
            index.reshape(-1)[dead] = n * B

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def diameters(
        self,
        fault_lists: Sequence[Sequence[int]],
        cap: Optional[float] = None,
    ) -> List[float]:
        """Surviving diameters for a battery of fault id lists.

        Matches :meth:`RouteIndex.surviving_diameter` exactly: ``inf`` for a
        disconnected (or empty) surviving graph, and — with ``cap`` — ``inf``
        as soon as a lane's diameter is proven to exceed the cap (finite
        values are always exact).
        """
        return self._battery(fault_lists, cap, False)

    def diameter_witness(
        self, fault_ids: Sequence[int], cap: Optional[float] = None
    ) -> Triple:
        """Single evaluation returning ``(value, witness, capped witness)``.

        The witnesses mirror :func:`_rows_diameter_witness`: the first is
        ``(source bit, unreached mask)`` when the evaluation proved a
        disconnection; the second is ``(source bit, unreached mask, lb)``
        when a cap was exceeded instead — every node of the mask is at
        distance at least ``lb`` from the source.  Both are ``None`` when
        the graph is connected within the cap.
        """
        return self._battery([list(fault_ids)], cap, True)[0]

    def batch_witnesses(
        self,
        fault_lists: Sequence[Sequence[int]],
        cap: Optional[float] = None,
    ) -> List[Triple]:
        """Batched evaluation returning a witness triple **per lane**.

        Same contract as :meth:`diameter_witness`, but the whole battery
        advances through one packed reach tensor.  This is also the entry
        point of the greedy adversary's candidate rounds.
        """
        return self._battery(fault_lists, cap, True)

    def _battery(self, fault_lists, cap, witnesses):
        """Evaluate ``fault_lists`` in one pass, results in battery order.

        A list with at most one alive node settles at once (``0``, or
        ``inf`` for an empty graph), and so does every list when ``cap`` is
        at most 0, at its level-0 capped witness; neither takes a lane.
        The others go through :meth:`_bfs`.  With ``witnesses`` each result
        is a ``(value, witness, capped)`` triple.
        """
        full = self.index._full_mask
        out = [None] * len(fault_lists)
        masks, todo = [], []
        for position, ids in enumerate(fault_lists):
            mask = full
            for v in ids:
                mask &= ~(1 << v)
            masks.append(mask)
            alive = mask.bit_count()
            if alive <= 1:
                value = 0 if alive else INFINITY
                out[position] = (value, None, None) if witnesses else value
            elif cap is not None and cap <= 0:
                # Level 0 already meets the cap: every other alive node is
                # at distance >= 1 from the lowest one.
                bit = mask & -mask
                out[position] = (
                    (INFINITY, None, (bit, mask ^ bit, 1)) if witnesses else INFINITY
                )
            else:
                todo.append(position)
        self._last_level = 0
        if todo:
            self._bfs(fault_lists, masks, todo, cap, witnesses, out)
        return out

    def _unreached(self, reach, expected, lane: int) -> Tuple[int, int]:
        """Lowest alive source of ``lane`` that misses part of the alive set.

        Returns its bit and the mask of alive nodes its reach set lacks.
        """
        n = self.n
        reach, expected = reach[:n, lane], expected[:n, lane]
        # Faulty rows are zero in both tensors; alive rows hold their self bit.
        missing = (reach ^ expected).any(axis=1) & reach.any(axis=1)
        row = int(np.nonzero(missing)[0][0])
        have = int.from_bytes(reach[row].tobytes(), "little")
        want = int.from_bytes(expected[row].tobytes(), "little")
        return 1 << row, want & ~have

    def _bfs(self, fault_lists, masks, todo, cap, witnesses, out) -> None:
        """Run the battery's pass, refilling lanes as they settle.

        ``todo`` lists the battery positions still to evaluate, in order.
        The pass has ``B`` lanes: at most :data:`LANES`, and no more than
        it takes to load every list in ``ceil(len(todo) / LANES)`` rounds,
        so when lanes settle together the last round does not drag a few
        lists through a full-width tensor.  The first ``B`` lists load at
        level 0.

        After every level advance a lane settles when it is complete (its
        diameter is the number of advances since it was loaded), and at
        ``inf`` when it is disconnected: either none of its reach sets grew
        in the advance, or — on kernels with :attr:`guard` — the reach set
        of its lowest alive node did not grow yet misses part of the lane's
        alive set.  Such a set has converged, so that node and its
        unreached mask are the witness the bitset kernel's guard returns,
        however far the lane's other sources' reach would still grow.  With
        ``cap``, an incomplete lane whose advances reach the cap settles at
        ``inf`` too, with every unreached node of its witness source at
        distance at least one more.

        A settled lane writes its result (and witness, read from the
        tensors there and then) into ``out``, and every lane freed at one
        level is reloaded with the next pending lists in one :meth:`_load`.
        :attr:`_last_level` counts the pass's level advances.
        """
        rounds = -(-len(todo) // LANES)
        B = -(-len(todo) // rounds)
        views = self._scratch(B)
        n, w = self.n, self.w
        common = set()
        reset = self.gather_tgt * B
        if not self.index._multi:
            # Faults every list shares (a greedy round's base set) are
            # marked once, in every lane's reset column.
            first = fault_lists[todo[0]]
            common = set(first).intersection(*(fault_lists[p] for p in todo[1:]))
            kill = self.kill_slots
            shared = [kill[v] for v in common if v in kill]
            if shared:
                reset[np.concatenate(shared)] = n * B
        reach, upd, expected = views.reach, views.upd, views.expected
        red, contrib, column = views.xor_rows, views.contrib, views.column
        low, low_alive = views.low, views.low_alive
        ns = self.small.size
        hub_index = views.index[self.dmax * ns :]
        gathered = column[: hub_index.shape[0]]
        columns = [
            views.index[j * ns : j * ns + m] for j, m in enumerate(self.prefix) if m
        ]
        held = [0] * B  # battery position of each lane's list
        born = np.zeros(B, dtype=np.intp)  # level each lane was loaded at
        active = np.zeros(B, dtype=bool)
        loaded = 0  # lists of `todo` loaded so far
        level = 0
        freed = True  # some lane settled since the last load
        while True:
            if freed:
                freed = False
                if loaded < len(todo):
                    free = np.nonzero(~active)[0]
                    picked = todo[loaded : loaded + free.size]
                    lanes = free[: len(picked)]
                    loaded += len(picked)
                    self._load(
                        views,
                        reach,
                        lanes,
                        [fault_lists[p] for p in picked],
                        [masks[p] for p in picked],
                        common,
                        reset,
                    )
                    for lane, position in zip(lanes.tolist(), picked):
                        held[lane] = position
                    born[lanes] = level
                    active[lanes] = True
                elif not active.any():
                    break
            np.copyto(upd, reach)
            rows = reach.reshape(-1, w)
            if columns:
                # Column j gathers the j-th target of every small row that
                # has one (a prefix, rows being sorted by degree).
                rows.take(columns[0], axis=0, out=contrib, mode="clip")
                for col in columns[1:]:
                    part = column[: col.shape[0]]
                    rows.take(col, axis=0, out=part, mode="clip")
                    np.bitwise_or(contrib[: col.shape[0]], part, out=contrib[: col.shape[0]])
                upd[self.small] |= contrib
            if self.hubs.size:
                rows.take(hub_index, axis=0, out=gathered, mode="clip")
                upd[self.hubs] |= np.bitwise_or.reduceat(
                    gathered.reshape(gathered.shape[0], -1),
                    self.hub_starts,
                    axis=0,
                ).reshape(self.hubs.size, B, w)
            np.bitwise_and(upd, expected, out=upd)
            level += 1
            # `reach` is spent once compared: `upd` is the state from here.
            np.bitwise_xor(upd, reach, out=reach)
            np.bitwise_or.reduce(reach, axis=0, out=red)
            stuck = ~red.any(axis=1)
            if self.guard:
                grown = reach.reshape(-1, w)[low].any(axis=1)
                short = (upd.reshape(-1, w)[low] != low_alive).any(axis=1)
                stuck |= short & ~grown
            reach, upd = upd, reach
            stuck &= active
            if stuck.any():
                # Disconnected, stays inf.  The witness is the lane's lowest
                # incomplete row, whose reach set has converged: the lowest
                # alive node's on a guard stop, and every row's when the
                # whole lane stopped growing.
                active &= ~stuck
                for lane in np.nonzero(stuck)[0].tolist():
                    out[held[lane]] = (
                        (INFINITY, self._unreached(reach, expected, lane), None)
                        if witnesses
                        else INFINITY
                    )
                freed = True
            # `upd` is free until the next advance overwrites it.
            np.bitwise_xor(reach, expected, out=upd)
            np.bitwise_or.reduce(upd, axis=0, out=red)
            done = ~red.any(axis=1) & active
            if done.any():
                # Plain Python values only: int for finite diameters, the
                # float inf constant otherwise, exactly like the bitset
                # kernel (serialisation byte-compares depend on it).
                active &= ~done
                for lane in np.nonzero(done)[0].tolist():
                    depth = level - int(born[lane])
                    out[held[lane]] = (depth, None, None) if witnesses else depth
                freed = True
            if cap is not None:
                # Lanes whose advances since loading reached the cap.
                capped = active & (born <= level - cap)
                if capped.any():
                    # Reach covers distance <= depth: every unreached node
                    # sits at distance >= depth + 1 (capped witness).
                    active &= ~capped
                    for lane in np.nonzero(capped)[0].tolist():
                        depth = level - int(born[lane])
                        out[held[lane]] = (
                            (
                                INFINITY,
                                None,
                                self._unreached(reach, expected, lane) + (depth + 1,),
                            )
                            if witnesses
                            else INFINITY
                        )
                    freed = True
        self._last_level = level
