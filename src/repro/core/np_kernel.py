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
  row of lane 0, so marking them takes one scalar write per killed (slot,
  lane) entry;
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

Scratch tensors form **one** set, allocated on first use for
:data:`LANES` lanes and reused by every call: a battery wider than that
streams through it ``LANES`` lanes at a time, and a narrower one works on
a contiguous prefix of the same buffers (its views are made once per
width).  So the kernel's memory does not grow with the widths of the
batteries it has seen.

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

#: Lanes per kernel pass: the width of the one scratch set.
LANES = 16

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
        self._views: Optional[_Views] = None
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
            ((self.gather_tgt.size, B), np.intp),
        )

    def _scratch(self, B: int) -> _Views:
        """Width-``B`` views (``B <= LANES``) of the one scratch set.

        Each buffer is flat and sized for :data:`LANES` lanes; a width-``B``
        view reshapes its contiguous prefix, so every width shares the same
        allocation.  The views of each width are made once; the current
        ones stay on the kernel for :meth:`_bfs` and for witness extraction.
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
        self._views = views
        return views

    def _start(self, fault_lists, parts, shared) -> Tuple[List[int], List[int]]:
        """Prepare one pass over at most :data:`LANES` fault id lists.

        Fills ``expected`` (alive columns on alive rows), the level-0 reach
        (each alive node's self bit) and the gather index, with the killed
        arcs pointed at row ``n`` of lane 0, which is zero in every pass:
        ``parts`` lists ``(slots, lane)`` pairs of arcs dead in one lane, in
        lane order, and every slot of ``shared`` is dead in every lane.
        Marking an arc whose source or target is faulty in that lane is
        harmless (its row or its gathered target is zero there anyway), so
        callers need not filter those out.  Returns each lane's number of
        alive nodes and its lowest alive node (``n`` for an empty lane).
        """
        B = len(fault_lists)
        n = self.n
        views = self._scratch(B)
        alive = []
        for ids in fault_lists:
            mask = self.index._full_mask
            for v in ids:
                mask &= ~(1 << v)
            alive.append(mask)
        expected, reach = views.expected, views.reach
        np.copyto(expected[:n], _pack_ints(alive, self.w)[None, :, :])
        expected[n] = 0
        expected[
            [v for ids in fault_lists for v in ids],
            [b for b, ids in enumerate(fault_lists) for _v in ids],
        ] = 0
        np.copyto(reach[:n], self.self_rows[:, None, :])
        reach[n] = 0
        np.bitwise_and(reach, expected, out=reach)
        # Row r of lane b is row r * B + b of the reach tensor seen as
        # (n + 1) * B rows of w words.
        index = views.index
        np.multiply(self.gather_tgt[:, None], B, out=index)
        index += np.arange(B, dtype=np.intp)
        if shared:
            index[np.concatenate(shared)] = n * B
        if parts:
            # Entry slot * B + lane of the index, one intp per killed (slot,
            # lane) entry: the only temporary that grows with the kills.
            dead = np.concatenate([slots for slots, _lane in parts], dtype=np.intp)
            dead *= B
            sizes = [0] * B
            for slots, lane in parts:
                sizes[lane] += slots.size
            start = sizes[0]
            for lane in range(1, B):
                end = start + sizes[lane]
                dead[start:end] += lane
                start = end
            index.reshape(-1)[dead] = n * B
        lows = [(mask & -mask).bit_length() - 1 if mask else n for mask in alive]
        return [mask.bit_count() for mask in alive], lows

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
        """Evaluate ``fault_lists`` :data:`LANES` at a time, in order.

        Each pass's results (witnesses included) are taken before the next
        pass reuses the scratch tensors.
        """
        index = self.index
        out = []
        for start in range(0, len(fault_lists), LANES):
            chunk = fault_lists[start : start + LANES]
            if not index._multi:
                # Faults every lane shares (a greedy round's base set) are
                # marked once for all lanes.
                common = set(chunk[0]).intersection(*chunk[1:])
                kill = self.kill_slots
                shared = [kill[v] for v in common if v in kill]
                parts = [
                    (kill[v], b)
                    for b, ids in enumerate(chunk)
                    for v in ids
                    if v in kill and v not in common
                ]
            else:
                shared, parts = [], []
                for b, ids in enumerate(chunk):
                    fault_mask = 0
                    for v in ids:
                        fault_mask |= 1 << v
                    dead = index._dead_pairs(
                        fault_mask, index._affected_pairs(fault_mask)
                    )
                    if dead:
                        slots = [self.slot_of[pair] for pair in dead]
                        parts.append((np.asarray(slots, dtype=np.intp), b))
            values, stuck = self._bfs(len(chunk), cap, *self._start(chunk, parts, shared))
            if witnesses:
                values = [
                    self._witness_triple(value, stuck, lane, cap)
                    for lane, value in enumerate(values)
                ]
            out.extend(values)
        return out

    def _witness_triple(
        self, value: float, stuck, entry: int, cap: Optional[float]
    ) -> Triple:
        """Classify one evaluated lane into ``(value, witness, capped)``."""
        if value != INFINITY:
            return value, None, None
        extracted = self._extract_unreached(entry)
        if extracted is None:  # pragma: no cover - inf implies a witness
            return value, None, None
        source_bit, unreached = extracted
        if stuck[entry]:
            return value, (source_bit, unreached), None
        if cap is None:  # pragma: no cover - no cap means stuck or finite
            return value, None, None
        # Cap break: the reach tensor holds "within `_last_level` levels",
        # so every unreached node sits at distance >= _last_level + 1.
        return value, None, (source_bit, unreached, self._last_level + 1)

    def _extract_unreached(self, entry: int = 0) -> Optional[Tuple[int, int]]:
        """First alive source of lane ``entry`` that has not reached everything."""
        n = self.n
        reach = self._views.reach[:n, entry]
        expected = self._views.expected[:n, entry]
        # Faulty rows are zero in both tensors; alive rows hold their self bit.
        missing = (reach ^ expected).any(axis=1) & reach.any(axis=1)
        rows = np.nonzero(missing)[0]
        if not rows.size:
            return None
        row = int(rows[0])
        have = int.from_bytes(reach[row].tobytes(), "little")
        want = int.from_bytes(expected[row].tobytes(), "little")
        return 1 << row, want & ~have

    def _bfs(self, B, cap, n_alive, lows):
        """Advance the prepared start state level by level from level 0.

        A lane settles when it is complete (its diameter is the level), and
        at ``inf`` when it is disconnected: either no reach set of the lane
        grew in the last advance, or — on kernels with :attr:`guard` — the
        reach set of its lowest alive node (``lows``) did not grow yet
        misses part of the lane's alive set.  Such a set has converged, so
        that node and its unreached mask are the witness the bitset
        kernel's guard returns, and the lane needs no more levels however
        far the other sources' reach still grows.

        Returns ``(values, was_stuck)``; :attr:`_last_level` is the number
        of level advances made.
        """
        views = self._views
        reach, upd, expected = views.reach, views.upd, views.expected
        red, contrib, column = views.xor_rows, views.contrib, views.column
        w = self.w
        if self.guard:
            # Flat rows (see `_start`) of each lane's lowest alive node; its
            # full reach is the lane's alive set, its row of `expected`.
            low = np.asarray(lows, dtype=np.intp) * B + np.arange(B, dtype=np.intp)
            low_alive = expected.reshape(-1, w)[low]
        ns = self.small.size
        hub_index = views.index[self.dmax * ns :]
        gathered = column[: hub_index.shape[0]]
        columns = [
            views.index[j * ns : j * ns + m] for j, m in enumerate(self.prefix) if m
        ]
        # Plain Python values only: int for finite diameters, the float inf
        # constant otherwise, exactly like the bitset kernel (serialisation
        # byte-compares depend on it).  Lanes with one alive node have
        # diameter 0, empty lanes inf; both are settled from the start.
        out = [0 if k == 1 else INFINITY for k in n_alive]
        settled = np.array([k <= 1 for k in n_alive])
        was_stuck = np.zeros(B, dtype=bool)
        level = 0
        while True:
            # `upd` is free until the advance below overwrites it.
            np.bitwise_xor(reach, expected, out=upd)
            np.bitwise_or.reduce(upd, axis=0, out=red)
            done = ~red.any(axis=1) & ~settled
            if done.any():
                for lane in np.nonzero(done)[0].tolist():
                    out[lane] = level
                settled |= done
            if settled.all():
                break
            if cap is not None and level >= cap:
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
            stuck &= ~settled
            if stuck.any():
                # Disconnected, stays inf.  Witness extraction takes the
                # lane's lowest incomplete row, whose reach set has
                # converged: the lowest alive node's on a guard stop, and
                # every row's when the whole lane stopped growing.
                settled |= stuck
                was_stuck |= stuck
                if settled.all():
                    break
        # After the loop `reach` covers distance <= level: a cap break leaves
        # every unreached node at distance >= level + 1 (capped witness).
        self._last_level = level
        self._views = views._replace(reach=reach, upd=upd)
        return out, was_stuck
