"""Numpy packed-bitset evaluation kernel for :class:`RouteIndex`.

The big-int bitset kernel evaluates one fault set at a time: each BFS level
advance is a Python loop of ``|=`` over big-int adjacency rows.  This module
re-expresses the same batched all-sources propagation over a **packed uint64
matrix** so a whole battery of fault sets advances in a handful of vectorised
numpy calls:

* the fault-free route graph is packed once into an ``(n, ceil(n/64))``
  uint64 matrix (one row per node, one bit per target), and each evaluation
  works on an ``(n + 1, B, w)`` *reach* tensor — ``B`` fault sets ("battery
  entries") progressing together, with row ``n`` a phantom always-zero row
  that padding arcs point at;
* one BFS level advance is a single ``np.take`` of every arc's target row
  followed by ``bitwise_or.reduce`` per source — no per-node Python loop;
* fault masking is one ``&=`` against an *expected* tensor that zeroes both
  the faulty rows and the faulty target columns of every entry;
* "entry complete" and "entry stuck" are ``xor`` + ``or``-reduce checks over
  the whole tensor.

Arcs are split bimodally: rows with at most ``dmax`` targets (the 90th
degree percentile) live in a rectangular padded table reduced with one
``bitwise_or.reduce`` over a fixed axis, while the few hub rows above the
cut are reduced with ``bitwise_or.reduceat`` over their concatenated
targets.  Killed arcs — arcs whose endpoints survive but whose route(s) die
— are zeroed out of the gathered target rows by ``(slot, entry)`` fancy
indexing each level, and patched out of the level-1 reach with per-fault
negated kill masks.

Scratch tensors are preallocated per battery width and reused across calls:
on the dense batteries this kernel targets, fresh multi-megabyte
allocations (page faults) would otherwise dominate the vectorised work.

The kernel is a **performance backend only**: it returns exactly the values
of :func:`repro.core.route_index._rows_diameter_witness` (the hypothesis
equivalence suites enforce this three ways against the bitset kernel and
the naive oracle).  It is built lazily by :class:`RouteIndex` when the
``numpy`` backend is selected and is never pickled — worker processes
rebuild it from the shipped bitset rows on first use.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.graphs.traversal import INFINITY

try:  # gated dependency: the library must work without numpy installed
    import numpy as np
except ImportError:  # pragma: no cover - exercised by numpy-less installs
    np = None


def numpy_available() -> bool:
    """True when numpy is importable, so the numpy backend can be used."""
    return np is not None


def _pack_ints(values: Sequence[int], width: int) -> "np.ndarray":
    """Pack big-int bitmasks into a ``(len(values), width)`` uint64 matrix."""
    buf = b"".join(v.to_bytes(width * 8, "little") for v in values)
    return np.frombuffer(buf, dtype="<u8").reshape(len(values), width).copy()


_U1 = None  # set lazily: np.uint64(1) — numpy may be absent at import time


class NumpyKernel:
    """Batched packed-bitset diameter kernel over one :class:`RouteIndex`.

    Built from the index's bitset structures only (base rows, kill masks,
    multirouting pair tables), so a slim, graph-free index can build it in a
    worker process.  All public entry points take fault sets as sorted lists
    of *node ids* (the index's internal ``0..n-1`` labels).
    """

    def __init__(self, index) -> None:
        global _U1
        if np is None:  # pragma: no cover - guarded by numpy_available()
            raise RuntimeError("numpy is not available")
        if _U1 is None:
            _U1 = np.uint64(1)
        self.index = index
        n = index._n
        self.n = n
        self.w = w = (n + 63) // 64
        self.base = _pack_ints(index._base_rows, w)
        self.full_arr = _pack_ints([index._full_mask], w)[0]
        bits = np.unpackbits(
            self.base.view(np.uint8), axis=1, bitorder="little"
        )[:, :n]
        src_all, tgt_all = np.nonzero(bits)
        self.arcs = src_all.size
        counts = np.bincount(src_all, minlength=n)
        nz = counts[counts > 0]
        # Bimodal row split: rows at or below the 90th degree percentile are
        # padded to a rectangle (vectorised or-reduce), the hub rows above
        # it are reduced segment-wise (reduceat handles long segments well).
        cut = max(4, int(np.percentile(nz, 90))) if nz.size else 4
        small = np.nonzero((counts > 0) & (counts <= cut))[0]
        hubs = np.nonzero(counts > cut)[0]
        self.small, self.hubs, self.dmax = small, hubs, cut
        pad = np.full((small.size, cut), n, dtype=np.int64)  # phantom row n
        arc_slot = np.empty(self.arcs, dtype=np.int64)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        for i, s in enumerate(small):
            lo, hi = offsets[s], offsets[s + 1]
            pad[i, : hi - lo] = tgt_all[lo:hi]
            arc_slot[lo:hi] = i * cut + np.arange(hi - lo)
        hub_parts, hub_starts, acc = [], [], 0
        for s in hubs:
            lo, hi = offsets[s], offsets[s + 1]
            hub_parts.append(tgt_all[lo:hi])
            hub_starts.append(acc)
            # Hub arcs are encoded as negative slots: -(flat position) - 1.
            arc_slot[lo:hi] = -(acc + np.arange(hi - lo)) - 1
            acc += hi - lo
        self.hub_tgt = (
            np.concatenate(hub_parts) if hub_parts else np.empty(0, np.int64)
        )
        self.hub_starts = np.asarray(hub_starts, dtype=np.int64)
        pad_flat = pad.reshape(-1)
        # One combined gather table: padded small slots, then hub arcs, so a
        # level advance is a single np.take into one scratch buffer.
        self.gather_tgt = np.concatenate([pad_flat, self.hub_tgt])
        self.hub_off = pad_flat.size
        self.src_all, self.tgt_all = src_all, tgt_all
        self.arc_slot = arc_slot
        diag = np.zeros((n, w), dtype=np.uint64)
        ids = np.arange(n)
        if n:
            diag[ids, ids >> 6] = _U1 << (ids & 63).astype(np.uint64)
        self.base_self = self.base | diag
        # Per-fault kill data.  Single routings: kill_rows_np[v] = (source
        # ids, negated kill-mask matrix) patches the level-1 reach with one
        # fancy AND per (entry, fault); kill_arcs[v] lists the killed arc
        # indices for the per-level gather zeroing.  Multiroutings resolve
        # killed arcs per fault set (an arc survives while any of its pair's
        # routes avoids the fault mask), so only the arc lookup is cached.
        self.kill_rows_np = {}
        self.kill_arcs = {}
        if not index._multi:
            for v in range(n):
                kr = index._kill_rows[v]
                if not kr:
                    continue
                sids = np.fromiter(kr.keys(), dtype=np.int64, count=len(kr))
                neg = _pack_ints(
                    [index._full_mask & ~m for m in kr.values()], w
                )
                self.kill_rows_np[v] = (sids, neg)
                out = []
                for s, mask in kr.items():
                    lo, hi = offsets[s], offsets[s + 1]
                    tg = tgt_all[lo:hi]
                    marr = _pack_ints([mask], w)[0]
                    sel = (
                        (marr[tg >> 6] >> (tg & 63).astype(np.uint64)) & _U1
                    ).astype(bool)
                    out.append(np.arange(lo, hi, dtype=np.int64)[sel])
                ka = np.concatenate(out) if out else np.empty(0, np.int64)
                if ka.size:
                    self.kill_arcs[v] = ka
        else:
            self.arc_of = {
                (int(src_all[a]), int(tgt_all[a])): a for a in range(self.arcs)
            }
        self._scratch_cache = {}
        self._scratch_bytes = 0
        self._last_level = 0

    # ------------------------------------------------------------------
    # Scratch management
    # ------------------------------------------------------------------

    #: Total bytes of cached scratch tensors kept co-resident.  Candidate
    #: rounds alternate a handful of widths (full chunks, the remainder
    #: chunk, the phase-2 survivor batch, single probes): reallocating the
    #: tensors on every width change re-faults megabytes of fresh pages per
    #: kernel call, so widths are cached side by side up to this budget.
    #: One oversize battery width (large ``n``) flushes the cache and lives
    #: alone, reproducing the old single-slot behaviour.
    _SCRATCH_CACHE_BYTES = 32 * 1024 * 1024

    def _scratch(self, B: int):
        """Preallocated work tensors for a battery of width ``B``."""
        tensors = self._scratch_cache.get(B)
        if tensors is None:
            n, w = self.n, self.w
            tensors = (
                np.zeros((n + 1, B, w), dtype=np.uint64),
                np.zeros((n + 1, B, w), dtype=np.uint64),
                np.zeros((n + 1, B, w), dtype=np.uint64),
                np.zeros((self.gather_tgt.size, B, w), dtype=np.uint64),
                np.zeros((self.small.size, B, w), dtype=np.uint64),
                np.zeros((n + 1, B, w), dtype=np.uint64),
                np.zeros((B, w), dtype=np.uint64),
            )
            size = sum(t.nbytes for t in tensors)
            if self._scratch_bytes + size > self._SCRATCH_CACHE_BYTES:
                self._scratch_cache.clear()
                self._scratch_bytes = 0
            self._scratch_cache[B] = tensors
            self._scratch_bytes += size
        # Witness extraction reads the evaluation's tensors back through
        # these attributes (and ``_bfs`` re-binds reach/upd after swaps).
        (
            self._reach, self._upd, self._expected, self._G,
            self._contrib_s, self._X, self._red,
        ) = tensors
        return tensors

    # ------------------------------------------------------------------
    # Killed-arc resolution
    # ------------------------------------------------------------------
    def _dead_slots(self, fault_lists, alive):
        """Killed-arc ``(gather slot, entry)`` pairs with both endpoints alive."""
        index = self.index
        ka_list, kb_list, sizes = [], [], []
        if not index._multi:
            for b, ids in enumerate(fault_lists):
                for v in ids:
                    ka = self.kill_arcs.get(v)
                    if ka is not None:
                        ka_list.append(ka)
                        kb_list.append(b)
                        sizes.append(ka.size)
        else:
            pairs_through = index._pairs_through
            pair_routes = index._pair_routes
            for b, ids in enumerate(fault_lists):
                if not ids:
                    continue
                fmask = 0
                for v in ids:
                    fmask |= 1 << v
                affected = set()
                for v in ids:
                    pairs = pairs_through.get(v)
                    if pairs:
                        affected |= pairs
                dead = []
                for sid, tid in affected:
                    if (fmask >> sid) & 1 or (fmask >> tid) & 1:
                        continue
                    if any(m & fmask == 0 for m in pair_routes[(sid, tid)]):
                        continue
                    dead.append(self.arc_of[(sid, tid)])
                if dead:
                    ka_list.append(np.asarray(dead, dtype=np.int64))
                    kb_list.append(b)
                    sizes.append(len(dead))
        if not ka_list:
            empty = np.empty(0, np.int64)
            return empty, empty
        dead_a = np.concatenate(ka_list)
        dead_b = np.repeat(
            np.asarray(kb_list, np.int64), np.asarray(sizes, np.int64)
        )
        sel = (
            alive[dead_b, self.src_all[dead_a]]
            & alive[dead_b, self.tgt_all[dead_a]]
        )
        dead_a, dead_b = dead_a[sel], dead_b[sel]
        slot = self.arc_slot[dead_a]
        # Map to combined-gather slots (hub arcs live after the pad block).
        slot = np.where(slot >= 0, slot, self.hub_off + (-slot - 1))
        return slot, dead_b

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
        as soon as an entry's diameter is proven to exceed the cap (finite
        values are always exact).
        """
        values, _stuck = self._evaluate(fault_lists, cap)
        return values

    def diameter_witness(
        self, fault_ids: Sequence[int], cap: Optional[float] = None
    ) -> Tuple[float, Optional[Tuple[int, int]], Optional[Tuple[int, int, int]]]:
        """Single evaluation returning ``(value, witness, capped witness)``.

        The witnesses mirror :func:`_rows_diameter_witness`: the first is
        ``(source bit, unreached mask)`` when the evaluation proved a
        disconnection; the second is ``(source bit, unreached mask, lb)``
        when a cap was exceeded instead — every node of the mask is at
        distance at least ``lb`` from the source.  Both are ``None`` when
        the graph is connected within the cap.
        """
        values, stuck = self._evaluate([list(fault_ids)], cap)
        return self._witness_triple(values[0], stuck, 0, cap)

    def batch_witnesses(
        self,
        fault_lists: Sequence[Sequence[int]],
        cap: Optional[float] = None,
    ) -> List[Tuple[float, Optional[Tuple[int, int]], Optional[Tuple[int, int, int]]]]:
        """Batched evaluation returning a witness triple **per entry**.

        Same contract as :meth:`diameter_witness`, but the whole battery
        advances through one packed reach tensor — this is the entry point
        ``EvalCursor.batch_with_added`` evaluates candidate fault sets
        through.  Witnesses are extracted immediately, before any later call
        reuses the scratch tensors.
        """
        values, stuck = self._evaluate(fault_lists, cap)
        return [
            self._witness_triple(value, stuck, entry, cap)
            for entry, value in enumerate(values)
        ]

    def candidate_witnesses(
        self,
        base_ids: Sequence[int],
        cand_ids: Sequence[int],
        cap: Optional[float] = None,
    ) -> List[Tuple[float, Optional[Tuple[int, int]], Optional[Tuple[int, int, int]]]]:
        """Witness triples for ``base | {c}``, one lane per candidate ``c``.

        Semantically identical to :meth:`batch_witnesses` over the expanded
        fault lists (``-1`` marks a lane evaluating the bare base set), but
        the per-lane setup — alive masks, expected tensor, level-1 reach,
        killed-arc slots — is derived once from the shared base instead of
        rebuilt per lane.  This is the greedy adversary's candidate-round
        entry point, where every lane differs from the base by one node.

        Multiroutings fall back to the generic path: their killed arcs
        depend on the whole fault mask, so there is no base/candidate
        factorisation to exploit.
        """
        base = sorted(base_ids)
        if self.index._multi:
            return self.batch_witnesses(
                [sorted(base + [c]) if c >= 0 else list(base) for c in cand_ids],
                cap,
            )
        B = len(cand_ids)
        if B == 0:
            return []
        n, w = self.n, self.w
        reach, upd, expected, G, contrib_s, X, red = self._scratch(B)
        cand = np.asarray(cand_ids, dtype=np.int64)
        lanes = np.arange(B, dtype=np.int64)
        has = cand >= 0
        # Alive masks: the base row once, candidate bits cleared per lane.
        base_alive = np.ones(n, dtype=bool)
        if base:
            base_alive[base] = False
        alive = np.repeat(base_alive[None, :], B, axis=0)
        alive[lanes[has], cand[has]] = False
        base_arr = self.full_arr.copy()
        for v in base:
            base_arr[v >> 6] &= ~(_U1 << np.uint64(v & 63))
        cand_arr = np.broadcast_to(base_arr, (B, w)).copy()
        np.bitwise_and.at(
            cand_arr,
            (lanes[has], cand[has] >> 6),
            ~(_U1 << (cand[has] & 63).astype(np.uint64)),
        )
        np.copyto(expected[:n], cand_arr[None, :, :])
        expected[n] = 0
        if base:
            expected[base] = 0
        expected[cand[has], lanes[has]] = 0
        # Level-1 template: base self-rows with the base faults' kill masks
        # applied once; the expected AND below re-applies the row/column
        # masking per lane, so the template never needs per-lane copies.
        tmpl = self.base_self
        if base:
            tmpl = tmpl.copy()
            for v in base:
                k = self.kill_rows_np.get(v)
                if k is not None:
                    tmpl[k[0]] &= k[1]
        np.copyto(reach[:n], tmpl[:, None, :])
        reach[n] = 0
        np.bitwise_and(reach, expected, out=reach)
        # Per-lane delta: only the candidate's own kill masks.
        for b, c in enumerate(cand_ids):
            if c >= 0:
                k = self.kill_rows_np.get(c)
                if k is not None:
                    reach[k[0], b] &= k[1]
        dead_all, dead_s, dead_b = self._candidate_dead_slots(
            base, cand_ids, base_alive, alive
        )
        values, stuck = self._bfs(
            B, cap, alive.sum(axis=1), dead_s, dead_b,
            reach, upd, expected, G, contrib_s, X, red,
            dead_all=dead_all,
        )
        return [
            self._witness_triple(value, stuck, entry, cap)
            for entry, value in enumerate(values)
        ]

    def _candidate_dead_slots(self, base, cand_ids, base_alive, alive):
        """:meth:`_dead_slots` factorised for candidate lanes.

        Base-killed arcs are dead in *every* lane, so they come back as an
        unpaired slot array (``dead_all``, zeroed across the whole batch in
        one assignment) instead of being tiled per lane; only each
        candidate's own arcs need ``(slot, lane)`` pairs.  Extra slots the
        generic per-lane aliveness filter would have dropped (an endpoint
        that happens to be some lane's candidate, or a candidate arc
        touching a base fault) are harmless: their source or target rows
        are zero in those lanes, so zeroing the gather slot is a no-op.
        """
        base_ka = [
            self.kill_arcs[v] for v in base if v in self.kill_arcs
        ]
        empty = np.empty(0, np.int64)
        dead_all = empty
        if base_ka:
            bka = np.concatenate(base_ka)
            sel = base_alive[self.src_all[bka]] & base_alive[self.tgt_all[bka]]
            dead_all = bka[sel]
        parts_a, parts_b = [], []
        for b, c in enumerate(cand_ids):
            if c >= 0:
                ka = self.kill_arcs.get(c)
                if ka is not None:
                    parts_a.append(ka)
                    parts_b.append(np.full(ka.size, b, dtype=np.int64))
        if parts_a:
            dead_a = np.concatenate(parts_a)
            dead_b = np.concatenate(parts_b)
            sel = (
                alive[dead_b, self.src_all[dead_a]]
                & alive[dead_b, self.tgt_all[dead_a]]
            )
            dead_a, dead_b = dead_a[sel], dead_b[sel]
        else:
            dead_a = dead_b = empty
        def to_slot(arcs):
            slot = self.arc_slot[arcs]
            # Hub arcs live after the pad block (negative encoding).
            return np.where(slot >= 0, slot, self.hub_off + (-slot - 1))

        return to_slot(dead_all), to_slot(dead_a), dead_b

    def _witness_triple(
        self, value: float, stuck, entry: int, cap: Optional[float]
    ) -> Tuple[float, Optional[Tuple[int, int]], Optional[Tuple[int, int, int]]]:
        """Classify one evaluated entry into ``(value, witness, capped)``."""
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
        """First alive source of ``entry`` that has not reached everything."""
        reach, _upd, expected = self._reach, self._upd, self._expected
        for row in range(self.n):
            if (reach[row, entry] != expected[row, entry]).any():
                have = int.from_bytes(reach[row, entry].tobytes(), "little")
                want = int.from_bytes(expected[row, entry].tobytes(), "little")
                if have == 0:
                    continue  # faulty row (expected is zero too)
                return 1 << row, want & ~have
        return None

    def _evaluate(self, fault_lists, cap):
        B = len(fault_lists)
        if B == 0:
            return [], np.zeros(0, dtype=bool)
        n, w = self.n, self.w
        reach, upd, expected, G, contrib_s, X, red = self._scratch(B)
        alive = np.ones((B, n), dtype=bool)
        for b, ids in enumerate(fault_lists):
            if ids:
                alive[b, ids] = False
        fb, ff = np.nonzero(~alive)
        alive_arr = np.broadcast_to(self.full_arr, (B, w)).copy()
        if fb.size:
            np.bitwise_and.at(
                alive_arr, (fb, ff >> 6), ~(_U1 << (ff & 63).astype(np.uint64))
            )
        # expected = alive columns on alive rows, zero on faulty rows: one
        # tensor does the row and column masking of every entry at once.
        np.copyto(expected[:n], alive_arr[None, :, :])
        expected[n] = 0
        if fb.size:
            expected[ff, fb] = 0
        # Level-1 reach: (row | self) restricted to the expected support.
        np.copyto(reach[:n], self.base_self[:, None, :])
        reach[n] = 0
        np.bitwise_and(reach, expected, out=reach)
        if not self.index._multi:
            # Patch killed arcs out of the level-1 reach: one fancy AND per
            # (entry, fault) via the per-fault negated kill masks.
            for b, ids in enumerate(fault_lists):
                for v in ids:
                    k = self.kill_rows_np.get(v)
                    if k is not None:
                        reach[k[0], b] &= k[1]
        dead_s, dead_b = self._dead_slots(fault_lists, alive)
        if self.index._multi and dead_s.size:
            # Multiroutings have no per-fault kill masks; clear the killed
            # target bits directly.  ufunc.at, not fancy `&=`: one source row
            # can carry several killed arcs of the same entry, and buffered
            # fancy assignment would apply only one of the clears.
            tgts = self.gather_tgt[dead_s]
            in_pad = dead_s < self.hub_off
            src = np.empty(dead_s.size, dtype=np.int64)
            src[in_pad] = self.small[dead_s[in_pad] // self.dmax]
            if self.hubs.size:
                hs = dead_s[~in_pad] - self.hub_off
                src[~in_pad] = self.hubs[
                    np.searchsorted(self.hub_starts, hs, side="right") - 1
                ]
            np.bitwise_and.at(
                reach,
                (src, dead_b, (tgts >> 6).astype(np.int64)),
                ~(_U1 << (tgts & 63).astype(np.uint64)),
            )
        return self._bfs(
            B, cap, alive.sum(axis=1), dead_s, dead_b,
            reach, upd, expected, G, contrib_s, X, red,
        )

    def _bfs(
        self, B, cap, n_alive, dead_s, dead_b,
        reach, upd, expected, G, contrib_s, X, red,
        dead_all=None,
    ):
        """Advance prepared reach tensors level by level.

        The shared back half of :meth:`_evaluate` and
        :meth:`candidate_witnesses`: both build the level-1 state (their
        setup differs), then run this loop.  Returns ``(values, was_stuck)``
        with the same contract as the monolithic evaluation always had.
        """
        w = self.w
        out = np.full(B, INFINITY, dtype=float)
        # Entries with one alive node have diameter 0, empty entries inf;
        # both are fixed points the loop below never re-touches.
        settled = n_alive <= 1
        was_stuck = np.zeros(B, dtype=bool)
        out[n_alive == 1] = 0.0
        ns, nh = self.small.size, self.hubs.size
        dmax = self.dmax
        level = 1
        while True:
            np.bitwise_xor(reach, expected, out=X)
            np.bitwise_or.reduce(X, axis=0, out=red)
            done = ~red.any(axis=1) & ~settled
            if done.any():
                out[done] = level
                settled |= done
            if settled.all():
                break
            if cap is not None and level >= cap:
                break
            Gv = np.take(reach, self.gather_tgt, axis=0, out=G)
            if dead_all is not None and dead_all.size:
                # Slots killed in every lane (a candidate batch's shared
                # base faults): one unpaired assignment for the batch.
                Gv[dead_all] = 0
            if dead_s.size:
                Gv[dead_s, dead_b] = 0
            np.bitwise_or.reduce(
                Gv[: self.hub_off].reshape(ns, dmax, B, w),
                axis=1,
                out=contrib_s,
            )
            np.copyto(upd, reach)
            upd[self.small] |= contrib_s
            if nh:
                contrib_h = np.bitwise_or.reduceat(
                    Gv[self.hub_off:].reshape(self.hub_tgt.size, -1),
                    self.hub_starts,
                    axis=0,
                ).reshape(nh, B, w)
                upd[self.hubs] |= contrib_h
            np.bitwise_and(upd, expected, out=upd)
            np.bitwise_xor(upd, reach, out=X)
            np.bitwise_or.reduce(X, axis=0, out=red)
            stuck = ~red.any(axis=1) & ~settled
            if stuck.any():
                # No change and not complete: disconnected, stays inf.
                settled |= stuck
                was_stuck |= stuck
                if settled.all():
                    # Keep `reach` as the final state (witness extraction
                    # reads it); `upd` equals it for the stuck entries.
                    break
            reach, upd = upd, reach
            level += 1
        # After the loop `reach` covers distance <= level: a cap break leaves
        # every unreached node at distance >= level + 1 (capped witness).
        self._last_level = level
        if reach is not self._reach:
            # The loop may end on a swapped buffer; witness extraction and
            # the next call's scratch hand-out expect the canonical order.
            self._reach, self._upd = reach, upd
        # Plain Python values only: int for finite diameters, the float inf
        # constant otherwise, exactly like the bitset kernel (serialisation
        # byte-compares depend on it).
        return [INFINITY if v == INFINITY else int(v) for v in out], was_stuck
