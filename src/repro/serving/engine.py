"""Memory-bandwidth query engine over a compiled routing artifact.

The engine splits the serving problem in two:

* :class:`EngineView` — an **immutable snapshot** of one fault state.  A view
  owns the :class:`~repro.core.route_index.EvalCursor` for its fault set plus
  the lazily packed lookup structures queries touch, and never changes after
  creation: a batch that grabbed a view keeps answering against that exact
  fault state even while the engine applies further updates.
* :class:`ServingEngine` — the **mutable front**.  It holds the current view,
  applies ``fail(node)`` / ``restore(node)`` deltas through
  ``EvalCursor.with_added`` (never a from-scratch re-evaluation), bumps a
  generation counter per update, and keeps a small LRU of hot
  ``fault_mask → EvalCursor`` states so a fault that flaps — fail, restore,
  fail again — lands back on its memoised cursor (diameter, witnesses,
  reachability) instead of paying for the evaluation twice.

Point queries go through flat-table lookups (one index into the artifact's
``next_hop`` array plus one bit test against the cursor's surviving rows).
The batch API additionally vectorises through numpy when available: each
view builds one effective next-hop table — the artifact's table with ``-1``
written at the flat pair index of every route through a fault, read from the
artifact's kill masks — and a whole batch becomes one gather, with no
per-query Python at all.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.route_index import EvalCursor, RouteIndex, _mask_ids
from repro.exceptions import FaultModelError, ServingError
from repro.serving.artifact import RoutingArtifact

Node = Hashable

_INF = float("inf")


def _numpy():
    """Return the numpy module when it is importable, else ``None``."""
    from repro.core import np_kernel

    return np_kernel.np


class _BatchTables:
    """Builds the views' effective next-hop tables from kill masks.

    ``table[s * n + d]`` is the surviving next hop of ``(s, d)`` or ``-1``.
    A route survives exactly when no fault lies on it, endpoints included,
    so a table is a copy of the artifact's ``next_hop`` table with ``-1``
    written at each fault's *kill pairs*: the flat indices ``s * n + t`` of
    every route through the node.  They are flattened from the artifact's
    kill masks on first use, once per node, as ``int32``.  One instance
    serves all views of an engine; ``built`` counts the tables built.
    """

    __slots__ = ("artifact", "built", "_kill_pairs")

    def __init__(self, artifact: RoutingArtifact) -> None:
        self.artifact = artifact
        self.built = 0
        self._kill_pairs: List = [None] * artifact.n

    def table(self, np, fault_ids: Sequence[int]):
        """The artifact's ``next_hop`` table with ``fault_ids``' routes at -1."""
        table = np.frombuffer(self.artifact.next_hop, dtype="<i4").copy()
        for nid in fault_ids:
            pairs = self._kill_pairs[nid]
            if pairs is None:
                pairs = self._kill_pairs[nid] = self._flatten(np, nid)
            table[pairs] = -1
        self.built += 1
        return table

    def _flatten(self, np, nid: int):
        n = self.artifact.n
        flat: List[int] = []
        for sid, mask in self.artifact.kill_rows[nid].items():
            base = sid * n
            flat.extend(base + tid for tid in _mask_ids(mask))
        return np.array(flat, dtype=np.int32)


class EngineView:
    """One immutable fault-state snapshot of a :class:`ServingEngine`.

    All queries answer for exactly the fault set the view was created with;
    the engine's later updates produce *new* views and leave this one intact
    (that is the consistency model: a batch holds one view for its whole
    lifetime, so it never observes a half-applied update).
    """

    __slots__ = (
        "artifact",
        "index",
        "generation",
        "fault_mask",
        "cursor",
        "_np_effective",
        "_reach_masks",
        "_multi_lookup",
        "_tables",
    )

    def __init__(
        self,
        artifact: RoutingArtifact,
        index: RouteIndex,
        generation: int,
        cursor: EvalCursor,
        multi_lookup: Optional[Dict[Tuple[int, int], Tuple[int, int]]],
        tables: _BatchTables,
    ) -> None:
        self.artifact = artifact
        self.index = index
        self.generation = generation
        self.fault_mask = cursor._fault_mask
        self.cursor = cursor
        self._np_effective = None  # lazy flat effective next-hop table
        self._reach_masks: Dict[int, int] = {}
        self._multi_lookup = multi_lookup
        self._tables = tables

    # ------------------------------------------------------------------
    # Fault set
    # ------------------------------------------------------------------
    @property
    def faults(self) -> Tuple[Node, ...]:
        """The view's faulty nodes, in id order."""
        nodes = self.artifact.nodes
        return tuple(nodes[nid] for nid in self.cursor._fault_id_list())

    def is_faulty(self, node: Node) -> bool:
        nid = self.artifact.id_of.get(node)
        return nid is not None and bool((self.fault_mask >> nid) & 1)

    # ------------------------------------------------------------------
    # Point queries (label-based)
    # ------------------------------------------------------------------
    def _ids(self, source: Node, target: Node) -> Tuple[int, int]:
        id_of = self.artifact.id_of
        sid = id_of.get(source)
        tid = id_of.get(target)
        if sid is None or tid is None:
            missing = source if sid is None else target
            raise FaultModelError(
                f"node {missing!r} is not a node of the served routing"
            )
        return sid, tid

    def next_hop(self, source: Node, target: Node) -> Optional[Node]:
        """First hop of the first surviving route ``source -> target``.

        ``None`` when the pair has no surviving route under the view's fault
        set (including either endpoint being faulty, or the pair never having
        been routed at all).
        """
        sid, tid = self._ids(source, target)
        hop = self.next_hop_id(sid, tid)
        return None if hop < 0 else self.artifact.nodes[hop]

    def route(self, source: Node, target: Node) -> Optional[Tuple[Node, ...]]:
        """The full first surviving route, as node labels, or ``None``."""
        sid, tid = self._ids(source, target)
        ids = self.route_ids(sid, tid)
        if ids is None:
            return None
        nodes = self.artifact.nodes
        return tuple(nodes[nid] for nid in ids)

    def reachable(self, source: Node, target: Node) -> bool:
        """Is ``target`` reachable from ``source`` in ``R(G, rho)/F``?"""
        sid, tid = self._ids(source, target)
        if (self.fault_mask >> sid) & 1 or (self.fault_mask >> tid) & 1:
            return False
        return bool((self._reach_mask(sid) >> tid) & 1)

    def surviving_diameter(self, cap: Optional[float] = None) -> float:
        """Diameter of the surviving route graph (memoised on the cursor)."""
        return self.cursor.diameter(cap=cap)

    # ------------------------------------------------------------------
    # Point queries (id-native)
    # ------------------------------------------------------------------
    def next_hop_id(self, sid: int, tid: int) -> int:
        """Id-native :meth:`next_hop`: the hop id, or ``-1``."""
        artifact = self.artifact
        if not self.fault_mask:
            return artifact.next_hop[sid * artifact.n + tid]
        rows = self.cursor._materialise_rows()
        if not (rows[sid] >> tid) & 1:
            return -1
        if not artifact.multi:
            return artifact.next_hop[sid * artifact.n + tid]
        ids = self._surviving_multi_route(sid, tid)
        return -1 if ids is None else ids[1]

    def route_ids(self, sid: int, tid: int) -> Optional[Tuple[int, ...]]:
        """Id-native :meth:`route`: the surviving route's ids, or ``None``."""
        artifact = self.artifact
        if not self.fault_mask:
            ids = artifact.route_ids(sid, tid)
            return ids or None
        rows = self.cursor._materialise_rows()
        if not (rows[sid] >> tid) & 1:
            return None
        if not artifact.multi:
            return artifact.route_ids(sid, tid)
        return self._surviving_multi_route(sid, tid)

    def _surviving_multi_route(
        self, sid: int, tid: int
    ) -> Optional[Tuple[int, ...]]:
        """First route of ``(sid, tid)`` disjoint from the view's faults."""
        entry = self._multi_lookup.get((sid, tid))
        if entry is None:
            return None
        route_base, count = entry
        artifact = self.artifact
        fault_mask = self.fault_mask
        for position in range(count):
            if artifact.pair_route_masks[route_base + position] & fault_mask:
                continue
            route_no = route_base + position
            start = artifact.multi_route_offsets[route_no]
            stop = artifact.multi_route_offsets[route_no + 1]
            return tuple(artifact.multi_route_nodes[start:stop])
        return None

    def _reach_mask(self, sid: int) -> int:
        """Memoised reachability closure of ``sid`` over the surviving rows."""
        reach = self._reach_masks.get(sid)
        if reach is None:
            rows = self.cursor._materialise_rows()
            reach = 1 << sid
            frontier = rows[sid] & ~reach
            reach |= frontier
            while frontier:
                step = 0
                while frontier:
                    bit = frontier & -frontier
                    step |= rows[bit.bit_length() - 1]
                    frontier ^= bit
                frontier = step & ~reach
                reach |= frontier
            self._reach_masks[sid] = reach
        return reach

    # ------------------------------------------------------------------
    # Batch queries
    # ------------------------------------------------------------------
    def batch_next_hop(
        self, pairs: Iterable[Tuple[Node, Node]]
    ) -> List[Optional[Node]]:
        """Next hops for a batch of ``(source, target)`` label pairs."""
        id_of = self.artifact.id_of
        sources: List[int] = []
        targets: List[int] = []
        for source, target in pairs:
            sid, tid = id_of.get(source), id_of.get(target)
            if sid is None or tid is None:
                missing = source if id_of.get(source) is None else target
                raise FaultModelError(
                    f"node {missing!r} is not a node of the served routing"
                )
            sources.append(sid)
            targets.append(tid)
        nodes = self.artifact.nodes
        return [
            None if hop < 0 else nodes[hop]
            for hop in self.batch_next_hop_ids(sources, targets)
        ]

    def batch_next_hop_ids(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> Sequence[int]:
        """Id-native batch next-hop: one ``int`` per pair (``-1`` = no route).

        On the numpy backend (single routings) the view builds a flat
        *effective* next-hop table on first use — the artifact's table with
        every route through a fault already set to ``-1`` (see
        :class:`_BatchTables`; views are immutable, so the table never goes
        stale) — and a whole
        batch is then a single fancy-index gather: the memory-bandwidth path
        the serving gate measures.  The result mirrors the input container:
        numpy arrays in, an ``int32`` array out (zero conversion cost);
        plain sequences in, a list out.  Multiroutings and numpy-less
        processes fall back to a tight Python loop over the flat data.
        """
        artifact = self.artifact
        if not artifact.multi:
            np = _numpy()
            if np is not None:
                table = self._np_effective
                if table is None:
                    table = self._np_effective = self._tables.table(
                        np, self.cursor._fault_id_list()
                    )
                sid = np.asarray(sources, dtype=np.int64)
                tid = np.asarray(targets, dtype=np.int64)
                out = table[sid * artifact.n + tid]
                if isinstance(sources, np.ndarray):
                    return out
                return out.tolist()
        # Fallback: flat-table loop (still no per-query object churn).
        n = artifact.n
        next_hop = artifact.next_hop
        if not self.fault_mask:
            return [
                next_hop[sid * n + tid] for sid, tid in zip(sources, targets)
            ]
        rows = self.cursor._materialise_rows()
        if artifact.multi:
            out: List[int] = []
            for sid, tid in zip(sources, targets):
                if (rows[sid] >> tid) & 1:
                    ids = self._surviving_multi_route(sid, tid)
                    out.append(-1 if ids is None else ids[1])
                else:
                    out.append(-1)
            return out
        return [
            next_hop[sid * n + tid] if (rows[sid] >> tid) & 1 else -1
            for sid, tid in zip(sources, targets)
        ]


class ServingEngine:
    """Mutable serving front over one artifact: views, deltas, cursor LRU.

    ``backend`` goes to :meth:`RoutingArtifact.to_index`, so serving
    evaluates on bitset unless ``"numpy"`` is asked for.
    """

    def __init__(
        self,
        artifact: RoutingArtifact,
        *,
        backend: Optional[str] = None,
        cursor_lru: int = 128,
    ) -> None:
        if cursor_lru < 1:
            raise ServingError("cursor_lru must be at least 1")
        self.artifact = artifact
        self.index = artifact.to_index(backend=backend)
        self._lru_size = cursor_lru
        # fault_mask -> EvalCursor.  The base (fault-free) cursor is pinned
        # outside the LRU: every restore path replays from it.
        self._base_cursor = self.index.cursor(())
        self._lru: "OrderedDict[int, EvalCursor]" = OrderedDict()
        self._generation = 0
        self._lru_hits = 0
        self._lru_misses = 0
        self._queries = 0
        self._batched = 0
        multi_lookup: Optional[Dict[Tuple[int, int], Tuple[int, int]]] = None
        if artifact.multi:
            multi_lookup = {}
            route_base = 0
            for pair, count in zip(
                artifact.pair_list, artifact.pair_route_counts
            ):
                multi_lookup[pair] = (route_base, count)
                route_base += count
        self._multi_lookup = multi_lookup
        self._tables = _BatchTables(artifact)
        self._view = EngineView(
            artifact, self.index, self._generation, self._base_cursor,
            multi_lookup, self._tables,
        )

    # ------------------------------------------------------------------
    # Consistency model
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotonic update counter; each fault delta bumps it by one."""
        return self._generation

    def view(self) -> EngineView:
        """The current immutable snapshot.

        Grab one view per logical batch: the snapshot keeps answering for
        its own generation even while :meth:`fail` / :meth:`restore` move
        the engine on.
        """
        return self._view

    # ------------------------------------------------------------------
    # Incremental fault updates
    # ------------------------------------------------------------------
    def _cursor_for(self, fault_ids: Sequence[int]) -> EvalCursor:
        """Cursor for an arbitrary fault-id set, via LRU or delta replay."""
        mask = 0
        for nid in fault_ids:
            mask |= 1 << nid
        if mask == 0:
            return self._base_cursor
        cached = self._lru.get(mask)
        if cached is not None:
            self._lru.move_to_end(mask)
            self._lru_hits += 1
            return cached
        self._lru_misses += 1
        # Replay deltas from the deepest cached prefix (longest chain of
        # with_added steps we already paid for), falling back to the base
        # cursor.  Never re-evaluates from scratch.
        cursor = self._base_cursor
        prefix = 0
        for nid in fault_ids:
            probe = prefix | (1 << nid)
            hit = self._lru.get(probe)
            if hit is None:
                break
            cursor, prefix = hit, probe
        nodes = self.artifact.nodes
        for nid in fault_ids:
            bit = 1 << nid
            if prefix & bit:
                continue
            cursor = cursor.with_added(nodes[nid])
            prefix |= bit
            self._remember(prefix, cursor)
        return cursor

    def _remember(self, mask: int, cursor: EvalCursor) -> None:
        self._lru[mask] = cursor
        self._lru.move_to_end(mask)
        while len(self._lru) > self._lru_size:
            self._lru.popitem(last=False)

    def _swap_view(self, cursor: EvalCursor) -> int:
        self._generation += 1
        self._view = EngineView(
            self.artifact, self.index, self._generation, cursor,
            self._multi_lookup, self._tables,
        )
        return self._generation

    def fail(self, node: Node) -> int:
        """Mark ``node`` faulty; returns the new generation.

        A pure delta: the new state's cursor derives from the current one
        via ``EvalCursor.with_added`` (lazy row delta, inherited witnesses)
        — or comes straight out of the LRU when this fault set was seen
        before.  A node that is already faulty is a no-op (same generation).
        """
        nid = self.artifact.id_of.get(node)
        if nid is None:
            raise FaultModelError(
                f"faulty node {node!r} is not a node of the served routing"
            )
        view = self._view
        bit = 1 << nid
        if view.fault_mask & bit:
            return self._generation
        mask = view.fault_mask | bit
        cursor = self._lru.get(mask)
        if cursor is not None:
            self._lru.move_to_end(mask)
            self._lru_hits += 1
        else:
            self._lru_misses += 1
            cursor = view.cursor.with_added(node)
            self._remember(mask, cursor)
        return self._swap_view(cursor)

    def restore(self, node: Node) -> int:
        """Clear ``node``'s fault; returns the new generation.

        ``with_added`` only knows how to *grow* a fault set, so a restore
        re-derives the remaining set by replaying deltas from the deepest
        LRU-cached prefix (usually the immediate predecessor state, making
        the common fail→restore flap a pure cache hit).  A node that is not
        faulty is a no-op.
        """
        nid = self.artifact.id_of.get(node)
        if nid is None:
            raise FaultModelError(
                f"restored node {node!r} is not a node of the served routing"
            )
        view = self._view
        bit = 1 << nid
        if not view.fault_mask & bit:
            return self._generation
        remaining = [i for i in view.cursor._fault_id_list() if i != nid]
        cursor = self._cursor_for(remaining)
        return self._swap_view(cursor)

    def set_faults(self, nodes: Iterable[Node]) -> int:
        """Replace the whole fault set at once; returns the new generation."""
        id_of = self.artifact.id_of
        ids = []
        for node in nodes:
            nid = id_of.get(node)
            if nid is None:
                raise FaultModelError(
                    f"faulty node {node!r} is not a node of the served routing"
                )
            ids.append(nid)
        cursor = self._cursor_for(sorted(set(ids)))
        return self._swap_view(cursor)

    # ------------------------------------------------------------------
    # Query facade (current view)
    # ------------------------------------------------------------------
    @property
    def faults(self) -> Tuple[Node, ...]:
        return self._view.faults

    def next_hop(self, source: Node, target: Node) -> Optional[Node]:
        self._queries += 1
        return self._view.next_hop(source, target)

    def route(self, source: Node, target: Node) -> Optional[Tuple[Node, ...]]:
        self._queries += 1
        return self._view.route(source, target)

    def reachable(self, source: Node, target: Node) -> bool:
        self._queries += 1
        return self._view.reachable(source, target)

    def surviving_diameter(self, cap: Optional[float] = None) -> float:
        self._queries += 1
        return self._view.surviving_diameter(cap=cap)

    def batch_next_hop(
        self, pairs: Sequence[Tuple[Node, Node]]
    ) -> List[Optional[Node]]:
        self._queries += len(pairs)
        self._batched += len(pairs)
        return self._view.batch_next_hop(pairs)

    def batch_next_hop_ids(
        self, sources: Sequence[int], targets: Sequence[int]
    ) -> Sequence[int]:
        self._queries += len(sources)
        self._batched += len(sources)
        return self._view.batch_next_hop_ids(sources, targets)

    def note_queries(self, count: int, batched: bool = False) -> None:
        """Record queries answered off a view directly (the server does)."""
        self._queries += count
        if batched:
            self._batched += count

    def stats(self) -> Dict[str, object]:
        """Operational counters (served by the ``stats`` wire op).

        Besides the query and cursor-LRU counters: the size of the index's
        successor-list memo and the row parts it had to convert
        (``successor_memo_misses``), and the effective next-hop tables the
        views built for batches (``batch_tables``).
        """
        memo = self.index._successor_memo
        return {
            "generation": self._generation,
            "faults": len(self._view.cursor._fault_id_list()),
            "queries": self._queries,
            "batched_queries": self._batched,
            "cursor_lru_size": len(self._lru),
            "cursor_lru_hits": self._lru_hits,
            "cursor_lru_misses": self._lru_misses,
            "successor_memo_size": len(memo),
            "successor_memo_misses": memo.misses,
            "batch_tables": self._tables.built,
            "backend": self.index.eval_backend,
            "fingerprint": self.artifact.fingerprint,
            "n": self.artifact.n,
        }
