"""Precomputed route index with a bitset surviving-diameter kernel.

Evaluating a fault set the naive way (:func:`repro.core.surviving
.surviving_route_graph`) re-walks every route of the routing — ``O(n^2 *
route-length)`` work per fault set — even though a typical fault set touches
only a small fraction of the routes.  :class:`RouteIndex` amortises that work
across a whole campaign: it is built **once** per ``(graph, routing)`` pair
and evaluates every fault set incrementally.

Bitset representation
---------------------
At build time the nodes are relabelled to ``0 .. n-1`` (in ``graph.nodes()``
order) and the fault-free *base route graph* is stored as one Python big-int
**adjacency row per node**: bit ``t`` of ``row[s]`` is set exactly when the
routing carries a surviving arc ``s -> t`` of the empty fault set.  Sets of
nodes (fault sets, BFS frontiers, reachability) are likewise single integers
with one bit per node.  The payoff is that the whole evaluation pipeline runs
on machine words inside CPython's long-integer kernels:

* masking out faulty nodes is one ``row & ~fault_mask`` per row instead of a
  per-node set difference;
* a BFS level advance is one ``next |= row[u]`` per frontier node and a
  single ``next & ~visited`` — no hashing, no per-neighbour Python loop;
* "every node reached" is an integer equality against the alive mask.

Alongside the rows the index keeps an inverted index ``node id -> {(s, t)
pairs whose route(s) pass through it}`` so a fault set only re-checks the
pairs it can actually affect, and — for multiroutings — one bitmask per
parallel route so "does some route survive" is a ``route_mask & fault_mask``
test per route.

Decision API
------------
:meth:`RouteIndex.surviving_diameter_at_most` answers the question callers
like ``check_tolerance`` actually ask — "is the surviving diameter at most
``bound``?" — without always paying for the exact value: each source's BFS is
abandoned as soon as its eccentricity exceeds the bound, and the first
violating source short-circuits the whole evaluation.
:meth:`RouteIndex.surviving_diameter` accepts the same optimisation through
its ``cap`` parameter (it returns ``inf`` as soon as the cap is exceeded).

BFS strategies
--------------
Each bitset evaluation runs one of two strategies, chosen by the fixed rule
``BFS_DENSITY_FACTOR * arcs <= n^2`` on the surviving rows: batched
all-sources propagation on sparse route graphs, per-source frontier BFS on
dense ones.  Propagation can only prove a disconnection once every reach
set has stopped growing, so the batched strategy first runs the per-source
BFS of the lowest alive node alone.  When that BFS misses a node or passes
the cap, it ends the evaluation after one BFS, with the triple the
per-source strategy returns.  Past the tolerance most fault sets
disconnect, and such a set then costs one BFS instead of a propagation to
convergence.  The propagation itself drops each source once its reach set
is complete, and advances a source through its hub successors first, so a
source usually completes without reading the rest of its row.

Evaluation backends
-------------------
Evaluations run on the bitset kernel of this module or on the packed-uint64
numpy kernel of :mod:`repro.core.np_kernel`, with identical values.  Unless
the caller names one, a fixed rule picks it when the index is built: numpy
for route graphs of at least :data:`NUMPY_MIN_NODES` nodes, dense or
sparse, bitset below.  On sparse route graphs the numpy kernel runs the
same lowest-node guard inside each lane of a battery.

Evaluation cursors
------------------
:meth:`RouteIndex.cursor` returns an :class:`EvalCursor` — a snapshot of the
masked adjacency rows for one fault set ``F``.  ``cursor.with_added(v)``
derives the cursor for ``F | {v}`` by touching only the rows that index ``v``
(its surviving predecessors, via a precomputed predecessor mask, plus the
pairs routed through ``v``) instead of re-masking all ``n`` rows.  Prefix
sharing callers — the greedy adversary evaluates ``F | {v}`` for hundreds of
``v`` per step — therefore pay ``O(degree + routes-through-v)`` per candidate
instead of ``O(n^2)``.  Cursors also memoise their diameter and the witness
of a disconnection: once a cursor is known to be disconnected by a missing
target other than ``v``, ``with_added(v)`` propagates the infinite diameter
without running a single BFS.

Every bitset evaluation on the batched strategy, cursor or one-shot,
reads the successor ids of each row it propagates from the index's memo,
in two parts keyed by value: the row's hub successors (nodes whose
fault-free row is longer than the mean row) and the rest.  The memo is
bounded by :data:`SUCCESSOR_MEMO_FACTOR`; related fault sets share most
parts.

The index is read-only with respect to the graph and routing: mutating either
after building the index invalidates it (build a fresh one instead).  It is
picklable (plain ints, tuples and dicts), so a pre-built index can be shipped
to :class:`~repro.faults.engine.CampaignEngine` worker processes instead of
being rebuilt per worker.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.routing import MultiRouting, Routing
from repro.exceptions import FaultModelError
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.graphs.traversal import INFINITY

Node = Hashable
Pair = Tuple[Node, Node]
IdPair = Tuple[int, int]
AnyRouting = Union[Routing, MultiRouting]

_NO_PAIRS: FrozenSet[IdPair] = frozenset()

#: Factor ``k`` of the BFS strategy rule ``k * arcs <= n^2``: batched
#: all-sources propagation at or below it, per-source frontier BFS above.
BFS_DENSITY_FACTOR = 8

#: Strategy labels reported by :meth:`RouteIndex.preferred_strategy`.
STRATEGY_BATCHED = "batched"
STRATEGY_PER_SOURCE = "per-source"

#: Evaluation backends: ``"bitset"`` is the pure-Python big-int kernel,
#: ``"numpy"`` the packed-uint64 batched kernel.  An index built for numpy
#: evaluates on the bitset kernel in a process without numpy.  Every
#: backend returns identical values.
EVAL_BACKEND_BITSET = "bitset"
EVAL_BACKEND_NUMPY = "numpy"
EVAL_BACKENDS = (EVAL_BACKEND_BITSET, EVAL_BACKEND_NUMPY)

#: Smallest route graph the backend rule sends to numpy: one packed 64-bit
#: word of nodes.  Below it numpy still loses on the smallest routings (see
#: README, "Evaluation backends").
NUMPY_MIN_NODES = 64

#: Bound of an index's successor-list memo, in entries per node: the memo
#: holds at most ``SUCCESSOR_MEMO_FACTOR * n`` rows and is cleared when full.
SUCCESSOR_MEMO_FACTOR = 32


def _check_backend(value: Optional[str]) -> Optional[str]:
    """Validate a requested backend; ``None`` asks for the backend rule."""
    if value is not None and value not in EVAL_BACKENDS:
        raise ValueError(
            f"unknown eval backend {value!r}; expected one of {EVAL_BACKENDS}"
        )
    return value


def _rule_backend(n: int) -> str:
    """The backend rule on the route graph's node count ``n``.

    numpy when ``n >= NUMPY_MIN_NODES``, bitset otherwise, on dense and
    sparse route graphs alike.  It reads the node count alone, never
    whether numpy imports, so every host resolves an index to the same
    name.
    """
    if n >= NUMPY_MIN_NODES:
        return EVAL_BACKEND_NUMPY
    return EVAL_BACKEND_BITSET


def _mask_ids(mask: int) -> List[int]:
    """The set bits of ``mask`` as an ascending id list."""
    ids: List[int] = []
    while mask:
        bit = mask & -mask
        ids.append(bit.bit_length() - 1)
        mask ^= bit
    return ids


def _hub_mask(rows: Sequence[int]) -> int:
    """The nodes whose row holds more arcs than the mean row, as a mask.

    The batched BFS strategy ORs the reach sets of these successors first.
    On a kernel routing they are the separator's nodes, whose routes reach
    almost every node, so a source's reach is usually complete after them.
    Index evaluations take the hubs of the fault-free route graph.
    """
    n = len(rows)
    arcs = sum(map(int.bit_count, rows))
    hubs = 0
    for node, row in enumerate(rows):
        if row.bit_count() * n > arcs:
            hubs |= 1 << node
    return hubs


class _SuccessorMemo(dict):
    """Row part -> its node ids, ascending, as a tuple.

    The batched BFS strategy reads a row's successors in two parts: its
    hub successors ``row & hubs`` and the rest ``row & ~hubs``, where
    ``hubs`` is the :func:`_hub_mask` of the route graph the memo serves.
    Each part is a key, so a part seen before costs one dict lookup, and a
    missing one is converted on ``memo[part]``.  Parts recur under churn:
    most rows hold the same hub part, and a fault removes at most one of a
    source's disjoint kernel routes, so a row's rest takes few distinct
    values.  The memo holds at most ``limit`` entries and is cleared when
    full; ``misses`` counts the parts it had to convert.
    """

    __slots__ = ("limit", "hubs", "misses")

    def __init__(self, limit: int, hubs: int) -> None:
        super().__init__()
        self.limit = limit
        self.hubs = hubs
        self.misses = 0

    @classmethod
    def for_rows(cls, rows: Sequence[int]) -> "_SuccessorMemo":
        """An empty memo bounded for ``rows``, with their hubs."""
        return cls(SUCCESSOR_MEMO_FACTOR * len(rows), _hub_mask(rows))

    def __missing__(self, part: int) -> Tuple[int, ...]:
        if len(self) >= self.limit:
            self.clear()
        targets = self[part] = tuple(_mask_ids(part))
        self.misses += 1
        return targets


class RouteIndex:
    """Inverted route index over a fixed ``(graph, routing)`` pair.

    Parameters
    ----------
    graph:
        The underlying network ``G``.
    routing:
        A :class:`Routing` or :class:`MultiRouting` over ``graph``.
    backend:
        ``"bitset"`` or ``"numpy"``, or ``None`` (the default) for the
        backend rule: numpy when the route graph has at least
        :data:`NUMPY_MIN_NODES` nodes, dense or sparse, bitset otherwise.
        The resolved name is :attr:`backend`; it travels with the index
        (pickles, :meth:`slim` copies and :meth:`export_state` rebuilds), so
        worker processes evaluate on the backend the parent resolved.

    Notes
    -----
    Building the index costs one pass over every route (the same work as a
    single naive fault-set evaluation); every subsequent evaluation through
    the index is incremental.  See the module docstring for the bitset
    representation and the cursor API.
    """

    def __init__(
        self,
        graph: Graph,
        routing: AnyRouting,
        backend: Optional[str] = None,
    ) -> None:
        self.graph = graph
        self.routing = routing
        backend = _check_backend(backend)
        # Lazily built numpy kernel; never pickled (workers rebuild it from
        # the shipped bitset rows on first use).
        self._np_kernel = None
        self._nodes: Tuple[Node, ...] = tuple(graph.nodes())
        self._node_set: FrozenSet[Node] = frozenset(self._nodes)
        self._id_of: Dict[Node, int] = {
            node: position for position, node in enumerate(self._nodes)
        }
        n = len(self._nodes)
        self._n = n
        self._full_mask = (1 << n) - 1
        # Bit t of _base_rows[s] <=> arc s -> t in the fault-free route graph;
        # _base_preds is the transpose (bit s of _base_preds[t] <=> s -> t).
        self._base_rows: List[int] = [0] * n
        self._base_preds: List[int] = [0] * n
        # Single routings: per-node *kill masks* — ``_kill_rows[v][s]`` is the
        # bitmask of targets t whose route ``rho(s, t)`` passes through v, so
        # failing v is ``rows[s] &= ~mask`` per indexed source (no per-pair
        # loop; endpoint arcs are covered because v is on its own routes).
        self._kill_rows: List[Dict[int, int]] = []
        # Multiroutings: node id -> ordered (source id, target id) pairs
        # routed through it, plus one node bitmask per parallel route (an arc
        # survives while any of its route masks avoids the fault mask).
        self._pairs_through: Dict[int, Set[IdPair]] = {}
        self._pair_routes: Dict[IdPair, Tuple[int, ...]] = {}
        self._multi = isinstance(routing, MultiRouting)

        id_of = self._id_of
        if self._multi:
            for source, target in routing.pairs():
                sid, tid = id_of[source], id_of[target]
                masks = []
                through: Set[int] = set()
                for path in routing.get_routes(source, target):
                    mask = 0
                    for node in path:
                        mask |= 1 << id_of[node]
                    masks.append(mask)
                    through.update(id_of[node] for node in path)
                if not masks:
                    continue
                pair = (sid, tid)
                self._pair_routes[pair] = tuple(masks)
                self._base_rows[sid] |= 1 << tid
                self._base_preds[tid] |= 1 << sid
                for nid in through:
                    self._pairs_through.setdefault(nid, set()).add(pair)
        else:
            self._kill_rows = [{} for _ in range(n)]
            kill_rows = self._kill_rows
            for (source, target), path in routing.items():
                sid, tid = id_of[source], id_of[target]
                target_bit = 1 << tid
                self._base_rows[sid] |= target_bit
                self._base_preds[tid] |= 1 << sid
                for node in path:
                    kill = kill_rows[id_of[node]]
                    kill[sid] = kill.get(sid, 0) | target_bit
        self._backend = backend or _rule_backend(n)
        self._successor_memo = _SuccessorMemo.for_rows(self._base_rows)

    # ------------------------------------------------------------------
    # Pickling (worker shipping)
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        # The numpy kernel holds process-local scratch tensors and is cheap
        # to rebuild from the bitset rows; receivers rebuild it lazily.
        state["_np_kernel"] = None
        # Receivers start with an empty successor memo.
        memo = self._successor_memo
        state["_successor_memo"] = _SuccessorMemo(memo.limit, memo.hubs)
        return state

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pairs_through(self, node: Node) -> FrozenSet[Pair]:
        """Return the ordered pairs whose route(s) traverse ``node``."""
        nid = self._id_of.get(node)
        if nid is None:
            return frozenset()
        nodes = self._nodes
        if self._multi:
            return frozenset(
                (nodes[sid], nodes[tid])
                for sid, tid in self._pairs_through.get(nid, _NO_PAIRS)
            )
        pairs = set()
        for sid, mask in self._kill_rows[nid].items():
            source = nodes[sid]
            while mask:
                bit = mask & -mask
                pairs.add((source, nodes[bit.bit_length() - 1]))
                mask ^= bit
        return frozenset(pairs)

    def base_route_graph(self) -> DiGraph:
        """Return a copy of the cached fault-free route graph."""
        return self._build_digraph(self._base_rows, self._full_mask)

    def matches(self, graph: Graph, routing: AnyRouting) -> bool:
        """Return ``True`` when the index was built for exactly these objects."""
        return graph is self.graph and routing is self.routing

    @property
    def backend(self) -> str:
        """The resolved backend of this index (``"bitset"`` or ``"numpy"``)."""
        return self._backend

    @property
    def eval_backend(self) -> str:
        """The backend evaluations actually use **in this process**.

        Equals :attr:`backend` except when the numpy backend was requested
        but numpy is not importable here — then evaluations fall back to
        the pure-Python bitset kernel.  Values are identical either way.
        """
        if self._backend == EVAL_BACKEND_NUMPY:
            from repro.core.np_kernel import numpy_available

            if numpy_available():
                return EVAL_BACKEND_NUMPY
        return EVAL_BACKEND_BITSET

    def _active_np_kernel(self):
        """The numpy kernel when this process evaluates on it, else ``None``.

        Built lazily, once per process (it is never pickled).
        """
        if self.eval_backend != EVAL_BACKEND_NUMPY:
            return None
        kernel = self._np_kernel
        if kernel is None:
            from repro.core.np_kernel import NumpyKernel

            kernel = self._np_kernel = NumpyKernel(self)
        return kernel

    @property
    def node_pool(self) -> Tuple[Node, ...]:
        """The graph's nodes in canonical (repr-sorted) order.

        This is the pool random and exhaustive fault batteries draw from;
        exposing it on the index lets campaign workers regenerate their
        shards without holding the graph object (see :meth:`slim`).
        """
        pool = getattr(self, "_node_pool", None)
        if pool is None:
            pool = self._node_pool = tuple(sorted(self._nodes, key=repr))
        return pool

    def preferred_strategy(self, faults: Iterable[Node] = ()) -> str:
        """Return which BFS strategy a diameter evaluation of ``faults`` picks.

        ``"batched"`` (all-sources propagation) when ``BFS_DENSITY_FACTOR *
        arcs <= n^2`` on the surviving rows, ``"per-source"`` (frontier BFS
        with early completion exit) otherwise.  Campaign rows record this so
        sweeps over workload families can correlate throughput with the
        strategy actually exercised.
        """
        fault_mask = self._fault_mask(self._check_faults(faults))
        rows = self._surviving_rows(fault_mask)
        alive = self._full_mask & ~fault_mask
        total = alive.bit_count()
        arcs = 0
        for row in rows:
            arcs += row.bit_count()
        if arcs * BFS_DENSITY_FACTOR <= total * total:
            return STRATEGY_BATCHED
        return STRATEGY_PER_SOURCE

    # ------------------------------------------------------------------
    # Artifact export (serving layer)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Return the index's evaluation state as plain Python structures.

        The export hook behind :mod:`repro.serving.artifact`: everything the
        evaluation surface needs — node labels in id order, the base
        adjacency/predecessor rows and the per-node kill masks (or the
        multirouting pair tables) — as ints, tuples, lists and dicts only,
        so a compiler can lay the state out in any on-disk format without
        touching the graph or routing objects.
        :meth:`from_state` reconstructs an evaluation-equivalent index from
        the returned mapping.
        """
        state: Dict[str, object] = {
            "nodes": tuple(self._nodes),
            "multi": self._multi,
            "base_rows": list(self._base_rows),
            "base_preds": list(self._base_preds),
        }
        if self._multi:
            # Insertion order of ``_pair_routes`` is part of the identity
            # (parallel routes are tried in stored order); keep it.
            state["pair_routes"] = {
                pair: tuple(masks) for pair, masks in self._pair_routes.items()
            }
        else:
            state["kill_rows"] = [dict(kill) for kill in self._kill_rows]
        return state

    @classmethod
    def from_state(
        cls, state: Dict[str, object], backend: Optional[str] = None
    ) -> "RouteIndex":
        """Rebuild an evaluation-only index from :meth:`export_state` output.

        The result is equivalent to :meth:`slim`'s graph-free form: the whole
        evaluation surface works (diameters, cursors, batches, every
        backend), while :meth:`matches` is always ``False``.  ``backend`` is
        chosen by the caller (e.g. a server's ``--eval-backend`` flag), and
        ``None`` applies the backend rule to the state's node count, as in
        the constructor.
        """
        backend = _check_backend(backend)
        index = object.__new__(cls)
        index.graph = None
        index.routing = None
        index._np_kernel = None
        nodes = tuple(state["nodes"])
        index._nodes = nodes
        index._node_set = frozenset(nodes)
        index._id_of = {node: position for position, node in enumerate(nodes)}
        n = len(nodes)
        index._n = n
        index._full_mask = (1 << n) - 1
        index._base_rows = [int(row) for row in state["base_rows"]]
        index._base_preds = [int(row) for row in state["base_preds"]]
        index._backend = backend or _rule_backend(n)
        index._successor_memo = _SuccessorMemo.for_rows(index._base_rows)
        index._multi = bool(state["multi"])
        if index._multi:
            index._kill_rows = []
            index._pair_routes = {
                (int(sid), int(tid)): tuple(int(mask) for mask in masks)
                for (sid, tid), masks in state["pair_routes"].items()
            }
            pairs_through: Dict[int, Set[IdPair]] = {}
            for pair, masks in index._pair_routes.items():
                through = 0
                for mask in masks:
                    through |= mask
                for nid in _mask_ids(through):
                    pairs_through.setdefault(nid, set()).add(pair)
            index._pairs_through = pairs_through
        else:
            index._kill_rows = [
                {int(sid): int(mask) for sid, mask in kill.items()}
                for kill in state["kill_rows"]
            ]
            index._pairs_through = {}
            index._pair_routes = {}
        return index

    def slim(self) -> "RouteIndex":
        """Return an evaluation-only copy without the graph and routing.

        The copy shares every bitset structure with ``self`` but replaces the
        ``graph`` / ``routing`` references with ``None``, which shrinks the
        pickled payload shipped to campaign workers to the adjacency rows,
        kill masks and node labels.  The slim index supports the whole
        evaluation surface (``surviving_diameter`` / ``..._at_most``,
        cursors, ``surviving_route_graph``, ``node_pool``); only
        :meth:`matches` (always ``False``) is unavailable.
        """
        clone = object.__new__(RouteIndex)
        clone.__dict__.update(self.__dict__)
        clone.graph = None
        clone.routing = None
        clone._np_kernel = None  # rebuilt lazily in the receiving process
        memo = self._successor_memo
        clone._successor_memo = _SuccessorMemo(memo.limit, memo.hubs)
        clone._node_pool = self.node_pool  # materialise before shipping
        return clone

    # ------------------------------------------------------------------
    # Fault-set plumbing
    # ------------------------------------------------------------------
    def _check_faults(self, faults: Iterable[Node]) -> FrozenSet[Node]:
        fault_set = frozenset(faults)
        if not fault_set <= self._node_set:
            missing = next(iter(fault_set - self._node_set))
            raise FaultModelError(
                f"faulty node {missing!r} is not a node of the graph"
            )
        return fault_set

    def _fault_mask(self, fault_set: Iterable[Node]) -> int:
        id_of = self._id_of
        mask = 0
        for node in fault_set:
            mask |= 1 << id_of[node]
        return mask

    def _surviving_rows(self, fault_mask: int) -> List[int]:
        """Masked adjacency rows of ``R(G, rho)/F`` (faulty rows zeroed)."""
        alive = self._full_mask & ~fault_mask
        rows = [row & alive for row in self._base_rows]
        remaining = fault_mask
        while remaining:
            bit = remaining & -remaining
            rows[bit.bit_length() - 1] = 0
            remaining ^= bit
        if not fault_mask:
            return rows

        if not self._multi:
            kill_rows = self._kill_rows
            remaining = fault_mask
            while remaining:
                bit = remaining & -remaining
                for sid, mask in kill_rows[bit.bit_length() - 1].items():
                    rows[sid] &= ~mask
                remaining ^= bit
            return rows

        for sid, tid in self._dead_pairs(fault_mask, self._affected_pairs(fault_mask)):
            rows[sid] &= ~(1 << tid)
        return rows

    def _affected_pairs(self, fault_mask: int) -> Set[IdPair]:
        """Multirouting pairs with a route through some node of ``fault_mask``."""
        affected: Set[IdPair] = set()
        pairs_through = self._pairs_through
        remaining = fault_mask
        while remaining:
            bit = remaining & -remaining
            pairs = pairs_through.get(bit.bit_length() - 1)
            if pairs:
                affected |= pairs
            remaining ^= bit
        return affected

    def _dead_pairs(
        self, fault_mask: int, pairs: Iterable[IdPair]
    ) -> List[IdPair]:
        """Multirouting pairs of ``pairs`` that ``fault_mask`` cuts off.

        A pair is cut off when both endpoints survive but every one of its
        parallel routes meets a fault.
        """
        routes = self._pair_routes
        return [
            (sid, tid)
            for sid, tid in pairs
            if not (fault_mask >> sid) & 1
            and not (fault_mask >> tid) & 1
            and all(mask & fault_mask for mask in routes[(sid, tid)])
        ]

    # ------------------------------------------------------------------
    # Graph materialisation
    # ------------------------------------------------------------------
    def _build_digraph(self, rows: List[int], alive: int) -> DiGraph:
        base_name = (self.graph.name if self.graph is not None else "") or "G"
        surviving = DiGraph(name=f"R({base_name})/F")
        nodes = self._nodes
        remaining = alive
        while remaining:
            bit = remaining & -remaining
            surviving.add_node(nodes[bit.bit_length() - 1])
            remaining ^= bit
        remaining = alive
        while remaining:
            bit = remaining & -remaining
            sid = bit.bit_length() - 1
            source = nodes[sid]
            targets = rows[sid]
            while targets:
                tbit = targets & -targets
                surviving.add_edge(source, nodes[tbit.bit_length() - 1])
                targets ^= tbit
            remaining ^= bit
        return surviving

    def surviving_route_graph(self, faults: Iterable[Node]) -> DiGraph:
        """Return ``R(G, rho)/F`` — identical to the naive construction."""
        fault_mask = self._fault_mask(self._check_faults(faults))
        rows = self._surviving_rows(fault_mask)
        return self._build_digraph(rows, self._full_mask & ~fault_mask)

    # ------------------------------------------------------------------
    # Diameter evaluation
    # ------------------------------------------------------------------
    def surviving_diameter(
        self, faults: Iterable[Node], cap: Optional[float] = None
    ) -> float:
        """Return the diameter of ``R(G, rho)/F`` (``inf`` if disconnected).

        Parameters
        ----------
        cap:
            Optional eccentricity cap: when given, the evaluation returns
            ``inf`` as soon as some source's eccentricity is proven to exceed
            ``cap`` (so a finite return value is always the exact diameter,
            and any return value compares against ``cap`` exactly like the
            true diameter does).
        """
        fault_set = self._check_faults(faults)
        np_kernel = self._active_np_kernel()
        if np_kernel is not None:
            ids = sorted(self._id_of[node] for node in fault_set)
            return np_kernel.diameters([ids], cap=cap)[0]
        fault_mask = self._fault_mask(fault_set)
        rows = self._surviving_rows(fault_mask)
        value, _witness, _capped = _rows_diameter_witness(
            rows, self._full_mask & ~fault_mask, cap, self._successor_memo
        )
        return value

    def surviving_diameters(
        self,
        fault_sets: Iterable[Iterable[Node]],
        cap: Optional[float] = None,
    ) -> List[float]:
        """Surviving diameters for a whole battery of fault sets, in order.

        The batch entry point the campaign engine and the suite workers
        evaluate their shards through.  On the numpy backend the battery
        advances **together** — one packed reach tensor, one vectorised BFS
        level advance for all entries — which is where the backend's speedup
        comes from; on the bitset backend this is exactly a loop of
        :meth:`surviving_diameter` calls.  ``cap`` applies to every entry
        (same semantics as in :meth:`surviving_diameter`).
        """
        batch = list(fault_sets)
        np_kernel = self._active_np_kernel()
        if np_kernel is not None:
            id_of = self._id_of
            id_lists = [
                sorted(id_of[node] for node in self._check_faults(fs))
                for fs in batch
            ]
            return np_kernel.diameters(id_lists, cap=cap)
        return [self.surviving_diameter(fs, cap=cap) for fs in batch]

    def surviving_diameter_at_most(
        self, faults: Iterable[Node], bound: float
    ) -> bool:
        """Decide ``surviving_diameter(faults) <= bound`` with early exit.

        Equivalent to computing the diameter and comparing, but each source's
        BFS is abandoned as soon as its eccentricity exceeds ``bound`` and the
        first violating source short-circuits the whole evaluation.
        """
        if bound != bound:  # NaN: no diameter satisfies the comparison
            return False
        if bound == INFINITY:
            return True
        return self.surviving_diameter(faults, cap=bound) <= bound

    # ------------------------------------------------------------------
    # Evaluation cursors
    # ------------------------------------------------------------------
    def cursor(self, faults: Iterable[Node] = ()) -> "EvalCursor":
        """Return an :class:`EvalCursor` caching the evaluation state of ``F``.

        The cursor snapshots the masked adjacency rows for ``faults`` so
        derived fault sets (``cursor.with_added(v)``) are evaluated by a
        delta update touching only the rows indexed under ``v``.
        """
        fault_mask = self._fault_mask(self._check_faults(faults))
        rows = self._surviving_rows(fault_mask)
        return EvalCursor(self, fault_mask, rows)

    def candidate_diameters(
        self,
        base_faults: Iterable[Node],
        candidates: Iterable[Node],
        cap: Optional[float] = None,
    ) -> List[float]:
        """Surviving diameters of ``F | {v}`` for every candidate ``v``.

        The index-level face of :meth:`EvalCursor.batch_with_added`: one
        shared cursor for ``base_faults`` seeds a delta update per
        candidate, and the whole candidate round is evaluated as a single
        batch (one packed reach tensor on the numpy backend).  ``cap``
        follows the :meth:`surviving_diameter` contract — finite values are
        exact, ``inf`` means disconnected or proven above the cap.
        """
        cursor = self.cursor(base_faults)
        return [
            value
            for _child, value in cursor.batch_with_added(candidates, cap=cap)
        ]


class EvalCursor:
    """Cached evaluation state for one fault set ``F`` over a :class:`RouteIndex`.

    A cursor owns the masked adjacency rows of ``R(G, rho)/F`` and memoises
    the diameter (and, for disconnected graphs, a witness of the
    disconnection).  :meth:`with_added` derives the cursor for ``F | {v}``
    with a delta update that touches only the rows indexed under ``v``.
    Cursors are immutable snapshots: deriving a new cursor never changes the
    parent, so one cursor can seed many trial evaluations.
    """

    __slots__ = (
        "_index",
        "_fault_mask",
        "_rows",
        "_pending_rows",
        "_alive",
        "_diameter",
        "_unreached",
        "_lower_bound",
        "_capped_unreached",
        "_sibling_bounds",
        "_fault_ids",
        "_faults_view",
    )

    def __init__(
        self, index: RouteIndex, fault_mask: int, rows: Optional[List[int]]
    ) -> None:
        self._index = index
        self._fault_mask = fault_mask
        # Masked adjacency rows, or ``None`` for a cursor whose rows have
        # not been derived yet.  :meth:`with_added` hands out lazy children
        # (``_pending_rows`` holds the parent cursor and the added node id)
        # because the numpy kernel evaluates from the fault mask alone: a
        # candidate cursor that loses its greedy round never pays the
        # row-delta cost.  ``_materialise_rows`` resolves the chain on first
        # access (bitset evaluation, digraph export, or deriving onward).
        self._rows = rows
        self._pending_rows: Optional[Tuple["EvalCursor", int]] = None
        self._alive = index._full_mask & ~fault_mask
        self._diameter: Optional[float] = None
        # (source bit, unreached mask) witnessing a disconnection, when known.
        self._unreached: Optional[Tuple[int, int]] = None
        # Proven lower bound on the diameter.  A capped evaluation that
        # exceeds its cap without finding a disconnection cannot memoise an
        # exact diameter, but it *does* prove ``diameter >= floor(cap) + 1``
        # — remembered here so later calls with a cap (or bound) below the
        # failed one short-circuit instead of repeating the BFS.
        self._lower_bound: float = 0
        # (source bit, unreached mask, lb): every node of the mask is at
        # distance >= lb from the source.  The per-source witness behind
        # ``_lower_bound``; ``with_added`` propagates it to derived cursors
        # (removing arcs only increases distances), so a failing bound check
        # transfers to children without running a single BFS.
        self._capped_unreached: Optional[Tuple[int, int, int]] = None
        # node id -> (source bit, unreached mask, lb): capped witnesses
        # learned for *sibling* fault sets ``F | {u}`` (one entry per
        # candidate ``u`` some batch evaluated from this cursor).  A bound
        # for ``F | {u}`` says nothing about ``F`` itself or about another
        # sibling ``F | {w}``, so it cannot live in ``_capped_unreached`` —
        # but it transfers to any *descendant* that re-adds ``u``:
        # ``with_added(v)`` hands the (bit-filtered) store down, and applies
        # the entry for ``v`` directly to the child.  This is what carries a
        # bound learned in one greedy round to the next round's candidates
        # instead of discarding it with the losing sibling cursor.
        self._sibling_bounds: Optional[Dict[int, Tuple[int, int, int]]] = None
        # Lazily computed views of the fault mask, cached because serving
        # workloads fire many identical queries at one cursor: the sorted
        # fault-id list every numpy evaluation needs, and the label
        # frozenset the ``faults`` property hands out.  Rebuilding either
        # per query is pure allocation churn — the mask never changes.
        self._fault_ids: Optional[List[int]] = None
        self._faults_view: Optional[FrozenSet[Node]] = None

    @property
    def faults(self) -> FrozenSet[Node]:
        """The cursor's fault set, in original node labels (cached)."""
        view = self._faults_view
        if view is None:
            nodes = self._index._nodes
            view = self._faults_view = frozenset(
                nodes[nid] for nid in self._fault_id_list()
            )
        return view

    def _fault_id_list(self) -> List[int]:
        """The cursor's fault ids, ascending — computed once per cursor."""
        ids = self._fault_ids
        if ids is None:
            ids = self._fault_ids = _mask_ids(self._fault_mask)
        return ids

    def _materialise_rows(self) -> List[int]:
        """Resolve (and cache) the cursor's masked adjacency rows.

        Lazy cursors hold ``(parent, nid)`` instead of rows; the chain backs
        up to the nearest materialised ancestor (bounded by the derivation
        depth, e.g. the greedy fault-set size) and applies each delta on the
        way down.
        """
        rows = self._rows
        if rows is None:
            parent, nid = self._pending_rows
            rows = self._derive_rows(parent._materialise_rows(), nid)
            self._rows = rows
            self._pending_rows = None
        return rows

    def _derive_rows(self, parent_rows: List[int], nid: int) -> List[int]:
        """Parent rows with node ``nid`` (newly faulty) masked out."""
        index = self._index
        bit = 1 << nid
        rows = list(parent_rows)
        rows[nid] = 0
        if not index._multi:
            # Kill masks cover every arc v affects, including arcs into v
            # (v lies on its own routes), in one AND per indexed source.
            for sid, mask in index._kill_rows[nid].items():
                rows[sid] &= ~mask
        else:
            not_bit = ~bit
            fault_mask = self._fault_mask
            # Drop v as a target of its surviving predecessors (the parent's
            # alive mask is this cursor's with v restored)...
            preds = index._base_preds[nid] & (self._alive | bit)
            while preds:
                pbit = preds & -preds
                rows[pbit.bit_length() - 1] &= not_bit
                preds ^= pbit
            # ... and kill the arcs of pairs all of whose routes now die.
            pairs = index._pairs_through.get(nid, _NO_PAIRS)
            for sid, tid in index._dead_pairs(fault_mask, pairs):
                rows[sid] &= ~(1 << tid)
        return rows

    def surviving_route_graph(self) -> DiGraph:
        """Materialise ``R(G, rho)/F`` for the cursor's fault set."""
        return self._index._build_digraph(self._materialise_rows(), self._alive)

    def diameter(self, cap: Optional[float] = None) -> float:
        """Return the surviving diameter (memoised; ``cap`` as in the index)."""
        if self._diameter is None:
            if cap is not None and cap < self._lower_bound:
                # A previous capped evaluation already proved the diameter
                # exceeds this cap; no BFS needed.
                return INFINITY
            value, witness, capped = self._evaluate(cap)
            if cap is not None and value == INFINITY and witness is None:
                # Cap exceeded without a disconnection witness: the exact
                # value is unknown, so do not memoise it — but the failed
                # cap is a proven lower bound, so remember that instead.
                bound = math.floor(cap) + 1
                if capped is not None and capped[2] > bound:
                    bound = capped[2]
                if bound > self._lower_bound:
                    self._lower_bound = bound
                if capped is not None:
                    self._capped_unreached = capped
                return INFINITY
            self._diameter = value
            self._unreached = witness
        return self._diameter

    def diameter_at_most(self, bound: float) -> bool:
        """Decide ``diameter() <= bound`` with the bounded BFS early exit."""
        if bound != bound:
            return False
        if bound == INFINITY:
            return True
        if self._diameter is not None:
            return self._diameter <= bound
        if bound < self._lower_bound:
            # diameter >= _lower_bound > bound, proven by an earlier capped
            # evaluation (possibly inherited from a parent cursor).
            return False
        return self.diameter(cap=bound) <= bound

    def _evaluate(
        self, cap: Optional[float]
    ) -> Tuple[float, Optional[Tuple[int, int]], Optional[Tuple[int, int, int]]]:
        """One diameter evaluation through the index's resolved backend."""
        index = self._index
        kernel = index._active_np_kernel()
        if kernel is not None:
            return kernel.diameter_witness(self._fault_id_list(), cap)
        return _rows_diameter_witness(
            self._materialise_rows(), self._alive, cap, index._successor_memo
        )

    def with_added(self, node: Node) -> "EvalCursor":
        """Return the cursor for ``F | {node}`` via a delta update.

        Only the surviving predecessors of ``node`` and the pairs routed
        through it are touched; every other row is shared with the parent by
        value (rows are immutable ints).  The delta itself is *deferred*:
        the child records ``(parent, node)`` and derives its rows on first
        access, so candidates evaluated purely through the numpy kernel
        (which reads the fault mask, not the rows) never pay for it.

        The returned cursor is always a distinct object, even when ``node``
        is already faulty (it then shares the parent's rows and memoised
        state): callers may memoise further results on it without mutating
        the parent.
        """
        index = self._index
        nid = index._id_of.get(node)
        if nid is None:
            raise FaultModelError(
                f"faulty node {node!r} is not a node of the graph"
            )
        bit = 1 << nid
        if self._fault_mask & bit:
            # Same fault set, but hand back a distinct cursor so memoising
            # on the child never aliases into the parent.
            twin = EvalCursor(index, self._fault_mask, self._rows)
            twin._pending_rows = self._pending_rows
            twin._diameter = self._diameter
            twin._unreached = self._unreached
            twin._lower_bound = self._lower_bound
            twin._capped_unreached = self._capped_unreached
            twin._fault_ids = self._fault_ids
            twin._faults_view = self._faults_view
            if self._sibling_bounds:
                # Same fault set, so every sibling bound applies verbatim —
                # but copy the store so memoising on the twin never mutates
                # the parent.
                twin._sibling_bounds = dict(self._sibling_bounds)
            return twin
        fault_mask = self._fault_mask | bit
        not_bit = ~bit
        # Rows stay lazy: the delta update is deferred until something
        # actually reads them (see ``_materialise_rows``), so a candidate
        # evaluated purely through the numpy kernel never derives its rows.
        child = EvalCursor(index, fault_mask, None)
        child._pending_rows = (self, nid)
        # Removing arcs can only shrink reachability: if the parent is
        # disconnected by a missing target other than v (from a source other
        # than v), the child is disconnected too — no BFS needed.
        if self._unreached is not None:
            source_bit, unreached = self._unreached
            if source_bit != bit and unreached & not_bit:
                child._diameter = INFINITY
                child._unreached = (source_bit, unreached & not_bit)
        # The capped witness transfers by the same monotonicity: nodes at
        # distance >= lb from the source stay at least that far away once
        # more arcs are removed, so the child inherits the lower bound.
        if self._capped_unreached is not None:
            source_bit, unreached, lb = self._capped_unreached
            if source_bit != bit and unreached & not_bit:
                if lb > child._lower_bound:
                    child._lower_bound = lb
                child._capped_unreached = (source_bit, unreached & not_bit, lb)
        if self._sibling_bounds:
            # A bound learned for ``F | {node}`` by an earlier batch from
            # this cursor is a bound on exactly the child's fault set.
            own = self._sibling_bounds.get(nid)
            if own is not None:
                source_bit, unreached, lb = own
                if lb > child._lower_bound:
                    child._lower_bound = lb
                if (
                    child._capped_unreached is None
                    or lb > child._capped_unreached[2]
                ):
                    child._capped_unreached = (source_bit, unreached, lb)
            # Bounds for the other siblings ``F | {u}`` transfer to the
            # child's own candidates ``F | {node} | {u}`` by monotonicity
            # (the child only removes more arcs), provided the witness
            # survives ``node``'s removal.
            inherited: Optional[Dict[int, Tuple[int, int, int]]] = None
            for uid, (source_bit, unreached, lb) in self._sibling_bounds.items():
                if uid == nid or source_bit == bit:
                    continue
                filtered = unreached & not_bit
                if filtered:
                    if inherited is None:
                        inherited = {}
                    inherited[uid] = (source_bit, filtered, lb)
            child._sibling_bounds = inherited
        return child

    def batch_with_added(
        self, nodes: Iterable[Node], cap: Optional[float] = None
    ) -> List[Tuple["EvalCursor", float]]:
        """Evaluate ``F | {v}`` for every candidate ``v``, in one batch.

        Returns ``[(child cursor, value), ...]`` in candidate order, where
        ``value`` follows the :meth:`diameter` contract for ``cap``: a
        finite value is always the exact surviving diameter, and ``inf``
        means disconnected *or* proven to exceed the cap.  This is the
        batched candidate-evaluation layer of the greedy adversary.

        On the numpy backend the candidates advance through one pass of
        packed uint64 reach tensors, up to 32 lanes per vectorised BFS
        level, a settled lane taking the next candidate (with ``cap``
        aborting hopeless lanes early); the bitset
        backend runs the equivalent loop over :meth:`with_added` children —
        both share this cursor's masked rows, so per-candidate setup is the
        usual delta update either way and the returned values are
        byte-identical across backends.

        Capped evaluations that fail leave their lower bound behind
        **twice**: on the child cursor itself, and in this cursor's sibling
        store, where later :meth:`with_added` derivations (e.g. the next
        greedy round's candidates) pick it up instead of re-proving it.
        Memoised children (a prior exact diameter, or a lower bound already
        above ``cap``) skip their BFS lane entirely.
        """
        node_list = list(nodes)
        kernel = self._index._active_np_kernel()
        if kernel is not None:
            children = [self.with_added(node) for node in node_list]
            self._np_batch_evaluate(children, cap, kernel)
            for node, child in zip(node_list, children):
                self._note_sibling_bound(node, child)
            return [(child, child.diameter(cap=cap)) for child in children]
        results: List[Tuple["EvalCursor", float]] = []
        for node in node_list:
            child = self.with_added(node)
            value = child.diameter(cap=cap)
            self._note_sibling_bound(node, child)
            results.append((child, value))
        return results

    def _note_sibling_bound(self, node: Node, child: "EvalCursor") -> None:
        """Record a capped bound learned for ``F | {node}`` on this cursor."""
        capped = child._capped_unreached
        if capped is None or child._fault_mask == self._fault_mask:
            return
        nid = self._index._id_of[node]
        store = self._sibling_bounds
        if store is None:
            store = self._sibling_bounds = {}
        known = store.get(nid)
        if known is None or capped[2] > known[2]:
            store[nid] = capped

    def _np_batch_evaluate(
        self, children: List["EvalCursor"], cap: Optional[float], kernel
    ) -> None:
        """Memoise diameters/bounds onto ``children`` via one numpy batch.

        Children whose answer is already memoised (an exact diameter, or a
        lower bound proving the cap unreachable) contribute no BFS lane.
        The rest go through :meth:`NumpyKernel.batch_witnesses` in one
        call, and each entry's result is memoised exactly as
        :meth:`diameter` would have.
        """
        pending = [
            child
            for child in children
            if child._diameter is None
            and not (cap is not None and cap < child._lower_bound)
        ]
        triples = kernel.batch_witnesses(
            [child._fault_id_list() for child in pending], cap
        )
        for child, (value, witness, capped) in zip(pending, triples):
            if cap is not None and value == INFINITY and witness is None:
                # Cap exceeded without a disconnection: remember the
                # proven lower bound, not the (unknown) exact value.
                bound = math.floor(cap) + 1
                if capped is not None and capped[2] > bound:
                    bound = capped[2]
                if bound > child._lower_bound:
                    child._lower_bound = bound
                if capped is not None:
                    child._capped_unreached = capped
            else:
                child._diameter = value
                child._unreached = witness


def _rows_diameter_witness(
    rows: List[int],
    alive: int,
    cap: Optional[float] = None,
    successor_memo: Optional[_SuccessorMemo] = None,
) -> Tuple[float, Optional[Tuple[int, int]], Optional[Tuple[int, int, int]]]:
    """Diameter of the digraph given by bitset rows.

    Matches the conventions of :func:`repro.graphs.traversal.diameter`:
    ``inf`` for the empty or non-strongly-connected graph, ``0`` for a single
    node.  With ``cap`` given, returns ``inf`` as soon as the diameter is
    proven to exceed the cap (a finite return value is always exact).

    The second component witnesses a disconnection when one was found: a
    source's bit and the mask of nodes it cannot reach.  The third component
    is the *capped witness* ``(source bit, unreached mask, lb)`` produced
    when the cap was exceeded without proving a disconnection: every node of
    the mask is at distance at least ``lb`` from the source.  At most one of
    the two witnesses is non-``None``; both are ``None`` when the graph is
    connected within the cap.

    Two strategies cover the two shapes surviving route graphs come in.
    Sparse graphs use *batched propagation*: every node's reachable set is a
    bitmask, all sources advance one level together, and a source leaves
    the propagation once its reach set is complete (see
    :func:`_batched_diameter`).  Dense graphs (where a BFS completes in a
    level or two and most sources terminate almost immediately) use
    per-source frontier BFS, which exploits that early exit.
    :data:`BFS_DENSITY_FACTOR` draws the line between the two.  Both return
    identical values.

    The batched strategy is guarded by the lowest alive node's frontier BFS,
    which is the per-source strategy's first step.  When that BFS misses a
    node or passes ``cap``, the per-source strategy stops there, so the
    guard's triple is the per-source result.  Without a cap it is also the
    propagation's result: the propagation reports the lowest node whose
    reach set stops growing short of ``alive``, which is then the guard's
    node, with the same unreached mask (the nodes its BFS never reached).
    Otherwise the propagation runs as usual.

    ``successor_memo`` goes to the batched strategy (see
    :func:`_batched_diameter`); the per-source strategy never reads it.
    """
    if not alive:
        return INFINITY, None, None
    total = alive.bit_count()
    if total == 1:
        return 0, None, None
    arcs = sum(map(int.bit_count, rows))
    if arcs * BFS_DENSITY_FACTOR <= total * total:
        return _batched_diameter(rows, alive, total, cap, successor_memo)
    return _per_source_diameter(rows, alive, cap)


def _batched_diameter(
    rows: List[int],
    alive: int,
    total: int,
    cap: Optional[float],
    successor_memo: Optional[_SuccessorMemo] = None,
) -> Tuple[float, Optional[Tuple[int, int]], Optional[Tuple[int, int, int]]]:
    """All-sources reachability propagation, hub successors first.

    Guarded by the lowest alive node's own frontier BFS: when it misses a
    node or passes ``cap``, its triple is the answer (see
    :func:`_rows_diameter_witness`) and the propagation never runs.

    ``reach[u]`` holds the nodes within distance ``level`` of ``u``.  A
    source is *active* while its reach falls short of ``alive``; its
    eccentricity is the level at which it stops being active, so the
    diameter is the level at which none is left.  A level advance ORs into
    each active source's reach the previous level's reach sets of its
    successors: first those of its hub successors (the memo's ``hubs``),
    whose union is formed once per level for each distinct hub part, and
    only when they leave the source short of ``alive``, those of the rest.
    Every level thus yields the exact reach of each active source, which is
    what the witnesses report: the lowest active source's unreached nodes,
    once ``cap`` is reached (a capped witness) or once a level adds nothing
    (a disconnection).

    Successor ids come from ``successor_memo`` (see :class:`_SuccessorMemo`).
    Index evaluations pass their index's memo, whose hubs are those of the
    fault-free route graph.  A caller with bare rows may leave it out and
    gets a memo of its own for the call, with the hubs of ``rows``.  The
    result never depends on the memo's contents or hubs.
    """
    guard = _per_source_diameter(rows, alive, cap, alive & -alive)
    if guard[0] == INFINITY:
        return guard
    if successor_memo is None:
        successor_memo = _SuccessorMemo.for_rows(rows)
    hubs = successor_memo.hubs
    others = ~hubs
    n = len(rows)
    # The alive ids, ascending: every id but the few faulty ones.
    ids = list(range(n))
    for node in reversed(_mask_ids(((1 << n) - 1) & ~alive)):
        del ids[node]
    # A faulty node's entry is never read: no alive row points at it.
    reach = [(1 << node) | row for node, row in enumerate(rows)]
    active = [node for node in ids if reach[node] != alive]
    # Each source's rest successors, looked up on its first rest pass.
    rest: List[Optional[Tuple[int, ...]]] = [None] * n
    level = 1
    while active:
        if cap is not None and level >= cap:
            # reach covers distance <= level, so any unreached node is at
            # distance >= level + 1 from its source: a capped witness.
            node = active[0]
            return INFINITY, None, (1 << node, alive & ~reach[node], level + 1)
        advanced = list(reach)
        still_active: List[int] = []
        hub_reach: Dict[int, int] = {}
        for node in active:
            row = rows[node]
            acc = reach[node]
            part = row & hubs
            if part:
                union = hub_reach.get(part)
                if union is None:
                    union = 0
                    for target in successor_memo[part]:
                        union |= reach[target]
                    hub_reach[part] = union
                acc |= union
            if acc != alive:
                targets = rest[node]
                if targets is None:
                    targets = rest[node] = successor_memo[row & others]
                for target in targets:
                    acc |= reach[target]
                if acc != alive:
                    still_active.append(node)
            advanced[node] = acc
        # A source that completes has grown, so nothing grew only when every
        # source stayed active with its reach unchanged.
        if len(still_active) == len(active) and advanced == reach:
            node = active[0]
            return INFINITY, (1 << node, alive & ~reach[node]), None
        reach = advanced
        active = still_active
        level += 1
    return level, None, None


def _per_source_diameter(
    rows: List[int],
    alive: int,
    cap: Optional[float],
    sources: Optional[int] = None,
) -> Tuple[float, Optional[Tuple[int, int]], Optional[Tuple[int, int, int]]]:
    """Per-source frontier BFS with early completion exit (dense graphs).

    ``sources`` restricts the BFS to the nodes of that mask, in ascending
    order (the batched strategy's guard passes the lowest alive node); it
    defaults to every alive node.
    """
    worst = 0
    if sources is None:
        sources = alive
    while sources:
        source_bit = sources & -sources
        sources ^= source_bit
        visited = source_bit
        frontier = source_bit
        eccentricity = 0
        while visited != alive:
            reach = 0
            while frontier:
                fbit = frontier & -frontier
                reach |= rows[fbit.bit_length() - 1]
                frontier ^= fbit
            frontier = reach & ~visited
            if not frontier:
                return INFINITY, (source_bit, alive & ~visited), None
            eccentricity += 1
            if cap is not None and eccentricity > cap:
                # visited covers distance <= eccentricity - 1: the unvisited
                # nodes sit at distance >= eccentricity, a capped witness.
                return (
                    INFINITY,
                    None,
                    (source_bit, alive & ~visited, eccentricity),
                )
            visited |= frontier
        if eccentricity > worst:
            worst = eccentricity
    return worst, None, None
