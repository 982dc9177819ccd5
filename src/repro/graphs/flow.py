"""Maximum flow on integer arrays (Dinic's algorithm) and the node-split network.

Vertex connectivity, minimum separators and internally vertex-disjoint
paths — the graph quantities on which every construction in the paper rests
(the connectivity ``t + 1`` of the underlying graph, the separating set ``M``
of the kernel and the ``t + 1`` disjoint paths of Lemma 2) — reduce to
maximum flow on a *node-split* directed network: node ``x`` becomes
``x_in -> x_out`` with capacity 1 and every undirected edge ``{x, y}`` the
two arcs ``x_out -> y_in`` and ``y_out -> x_in``.

Building a kernel routing runs hundreds of such flows on one graph, so the
network is compiled once per graph into integer arrays and each flow works on
a copy of its capacity list:

* :class:`FlowNetwork` numbers its nodes and arcs in insertion order.  Arc
  ``a`` and its reverse residual arc ``a ^ 1`` are allocated together, every
  node keeps its arc ids in first-mention order, and :func:`_dinic` is the one
  max-flow routine.
* :class:`SplitNetwork` is the compiled node-split network of one
  :class:`~repro.graphs.graph.Graph`; :func:`split_network` caches it on the
  graph (the cache is dropped when the graph changes).  A flow between
  adjacent nodes masks their edge instead of copying the graph.

The search order is part of the result: the minimum cut and the disjoint paths
a flow yields (and with them every separator and routing downstream) depend on
which augmenting paths Dinic finds.  Each BFS phase lists every node's level
arcs in insertion order, the search scans only those and moves past the arc it
took, and dead ends leave the level graph, so the same graph always gives the
same flow under any ``PYTHONHASHSEED``.  :meth:`SplitFlow.paths` walks each
path of that flow from one of the source's flow arcs, last first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

if TYPE_CHECKING:
    from repro.graphs.graph import Graph

Node = Hashable
Arc = Tuple[Node, Node]


def _dinic(
    adjacency: List[List[int]],
    head: List[int],
    capacity: List[int],
    source: int,
    sink: int,
    cutoff: Optional[int],
) -> int:
    """Push a maximum flow from ``source`` to ``sink``; ``capacity`` becomes residual.

    Each phase labels the level graph by BFS, stopping at the sink's level
    (nodes beyond it cannot lie on a shortest augmenting path), and lists each
    node's *level arcs* in adjacency order: its arcs with residual capacity
    into the next level.  No other arc can join the level graph during the
    phase: an arc gains capacity only when its partner is augmented, and that
    partner runs one level up.  The search for augmenting paths then scans
    only these lists, from the source with an explicit stack, so paths of any
    length stay clear of Python's recursion limit.  Each node's scan resumes
    past the arc it last took, even if that arc keeps capacity (part of the
    search order results depend on), so no arc is tried twice in a phase and
    every arc still ahead keeps the capacity the BFS saw.  Returns as soon as
    the flow value reaches ``cutoff``.
    """
    size = len(adjacency)
    flow = 0
    while True:
        level = [-1] * size
        level[source] = 0
        # Nodes the BFS does not expand keep the shared empty scan: dead ends.
        ahead: List[Iterator[int]] = [iter(())] * size
        queue = [source]
        for node in queue:
            depth = level[node]
            if depth == level[sink]:
                break
            depth += 1
            arcs = []
            for arc in adjacency[node]:
                if capacity[arc] > 0:
                    nxt = head[arc]
                    if level[nxt] < 0:
                        level[nxt] = depth
                        queue.append(nxt)
                        arcs.append(arc)
                    elif level[nxt] == depth:
                        arcs.append(arc)
            ahead[node] = iter(arcs)
        if level[sink] < 0:
            return flow
        while True:
            stack = [source]
            taken: List[int] = []
            while stack:
                node = stack[-1]
                if node == sink:
                    break
                for arc in ahead[node]:
                    if level[head[arc]] > 0:  # not yet a dead end
                        stack.append(head[arc])
                        taken.append(arc)
                        break
                else:
                    # Dead end: this node cannot reach the sink in the level
                    # graph any more during this phase.
                    level[node] = -1
                    stack.pop()
                    if taken:
                        taken.pop()
            if not stack:
                break
            bottleneck = min(capacity[arc] for arc in taken)
            for arc in taken:
                capacity[arc] -= bottleneck
                capacity[arc ^ 1] += bottleneck
            flow += bottleneck
            if cutoff is not None and flow >= cutoff:
                return flow


def _reachable(
    adjacency: List[List[int]], head: List[int], capacity: List[int], source: int
) -> List[bool]:
    """Mark the nodes reachable from ``source`` along arcs with capacity left."""
    seen = [False] * len(adjacency)
    seen[source] = True
    queue = [source]
    for node in queue:
        for arc in adjacency[node]:
            if capacity[arc] > 0 and not seen[head[arc]]:
                seen[head[arc]] = True
                queue.append(head[arc])
    return seen


class FlowNetwork:
    """A directed network with integer arc capacities for max-flow computation.

    Arcs are added with :meth:`add_arc`; adding an arc also creates the reverse
    residual arc with capacity 0 (unless the reverse arc was added explicitly,
    in which case capacities accumulate correctly).
    """

    def __init__(self) -> None:
        self._ids: Dict[Node, int] = {}
        self._labels: List[Node] = []
        self._arc_ids: Dict[Tuple[int, int], int] = {}
        # node id -> ids of its arcs, in the order the neighbour first
        # appeared: BFS level graphs and DFS augmenting-path choices follow
        # insertion order and never PYTHONHASHSEED.
        self._adjacency: List[List[int]] = []
        self._head: List[int] = []
        self._capacity: List[int] = []

    def add_node(self, node: Node) -> None:
        """Ensure ``node`` exists in the network."""
        self._id(node)

    def _id(self, node: Node) -> int:
        ident = self._ids.get(node)
        if ident is None:
            ident = self._ids[node] = len(self._labels)
            self._labels.append(node)
            self._adjacency.append([])
        return ident

    def add_arc(self, u: Node, v: Node, capacity: int = 1) -> None:
        """Add capacity ``capacity`` on the arc ``u -> v``.

        Repeated calls accumulate capacity.  The reverse residual arc is
        created implicitly with capacity 0.
        """
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        tail, tip = self._id(u), self._id(v)
        arc = self._arc_ids.get((tail, tip))
        if arc is None:
            arc = len(self._head)
            self._arc_ids[(tail, tip)] = arc
            self._arc_ids[(tip, tail)] = arc + 1
            self._head += [tip, tail]
            self._capacity += [0, 0]
            self._adjacency[tail].append(arc)
            self._adjacency[tip].append(arc + 1)
        self._capacity[arc] += capacity

    def capacity(self, u: Node, v: Node) -> int:
        """Return the remaining capacity of the arc ``u -> v`` (0 if absent)."""
        arc = self._arc_ids.get((self._ids.get(u), self._ids.get(v)))
        return 0 if arc is None else self._capacity[arc]

    def nodes(self) -> List[Node]:
        """Return the nodes of the network."""
        return list(self._labels)

    def max_flow(self, source: Node, sink: Node, cutoff: Optional[int] = None) -> int:
        """Compute the maximum flow from ``source`` to ``sink``.

        Parameters
        ----------
        source, sink:
            Distinct nodes of the network.
        cutoff:
            Optional early-exit bound: computation stops as soon as the flow
            value reaches ``cutoff``.  Useful when the caller only needs to
            know whether the connectivity is at least some threshold.

        Notes
        -----
        The network is mutated (capacities become residual capacities), so a
        :class:`FlowNetwork` instance supports a single max-flow computation;
        :class:`SplitNetwork` runs each flow on a fresh copy instead.
        """
        if source == sink:
            raise ValueError("source and sink must be distinct")
        if source not in self._ids or sink not in self._ids:
            return 0
        return _dinic(
            self._adjacency, self._head, self._capacity,
            self._ids[source], self._ids[sink], cutoff,
        )

    def min_cut_reachable(self, source: Node) -> Set[Node]:
        """Return the source side of a minimum cut *after* a max-flow run.

        Only meaningful once :meth:`max_flow` has been called: the residual
        capacities then describe the residual network, and the nodes reachable
        from the source in it form the source side of a minimum cut.
        """
        seen = _reachable(self._adjacency, self._head, self._capacity, self._ids[source])
        return {label for label, hit in zip(self._labels, seen) if hit}


def unit_max_flow(
    arcs: Iterable[Arc], source: Node, sink: Node, cutoff: Optional[int] = None
) -> int:
    """Convenience wrapper: max flow of a fresh unit-capacity network.

    ``arcs`` is an iterable of directed ``(u, v)`` pairs each given capacity 1.
    """
    network = FlowNetwork()
    for u, v in arcs:
        network.add_arc(u, v, 1)
    network.add_node(source)
    network.add_node(sink)
    return network.max_flow(source, sink, cutoff=cutoff)


class SplitNetwork:
    """The node-split flow network of one undirected graph, compiled once.

    Node ``graph.nodes()[i]`` becomes ``in = 2i -> out = 2i + 1`` with
    capacity 1; each edge of ``graph.edges()`` becomes its two ``out -> in``
    arcs with capacity ``edge_capacity``.  A flow's endpoints get node
    capacity ``n + 1`` so they never act as the cut.

    ``edge_capacity`` decides which flow is found, not its value: ``n + 1``
    (connectivity and separators) leaves edge arcs unsaturated so every
    minimum cut consists of node arcs, and 1 (disjoint paths) saturates an
    edge after one unit.
    """

    def __init__(self, graph: "Graph", edge_capacity: int) -> None:
        self.nodes: List[Node] = graph.nodes()
        self.position: Dict[Node, int] = {node: i for i, node in enumerate(self.nodes)}
        self._large = len(self.nodes) + 1
        # Split nodes are labelled by their ids, and node i's arc is the i-th
        # arc pair, so its arc id is 2i as well.  Edge arcs follow in
        # graph.edges() order, ``u_out -> v_in`` before ``v_out -> u_in``:
        # the forward edge arcs are the even ids from 2n on, in that order.
        network = FlowNetwork()
        for i in range(len(self.nodes)):
            network.add_arc(2 * i, 2 * i + 1, 1)
        for u, v in graph.edges():
            pu, pv = 2 * self.position[u], 2 * self.position[v]
            network.add_arc(pu + 1, pv, edge_capacity)
            network.add_arc(pv + 1, pu, edge_capacity)
        # Only the arrays stay cached with the graph, not the label maps.
        self._adjacency = network._adjacency
        self._head = network._head
        self._capacity = network._capacity

    def max_flow(self, source: Node, target: Node, cutoff: Optional[int] = None) -> "SplitFlow":
        """Max flow from ``source_out`` to ``target_in``, stopping at ``cutoff``.

        The edge between adjacent endpoints is masked (capacity 0), which is
        the flow of the graph without that edge.
        """
        s, t = self.position[source], self.position[target]
        head = self._head
        capacity = self._capacity.copy()
        capacity[2 * s] = capacity[2 * t] = self._large
        for tail, tip in ((2 * s + 1, 2 * t), (2 * t + 1, 2 * s)):
            for arc in self._adjacency[tail]:
                if head[arc] == tip:
                    capacity[arc] = 0
        value = _dinic(self._adjacency, head, capacity, 2 * s + 1, 2 * t, cutoff)
        return SplitFlow(self, s, t, value, capacity)


class SplitFlow:
    """One flow on a :class:`SplitNetwork`: its value and residual capacities."""

    __slots__ = ("_split", "_source", "_target", "value", "_residual")

    def __init__(
        self, split: SplitNetwork, source: int, target: int, value: int, residual: List[int]
    ) -> None:
        self._split = split
        self._source = source
        self._target = target
        self.value = value
        self._residual = residual

    def separator(self) -> Set[Node]:
        """The nodes whose arc crosses the minimum cut the residual network leaves.

        Exactly ``value`` nodes when edge arcs have capacity ``n + 1`` and the
        flow ran to completion (no ``cutoff`` reached).
        """
        split = self._split
        seen = _reachable(split._adjacency, split._head, self._residual, 2 * self._source + 1)
        return {
            node
            for i, node in enumerate(split.nodes)
            if seen[2 * i] and not seen[2 * i + 1]
        }

    def paths(self) -> List[List[Node]]:
        """Decompose the (integral, unit) flow into source-target node paths.

        An edge arc carries flow when its reverse residual arc has capacity.
        Every node but the endpoints has capacity 1, so a path leaves each
        node it enters by the single flow arc out of that node's out-node.
        Each path is walked from one of the source's flow arcs, taken last
        first in adjacency (edge) order, so the same flow always decomposes
        into the same paths.
        """
        residual = self._residual
        adjacency, head, nodes = self._split._adjacency, self._split._head, self._split.nodes
        goal = 2 * self._target
        paths: List[List[Node]] = []
        # An out-node's even arcs are its edge arcs; its odd one is the
        # reverse of its node arc.
        starts = [
            arc
            for arc in adjacency[2 * self._source + 1]
            if not arc & 1 and residual[arc + 1] > 0
        ]
        for arc in reversed(starts):
            path = [nodes[self._source]]
            tip = head[arc]
            while tip != goal:
                path.append(nodes[tip >> 1])
                (arc,) = [a for a in adjacency[tip + 1] if not a & 1 and residual[a + 1] > 0]
                tip = head[arc]
            path.append(nodes[self._target])
            paths.append(path)
        return paths


def split_network(graph: "Graph", unit_edges: bool = False) -> SplitNetwork:
    """Return ``graph``'s compiled node-split network, building it on first use.

    ``unit_edges=False`` gives the connectivity/separator variant (edge
    capacity ``n + 1``), ``True`` the disjoint-path variant (capacity 1).  The
    network is cached on the graph until the graph next changes.
    """
    return graph.derived(
        ("split-network", unit_edges),
        lambda g: SplitNetwork(g, 1 if unit_edges else g.number_of_nodes() + 1),
    )
