"""Fault-set generation strategies: exhaustive, random, targeted, greedy.

The tolerance theorems are worst-case statements over *all* fault sets of
bounded size.  Exhaustive enumeration is exact but only feasible for small
graphs and small ``f``; for larger instances the library combines

* random sampling (an unbiased but weak adversary),
* *targeted* fault sets aimed at the structures the constructions rely on —
  subsets of the concentrator, subsets of a single node's neighbourhood,
  subsets of the nodes on one node's tree routing — which in practice are the
  fault patterns that realise the worst surviving diameters, and
* a greedy adversarial search that grows a fault set one node at a time,
  always picking the node whose failure increases the surviving diameter the
  most.
"""

from __future__ import annotations

import itertools
import random as _random
from typing import Callable, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Union

from repro.core.route_index import EVAL_BACKEND_NUMPY
from repro.core.routing import MultiRouting, Routing
from repro.faults.models import FaultSet
from repro.graphs.graph import Graph

Node = Hashable
AnyRouting = Union[Routing, MultiRouting]
RandomLike = Union[int, _random.Random, None]


def _rng(seed: RandomLike) -> _random.Random:
    if isinstance(seed, _random.Random):
        return seed
    return _random.Random(seed)


# ----------------------------------------------------------------------
# Exhaustive enumeration
# ----------------------------------------------------------------------
def all_fault_sets(
    nodes: Iterable[Node], max_size: int, include_smaller: bool = True
) -> Iterator[FaultSet]:
    """Yield every fault set of size at most (or exactly) ``max_size``.

    The surviving diameter is *not* monotone in the fault set (removing an
    extra node may delete the very pair of nodes realising the worst
    distance), so a sound exhaustive check must consider all sizes up to the
    bound, which is the default.
    """
    node_list = sorted(nodes, key=repr)
    sizes = range(0, max_size + 1) if include_smaller else range(max_size, max_size + 1)
    for size in sizes:
        for combo in itertools.combinations(node_list, size):
            yield FaultSet(combo, description=f"exhaustive size {size}")


def count_fault_sets(n: int, max_size: int, include_smaller: bool = True) -> int:
    """Return how many fault sets :func:`all_fault_sets` would yield."""
    import math

    sizes = range(0, max_size + 1) if include_smaller else [max_size]
    return sum(math.comb(n, size) for size in sizes)


# ----------------------------------------------------------------------
# Random sampling
# ----------------------------------------------------------------------
def random_fault_sets(
    nodes: Iterable[Node],
    size: int,
    count: int,
    seed: RandomLike = None,
    exclude: Iterable[Node] = (),
) -> Iterator[FaultSet]:
    """Yield ``count`` uniformly random fault sets of exactly ``size`` nodes."""
    pool = [node for node in sorted(nodes, key=repr) if node not in set(exclude)]
    if size > len(pool):
        return
    rng = _rng(seed)
    for index in range(count):
        yield FaultSet(rng.sample(pool, size), description=f"random #{index}")


# ----------------------------------------------------------------------
# Targeted (structure-aware) fault sets
# ----------------------------------------------------------------------
def targeted_fault_sets(
    graph: Graph,
    size: int,
    concentrator: Sequence[Node] = (),
    routing: Optional[AnyRouting] = None,
    per_target_limit: int = 64,
) -> Iterator[FaultSet]:
    """Yield fault sets aimed at the routing's weak points.

    Three families of candidates are produced (each capped at
    ``per_target_limit`` sets to keep the total manageable):

    1. subsets of the concentrator ``M`` — killing concentrator members
       stresses Properties CIRC 2 / T-CIRC / B-POL 4;
    2. subsets of a single node's neighbour set — killing a node's neighbours
       is how an adversary isolates it, the situation Lemma 1 defends against;
    3. for a given routing, subsets of the nodes appearing on some node's
       routes (excluding the node itself), which attacks its tree routing.
    """
    emitted = 0
    concentrator_list = [node for node in concentrator if graph.has_node(node)]
    if len(concentrator_list) >= size and size > 0:
        for combo in itertools.islice(
            itertools.combinations(sorted(concentrator_list, key=repr), size),
            per_target_limit,
        ):
            yield FaultSet(combo, description="targeted: concentrator subset")
            emitted += 1

    if size > 0:
        by_degree = sorted(graph.nodes(), key=lambda n: (-graph.degree(n), repr(n)))
        for victim in by_degree[:per_target_limit]:
            neighbors = sorted(graph.neighbors(victim), key=repr)
            if len(neighbors) < size:
                continue
            yield FaultSet(
                neighbors[:size], description=f"targeted: neighbours of {victim!r}"
            )

    if routing is not None and size > 0:
        pairs = routing.pairs()
        seen_sources: Set[Node] = set()
        for source, target in pairs:
            if source in seen_sources:
                continue
            seen_sources.add(source)
            if len(seen_sources) > per_target_limit:
                break
            on_routes: Set[Node] = set()
            if isinstance(routing, MultiRouting):
                for path in routing.get_routes(source, target):
                    on_routes.update(path)
            else:
                path = routing.get_route(source, target)
                if path:
                    on_routes.update(path)
            on_routes.discard(source)
            candidates = sorted(on_routes, key=repr)
            if len(candidates) >= size:
                yield FaultSet(
                    candidates[:size], description=f"targeted: routes of {source!r}"
                )


# ----------------------------------------------------------------------
# Greedy adversarial search
# ----------------------------------------------------------------------
def _select_round(candidates, trials, incumbent):
    """Fold exact ``(node, cursor, diameter)`` trials into the round's choice.

    This is the greedy selection rule both evaluation paths share: the
    first candidate realising the largest *finite* diameter wins while it
    strictly improves the incumbent (or when nothing disconnects); otherwise
    the first disconnecting candidate wins; otherwise the round is a dead
    end.  Returns ``(chosen node or None, cursor, incumbent)``.
    """
    inf = float("inf")
    best_node = best_cursor = None
    best_finite = -1.0
    inf_node = inf_cursor = None
    for node, (trial, diam) in zip(candidates, trials):
        if diam == inf:
            if inf_node is None:
                inf_node, inf_cursor = node, trial
        elif diam > best_finite:
            best_finite, best_node, best_cursor = diam, node, trial
    if best_node is not None and (best_finite > incumbent or inf_node is None):
        return best_node, best_cursor, best_finite
    if inf_node is not None:
        return inf_node, inf_cursor, inf
    return None, None, incumbent


def _sequential_round(cursor, candidates, incumbent):
    """One uncapped cursor evaluation per candidate.

    No search runs it: it is the reference the equivalence tests swap in
    for :func:`_batched_round`, which must pick the same node every round.
    """
    trials = []
    for node in candidates:
        trial = cursor.with_added(node)
        trials.append((trial, trial.diameter()))
    return _select_round(candidates, trials, incumbent)


def _batched_round(cursor, candidates, incumbent):
    """Batched evaluation with incumbent-cap pruning.

    Phase 1 evaluates every candidate in one batch capped at the incumbent
    diameter: candidates proven unable to matter at this cap abort their
    BFS lanes early, and finite results are exact.  Phase 2 re-evaluates
    only the survivors (``inf`` at the cap: disconnected, or better than
    the incumbent) uncapped, again as one batch.  Every candidate therefore
    ends up with its *exact* uncapped diameter — a capped ``inf`` is either
    a true ``inf`` or a finite value strictly above the cap, and every
    value at or below the cap is returned exactly — so feeding the merged
    results through the shared selection rule provably reproduces the
    sequential choice (same first-max finite candidate, same first
    disconnecting candidate, byte-identical fault sets).

    The cap is only applied on the vectorised backend, where capped lanes
    abort as whole BFS levels.  The bitset loop gains nothing from a cap
    that most candidates sit below, and would pay twice for every capped
    survivor — so it batches uncapped (phase 2 then finds its answers
    already memoised).  Either way the selection sees the same exact
    values, so the choice of backend never changes the picked fault set.
    """
    inf = float("inf")
    cap = None if incumbent == inf else incumbent
    if cap is not None and cursor._index.eval_backend != EVAL_BACKEND_NUMPY:
        cap = None
    trials = cursor.batch_with_added(candidates, cap=cap)
    if cap is not None:
        survivors = [
            node
            for node, (_trial, value) in zip(candidates, trials)
            if value == inf
        ]
        if survivors:
            exact = dict(
                zip(survivors, cursor.batch_with_added(survivors, cap=None))
            )
            trials = [
                exact.get(node, trial)
                for node, trial in zip(candidates, trials)
            ]
    return _select_round(candidates, trials, incumbent)


def _check_candidate_limit(candidate_limit: int) -> None:
    """Refuse a round budget that would sample no candidate at all."""
    if candidate_limit < 1:
        raise ValueError("candidate_limit must be at least 1")


def _greedy_rounds(
    index,
    node_order: Sequence[Node],
    size: int,
    candidate_limit: int,
    rng: _random.Random,
) -> Set[Node]:
    """Run the greedy growth loop over an index; returns the fault set."""
    faults: Set[Node] = set()
    cursor = index.cursor(())
    incumbent = cursor.diameter()
    for _ in range(size):
        remaining = [node for node in node_order if node not in faults]
        if not remaining:
            break
        if len(remaining) > candidate_limit:
            candidates = rng.sample(remaining, candidate_limit)
        else:
            candidates = remaining
        chosen, chosen_cursor, incumbent = _batched_round(
            cursor, candidates, incumbent
        )
        if chosen is None:
            break
        cursor = chosen_cursor
        faults.add(chosen)
    return faults


def greedy_adversarial_fault_set(
    graph: Graph,
    routing: AnyRouting,
    size: int,
    candidate_limit: int = 40,
    seed: RandomLike = None,
    index=None,
) -> FaultSet:
    """Grow a fault set greedily, maximising the surviving diameter at each step.

    At every step the candidate nodes (a random subset of the non-faulty
    nodes, capped at ``candidate_limit`` for tractability) are evaluated by
    the surviving diameter they would produce if added; the best one is kept.
    A candidate with the largest *finite* diameter wins as long as it
    strictly improves on the incumbent diameter; when no finite candidate
    improves any more, a disconnecting candidate (infinite diameter) is
    preferred — for ``size`` above the connectivity, ``inf`` is the true
    worst case and the search must not settle for a finite plateau.

    This is a heuristic lower bound on the true worst case, useful for larger
    graphs where exhaustive enumeration is infeasible.  Candidates are
    evaluated through a delta-aware :class:`~repro.core.route_index
    .EvalCursor` over ``index`` (built here when not supplied): the cursor
    for the incumbent fault set is updated per candidate by touching only
    the rows indexed under that candidate, so the ``size * candidate_limit``
    prefix-sharing evaluations never rebuild the surviving graph from
    scratch.

    Each round is evaluated through
    :meth:`~repro.core.route_index.EvalCursor.batch_with_added` with
    incumbent-cap pruning — on the numpy backend the whole candidate round
    advances as one packed BFS tensor.  The picks are provably those of one
    uncapped evaluation per candidate, which the hypothesis equivalence
    suite enforces across backends, caps and seeds.
    """
    _check_candidate_limit(candidate_limit)
    rng = _rng(seed)
    if index is None:
        from repro.core.route_index import RouteIndex

        index = RouteIndex(graph, routing)
    faults = _greedy_rounds(index, list(graph.nodes()), size, candidate_limit, rng)
    return FaultSet(faults, description="greedy adversarial")


def greedy_fault_set_from_index(
    index,
    size: int,
    candidate_limit: int = 40,
    seed: RandomLike = None,
) -> FaultSet:
    """Greedy adversarial search driven by a :class:`RouteIndex` alone.

    Identical search to :func:`greedy_adversarial_fault_set` but drawing
    candidates from ``index.node_pool`` (the index's canonical sorted node
    pool) instead of a graph's insertion order — the entry point for engine
    and suite workers, whose slim indexes carry no graph object.  Because
    the pool and the shard seeds are deterministic, every worker grows the
    same fault set for the same ``(size, candidate_limit, seed)``.
    """
    _check_candidate_limit(candidate_limit)
    rng = _rng(seed)
    faults = _greedy_rounds(index, list(index.node_pool), size, candidate_limit, rng)
    return FaultSet(faults, description="greedy adversarial")


def combined_fault_sets(
    graph: Graph,
    routing: AnyRouting,
    size: int,
    concentrator: Sequence[Node] = (),
    random_count: int = 50,
    seed: RandomLike = None,
    include_greedy: bool = True,
    index=None,
    candidate_limit: int = 40,
) -> List[FaultSet]:
    """Return a deduplicated battery of fault sets mixing all strategies.

    This is the default adversary used by the benchmarks when exhaustive
    enumeration is too expensive: targeted sets, random sets, and one greedy
    adversarial set, all of exactly ``size`` faults (plus the empty set as a
    baseline).  ``candidate_limit`` tunes the greedy search (see
    :func:`greedy_adversarial_fault_set`).
    """
    battery: List[FaultSet] = [FaultSet((), description="no faults")]
    seen: Set[frozenset] = {frozenset()}

    def push(fault_set: FaultSet) -> None:
        key = fault_set.nodes()
        if key not in seen and len(key) <= size:
            seen.add(key)
            battery.append(fault_set)

    for fault_set in targeted_fault_sets(graph, size, concentrator, routing):
        push(fault_set)
    for fault_set in random_fault_sets(graph.nodes(), size, random_count, seed=seed):
        push(fault_set)
    if include_greedy and size > 0:
        push(
            greedy_adversarial_fault_set(
                graph,
                routing,
                size,
                candidate_limit=candidate_limit,
                seed=seed,
                index=index,
            )
        )
    return battery
