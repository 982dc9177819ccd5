"""The fault-campaign engine: indexed, sharded evaluation of fault batteries.

Every campaign, battery and sweep in the library reduces to the same loop —
"for each fault set, compute the surviving diameter" — and before this module
that loop re-walked every route of the routing for every fault set.
:class:`CampaignEngine` centralises the loop and makes it fast twice over:

* **incremental evaluation** — a
  :class:`~repro.core.route_index.RouteIndex` is built once per engine and
  every fault set is evaluated by subtracting its affected arcs from the
  cached base route graph instead of re-walking all ``n^2`` routes;
* **parallel batteries** — fault batteries are cut into fixed-size shards
  that a :mod:`multiprocessing` pool evaluates concurrently, streaming the
  outcomes back in battery order so aggregation is incremental (bounded
  memory) and byte-for-byte independent of the worker count.

Shards are the *seeding blocks* of a battery: ``chunk_size`` sets per
block, each drawn from its own seed.  Tasks — what one
``surviving_diameters`` call evaluates — group them: a pooled task is one
shard, so the pool balances its load shard by shard, while an in-process
task carries up to :data:`LOCAL_TASK_SHARDS` consecutive shards, so a
whole sweep battery reaches the numpy kernel at once and its lanes refill
as they settle.  Grouping changes no fault set and no value.

Determinism is a hard requirement: the same integer seed must produce the
same campaign rows whether the battery runs in-process or across N workers.
Two design rules enforce it:

1. sharding is a pure function of the battery and ``chunk_size`` — never of
   the worker count — and outcomes are aggregated in shard order;
2. randomly generated batteries use *per-shard seeding*: shard ``i`` of a
   campaign draws its fault sets from ``random.Random(shard_seed(seed, tag,
   i))``, so a worker can regenerate its shard locally from a tiny
   descriptor (no fault sets cross the process boundary on the way in) and
   the battery is identical no matter which worker runs which shard.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import random as _random
from typing import (
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.route_index import RouteIndex
from repro.core.routing import MultiRouting, Routing
from repro.faults.models import FaultSet
from repro.faults.simulation import (
    CampaignResult,
    DecisionCampaignResult,
    aggregate_decisions,
    aggregate_outcomes,
)
from repro.graphs.graph import Graph
from repro.runtime import Supervisor, SupervisorPolicy, chaos_point

Node = Hashable
AnyRouting = Union[Routing, MultiRouting]
RandomLike = Union[int, _random.Random, None]
Outcome = Tuple[FaultSet, float]
CampaignRow = Union[CampaignResult, DecisionCampaignResult]

#: Default number of fault sets per shard.  Sharding depends only on this
#: value and the battery, never on the worker count, so results are
#: reproducible across pool sizes.
DEFAULT_CHUNK_SIZE = 32

#: Consecutive shards per in-process task (256 sets at the default chunk
#: size): one ``surviving_diameters`` call covers a 200-set battery.
#: Pooled tasks stay one shard each.
LOCAL_TASK_SHARDS = 8


def shard_seed(seed: int, tag: str, shard: int) -> int:
    """Derive a stable 64-bit seed for one shard of a campaign.

    The derivation hashes ``(seed, tag, shard)`` with SHA-256 rather than
    Python's ``hash`` so it is identical across processes and interpreter
    runs (``hash`` is salted by ``PYTHONHASHSEED``).
    """
    digest = hashlib.sha256(f"{seed}:{tag}:{shard}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclasses.dataclass(frozen=True)
class _Shard:
    """One unit of worker work: explicit fault sets or a generative spec.

    ``fault_sets`` carries an explicit battery slice.  When it is ``None``
    the shard is *generative* and regenerated locally by whichever worker
    receives it:

    * with ``exhaustive_size`` set, the shard covers the combinations of
      that size with (deterministic) :func:`itertools.combinations` offsets
      ``start .. start + count`` over the ``repr``-sorted node pool;
    * otherwise it describes ``count`` random fault sets of size
      ``fault_size`` drawn from ``random.Random(seed)``, with global sample
      indices starting at ``start`` (used only for the descriptions).
    """

    fault_sets: Optional[Tuple[FaultSet, ...]] = None
    fault_size: int = 0
    count: int = 0
    start: int = 0
    seed: int = 0
    exhaustive_size: Optional[int] = None

    def materialise(self, pool: Union[Graph, Sequence[Node]]) -> Tuple[FaultSet, ...]:
        """Return the shard's fault sets, generating them when needed.

        ``pool`` is the canonical repr-sorted node pool (see
        :attr:`RouteIndex.node_pool`); passing the pool rather than the graph
        lets workers regenerate shards from the slim, graph-free index.  A
        :class:`Graph` is also accepted and sorted on the fly.
        """
        if self.fault_sets is not None:
            return self.fault_sets
        if isinstance(pool, Graph):
            pool = sorted(pool.nodes(), key=repr)
        if self.exhaustive_size is not None:
            return _battery_slice(
                pool, self.exhaustive_size, self.start, self.count, exhaustive=True
            )
        return _battery_slice(pool, self.fault_size, self.start, self.count, self.seed)


def _battery_slice(
    pool: Sequence[Node],
    fault_size: int,
    start: int,
    count: int,
    seed: int = 0,
    exhaustive: bool = False,
) -> Tuple[FaultSet, ...]:
    """Regenerate fault sets ``start .. start + count`` of a generative battery.

    The one generator behind engine shards and suite tasks, so a battery
    slice is the same wherever it is regenerated.  With ``exhaustive`` the
    slice is that range of :func:`itertools.combinations` of ``fault_size``
    over ``pool`` (described ``"exhaustive size k"``); otherwise it is
    ``count`` uniform random sets of ``fault_size`` drawn from
    ``random.Random(seed)``, described ``"random #i"`` by their global
    sample index ``i`` (none when ``fault_size`` exceeds the pool).
    """
    if exhaustive:
        return tuple(
            FaultSet(combo, description=f"exhaustive size {fault_size}")
            for combo in _combinations_slice(pool, fault_size, start, count)
        )
    if fault_size > len(pool):
        return ()
    rng = _random.Random(seed)
    return tuple(
        FaultSet(rng.sample(pool, fault_size), description=f"random #{start + offset}")
        for offset in range(count)
    )


def _combinations_slice(pool, size: int, start: int, count: int):
    """Yield ``itertools.combinations(pool, size)[start : start + count]``.

    The first combination is *unranked* directly (combinatorial number
    system, ``O(size * n)``) and successors are stepped lexicographically,
    so a shard deep into a large enumeration does not re-generate and skip
    every earlier combination the way ``islice`` would.
    """
    import math

    n = len(pool)
    if size < 0 or size > n or count <= 0:
        return
    if size == 0:
        if start == 0:
            yield ()
        return
    total = math.comb(n, size)
    if start >= total:
        return
    # Unrank the first combination in lexicographic order.
    indices: List[int] = []
    rank = start
    position = 0
    for remaining in range(size, 0, -1):
        while math.comb(n - position - 1, remaining - 1) <= rank:
            rank -= math.comb(n - position - 1, remaining - 1)
            position += 1
        indices.append(position)
        position += 1
    emitted = 0
    limit = min(count, total - start)
    while True:
        yield tuple(pool[i] for i in indices)
        emitted += 1
        if emitted >= limit:
            return
        # Lexicographic successor of the index combination.
        pivot = size - 1
        while indices[pivot] == n - size + pivot:
            pivot -= 1
        indices[pivot] += 1
        for follow in range(pivot + 1, size):
            indices[follow] = indices[follow - 1] + 1


# ----------------------------------------------------------------------
# Worker-process plumbing
# ----------------------------------------------------------------------
# The engine builds its RouteIndex once in the parent and ships the *slim*
# form of the pre-built index (bitset rows + kill masks + node labels, no
# graph or routing objects — see :meth:`RouteIndex.slim`) to each worker
# through the pool initializer.  Only shard descriptors and outcome rows
# cross the process boundary afterwards; shards regenerate their fault sets
# from the index's canonical node pool.
_WORKER_INDEX: Optional[RouteIndex] = None


def _init_worker(index: RouteIndex) -> None:
    global _WORKER_INDEX
    _WORKER_INDEX = index


def _evaluate_shards(
    task: Tuple[Tuple[_Shard, ...], Optional[float]],
    index: Optional[RouteIndex] = None,
) -> Tuple[List[FaultSet], List[float]]:
    """Evaluate one ``(shards, cap)`` task on ``index`` (the worker's by default).

    Returns the fault sets of the task's shards, in order, and their
    values.  ``cap=None`` yields exact surviving diameters.  With a cap, a
    value is the exact diameter when it is at most the cap and ``inf``
    otherwise, which is all either capped consumer needs: the early-exit
    scan treats any value strictly above the cap as a violation witness,
    and the streaming decision campaign folds it into a failed row.
    """
    shards, cap = task
    if index is None:
        index = _WORKER_INDEX
        assert index is not None, "worker pool was not initialised"
    fault_sets: List[FaultSet] = []
    for shard in shards:
        chaos_point("task", f"shard:start={shard.start},size={shard.fault_size}")
        fault_sets.extend(shard.materialise(index.node_pool))
    # One batched call per task: the numpy backend evaluates the whole
    # battery slice in one pass of vectorised level advances, and the
    # bitset backend degrades to the same per-set loop as before.
    return fault_sets, index.surviving_diameters(fault_sets, cap=cap)


def _blocks(items: Iterable, size: int) -> Iterator[tuple]:
    """Cut a stream into consecutive tuples of at most ``size``, lazily."""
    iterator = iter(items)
    while True:
        block = tuple(itertools.islice(iterator, size))
        if not block:
            return
        yield block


#: Shard dispatch is fail-fast: aggregates cannot tolerate holes (see
#: :class:`CampaignEngine`).
_STRICT = SupervisorPolicy(strict=True)


class CampaignEngine:
    """Indexed fault-campaign runner with an optional worker pool.

    Parameters
    ----------
    graph, routing:
        The network and routing under attack.
    workers:
        Number of worker processes.  ``1`` (the default) evaluates in-process
        with no :mod:`multiprocessing` involvement at all; any larger value
        shards batteries across a pool.  Results are identical either way.
    chunk_size:
        Fault sets per shard (streaming granularity).
    index:
        Optional pre-built :class:`RouteIndex` to reuse; must match
        ``(graph, routing)``.  Built lazily on first use otherwise.
    backend:
        ``"bitset"``, ``"numpy"`` or ``None`` (the default: the backend
        rule of :class:`RouteIndex` decides), forwarded to the lazily built
        index (ignored when a pre-built ``index`` is supplied — that index's
        backend wins).  The resolved name travels with the slim index to
        every worker and is stamped on every row.

    Every shard runs through one strict :class:`~repro.runtime.Supervisor`
    that the engine keeps for its lifetime, in-process or pooled: a shard
    that still fails after its retries raises
    :class:`~repro.runtime.TaskFailedError`, chained to the shard's own
    error, whatever the worker count.  A campaign aggregate with missing
    outcomes would be silently wrong, so shards are never quarantined (the
    suite layer quarantines whole campaigns instead).
    """

    def __init__(
        self,
        graph: Graph,
        routing: AnyRouting,
        workers: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        index: Optional[RouteIndex] = None,
        backend: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if index is not None and not index.matches(graph, routing):
            raise ValueError(
                "the supplied RouteIndex was built for a different graph or routing"
            )
        self.graph = graph
        self.routing = routing
        self.workers = workers
        self.chunk_size = chunk_size
        self._index = index
        self._backend = backend
        self._runner: Optional[Supervisor] = None

    # ------------------------------------------------------------------
    # Index access
    # ------------------------------------------------------------------
    @property
    def index(self) -> RouteIndex:
        """The engine's route index (built on first access)."""
        if self._index is None:
            self._index = RouteIndex(
                self.graph, self.routing, backend=self._backend
            )
        return self._index

    # ------------------------------------------------------------------
    # Shard construction and evaluation
    # ------------------------------------------------------------------
    def _explicit_shards(self, fault_sets: Iterable[FaultSet]) -> Iterator[_Shard]:
        for block in _blocks(fault_sets, self.chunk_size):
            yield _Shard(fault_sets=block)

    def _random_shards(
        self, fault_size: int, samples: int, seed: int, tag: str
    ) -> Iterator[_Shard]:
        for shard_index, start in enumerate(range(0, samples, self.chunk_size)):
            count = min(self.chunk_size, samples - start)
            yield _Shard(
                fault_size=fault_size,
                count=count,
                start=start,
                seed=shard_seed(seed, tag, shard_index),
            )

    def _exhaustive_shards(
        self, max_faults: int, include_smaller: bool = True
    ) -> Iterator[_Shard]:
        """Generative shards covering every fault set of size <= ``max_faults``.

        Shard boundaries are deterministic :func:`itertools.combinations`
        offsets over the ``repr``-sorted node pool — a pure function of the
        graph, ``max_faults`` and ``chunk_size`` — so workers regenerate
        their slice locally and the enumeration order matches
        :func:`repro.faults.adversary.all_fault_sets` exactly.
        """
        import math

        n = self.graph.number_of_nodes()
        sizes = range(0, max_faults + 1) if include_smaller else [max_faults]
        for size in sizes:
            total = math.comb(n, size)
            for start in range(0, total, self.chunk_size):
                yield _Shard(
                    exhaustive_size=size,
                    start=start,
                    count=min(self.chunk_size, total - start),
                )

    def _outcomes(
        self, shards: Iterable[_Shard], cap: Optional[float] = None
    ) -> Iterator[Outcome]:
        """Yield ``(fault_set, diameter)`` in battery order, capped at ``cap``.

        Consecutive shards are grouped into tasks: up to
        :data:`LOCAL_TASK_SHARDS` per task in-process, one per task on a
        pool.  The shards stay the seeding blocks, so the fault sets and
        their values do not depend on the grouping.

        The engine's supervisor is built on first use and kept: with
        ``workers > 1`` its pool — and with it the slim form of the index
        (bitset rows, kill masks and node labels; the graph and routing
        never cross the process boundary), built once in the parent and
        shipped through the pool initializer — serves every campaign of a
        sweep, so the sweep pays pool start-up and index shipping once.
        """
        if self._runner is None:
            index = self.index
            self._runner = Supervisor(
                _evaluate_shards,
                initializer=_init_worker,
                initargs=(index.slim(),),
                local_fn=functools.partial(_evaluate_shards, index=index),
                policy=_STRICT,
                workers=self.workers,
            )
        per_task = LOCAL_TASK_SHARDS if self.workers == 1 else 1
        for _task, (fault_sets, values) in self._runner.run(
            (group, cap) for group in _blocks(shards, per_task)
        ):
            yield from zip(fault_sets, values)

    def close(self) -> None:
        """Terminate the worker pool (no-op when none was started).

        The engine stays usable: its next pooled evaluation starts a fresh
        pool.
        """
        if self._runner is not None:
            self._runner.close()

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Public evaluation surface
    # ------------------------------------------------------------------
    def evaluate(self, fault_sets: Iterable[FaultSet]) -> Iterator[Outcome]:
        """Yield ``(fault_set, surviving_diameter)`` in battery order."""
        return self._outcomes(self._explicit_shards(fault_sets))

    def worst_case(self, fault_sets: Iterable[FaultSet]) -> Tuple[float, Optional[FaultSet], int]:
        """Return ``(worst_diameter, worst_fault_set, evaluated_count)``.

        Matches :func:`repro.core.tolerance.worst_case_diameter`: the first
        fault set realising the strict maximum wins, and ``inf`` dominates.
        """
        worst = -1.0
        worst_set: Optional[FaultSet] = None
        evaluated = 0
        for fault_set, diameter in self.evaluate(fault_sets):
            evaluated += 1
            if diameter > worst:
                worst = diameter
                worst_set = fault_set
        return worst, worst_set, evaluated

    # ------------------------------------------------------------------
    # Bounded-diameter decision scans
    # ------------------------------------------------------------------
    def _bounded_scan(
        self, shards: Iterable[_Shard], bound: float
    ) -> Tuple[float, Optional[FaultSet], int, bool]:
        """Early-exit scan: is every fault set's surviving diameter <= ``bound``?

        Returns ``(worst_diameter, worst_fault_set, evaluated, holds)``.
        Every fault set is evaluated with an eccentricity cap of ``bound``
        (each source's BFS is abandoned the moment it exceeds the cap), and
        the scan stops at the *first* violating fault set in battery order:
        on a violation ``worst_diameter`` is the exact diameter of that
        witness and ``evaluated`` counts the sets inspected up to and
        including it.  When the bound holds, every set was evaluated and
        ``worst_diameter`` is the exact battery-wide maximum.

        Shards stream through the supervisor's sliding window (a few shards
        per worker), so an early exit leaves at most one window of
        in-flight shards behind instead of the whole remaining enumeration;
        in-process, a violating scan evaluates at most one task (up to
        :data:`LOCAL_TASK_SHARDS` shards) past its witness, which batching
        the task into one kernel pass more than pays back.
        """
        worst = -1.0
        worst_set: Optional[FaultSet] = None
        evaluated = 0
        for fault_set, capped in self._outcomes(shards, cap=bound):
            evaluated += 1
            if capped > bound:
                return (
                    self.index.surviving_diameter(fault_set),
                    fault_set,
                    evaluated,
                    False,
                )
            if capped > worst:
                worst = capped
                worst_set = fault_set
        return worst, worst_set, evaluated, True

    def bounded_worst_case(
        self, fault_sets: Iterable[FaultSet], bound: float
    ) -> Tuple[float, Optional[FaultSet], int, bool]:
        """Early-exit battery scan against ``bound`` (see :meth:`_bounded_scan`)."""
        return self._bounded_scan(self._explicit_shards(fault_sets), bound)

    def exhaustive_worst_case(
        self, max_faults: int, bound: float, include_smaller: bool = True
    ) -> Tuple[float, Optional[FaultSet], int, bool]:
        """Early-exit exhaustive scan over all fault sets of size <= ``max_faults``.

        The enumeration streams through the engine's generative shards
        (deterministic :func:`itertools.combinations` offsets), so exhaustive
        tolerance checks shard across the worker pool exactly like random
        batteries do — no fault sets cross the process boundary on the way
        in.
        """
        return self._bounded_scan(
            self._exhaustive_shards(max_faults, include_smaller=include_smaller), bound
        )

    def profile(self, fault_sets: Iterable[FaultSet]) -> List[Outcome]:
        """Return ``(fault_set, surviving_diameter)`` rows for the battery."""
        return list(self.evaluate(fault_sets))

    # ------------------------------------------------------------------
    # Greedy adversarial search
    # ------------------------------------------------------------------
    def adversarial_worst_case(
        self,
        fault_size: int,
        candidate_limit: int = 40,
        seed: RandomLike = None,
        batched: bool = True,
    ) -> Tuple[float, FaultSet]:
        """Greedy adversarial fault set of ``fault_size`` and its diameter.

        Runs :func:`repro.faults.adversary.greedy_fault_set_from_index`
        over the engine's pre-built index: each greedy round evaluates its
        candidate batch through ``EvalCursor.batch_with_added`` with
        incumbent-cap pruning (one packed BFS tensor per round on the numpy
        backend).  Returns ``(surviving_diameter, fault_set)`` — a heuristic
        lower bound on the true worst case at this size.
        """
        from repro.faults.adversary import greedy_fault_set_from_index

        fault_set = greedy_fault_set_from_index(
            self.index,
            fault_size,
            candidate_limit=candidate_limit,
            seed=seed,
            batched=batched,
        )
        return self.index.surviving_diameter(fault_set.nodes()), fault_set

    def run_campaign(
        self,
        fault_size: int,
        samples: int = 100,
        seed: RandomLike = None,
        fault_sets: Optional[Iterable[FaultSet]] = None,
        bound: Optional[float] = None,
        frame=None,
        greedy: bool = False,
        candidate_limit: int = 40,
    ) -> CampaignRow:
        """Run one campaign at ``fault_size`` and aggregate the outcomes.

        With an integer (or ``None``) seed the battery is generated with
        per-shard seeding, so the result is independent of the worker count.
        Passing a :class:`random.Random` instance falls back to drawing the
        whole battery from that stream in the parent (sequential legacy
        semantics); explicit ``fault_sets`` are evaluated as given.

        With ``bound`` given the campaign streams *decisions* instead of
        exact diameters: every fault set is evaluated with an eccentricity
        cap of ``bound`` (``surviving_diameter_at_most`` semantics) and the
        aggregate is a :class:`~repro.faults.simulation
        .DecisionCampaignResult` of pass/fail rows — much cheaper than exact
        evaluation when diameters exceed the bound, and all a tolerance
        table needs.

        With ``greedy`` the battery additionally includes one greedy
        adversarial fault set of ``fault_size`` (candidate rounds capped at
        ``candidate_limit``, evaluated through the batched candidate layer;
        deterministically seeded from the campaign seed), so the aggregate's
        worst-case columns reflect an adversarial probe and not just random
        sampling.  The tunables are stamped onto the result record
        (``backend`` always; ``candidate_limit`` when the greedy probe ran).

        ``frame`` may name a :class:`~repro.results.frame.ResultFrame` built
        over the unified record schema; the campaign's record is appended to
        it (the returned view and the frame row are interconvertible).
        """
        greedy_seed: RandomLike = seed
        if fault_sets is not None:
            shards = self._explicit_shards(fault_sets)
        elif isinstance(seed, _random.Random):
            from repro.faults.adversary import random_fault_sets

            shards = self._explicit_shards(
                random_fault_sets(self.graph.nodes(), fault_size, samples, seed=seed)
            )
        else:
            base = seed if seed is not None else _random.SystemRandom().getrandbits(64)
            shards = self._random_shards(
                fault_size, samples, base, tag=f"size={fault_size}"
            )
            greedy_seed = shard_seed(base, f"greedy:size={fault_size}", 0)
        run_greedy = greedy and fault_size > 0
        if run_greedy:
            from repro.faults.adversary import greedy_fault_set_from_index

            greedy_set = greedy_fault_set_from_index(
                self.index,
                fault_size,
                candidate_limit=candidate_limit,
                seed=greedy_seed,
            )
            shards = itertools.chain(shards, self._explicit_shards([greedy_set]))
        strategy = self.index.preferred_strategy()
        if bound is not None:
            result: CampaignRow = aggregate_decisions(
                fault_size, bound, self._outcomes(shards, cap=bound)
            )
        else:
            result = aggregate_outcomes(fault_size, self._outcomes(shards))
        result.bfs_strategy = strategy
        result.eval_backend = self.index.backend
        result.candidate_limit = candidate_limit if run_greedy else None
        if frame is not None:
            frame.append(result.record())
        return result

    def sweep_fault_sizes(
        self,
        sizes: Sequence[int],
        samples: int = 50,
        seed: RandomLike = None,
        bound: Optional[float] = None,
        frame=None,
        greedy: bool = False,
        candidate_limit: int = 40,
    ) -> List[CampaignRow]:
        """Run one campaign per fault-set size and return the results in order.

        Integer seeds are re-derived per size with :func:`shard_seed`, so
        each size's battery is independent of the others (and of the worker
        count); a shared :class:`random.Random` instance is threaded through
        sequentially as before.  ``bound`` selects the streaming-decision
        path per campaign, and ``greedy``/``candidate_limit`` add a greedy
        adversarial probe per size (see :meth:`run_campaign`); ``frame``
        collects one unified record per campaign.
        """
        if isinstance(seed, _random.Random):
            return [
                self.run_campaign(
                    size,
                    samples=samples,
                    seed=seed,
                    bound=bound,
                    frame=frame,
                    greedy=greedy,
                    candidate_limit=candidate_limit,
                )
                for size in sizes
            ]
        base = seed if seed is not None else _random.SystemRandom().getrandbits(64)
        # The position enters the derivation so that a repeated size draws an
        # independent battery (doubling a size doubles the information).
        return [
            self.run_campaign(
                size,
                samples=samples,
                seed=shard_seed(base, f"sweep:{position}", size),
                bound=bound,
                frame=frame,
                greedy=greedy,
                candidate_limit=candidate_limit,
            )
            for position, size in enumerate(sizes)
        ]
