"""(d, f)-tolerance checking: measuring worst-case surviving diameters.

A routing is ``(d, f)``-tolerant when every fault set of at most ``f`` nodes
leaves a surviving route graph of diameter at most ``d``.  This module turns
that definition into executable checks:

* :func:`check_tolerance` compares the worst surviving diameter over a
  battery of fault sets against a claimed bound;
* :func:`verify_construction` does the same for a
  :class:`~repro.core.construction.ConstructionResult` using the guarantee
  recorded by the construction, choosing between exhaustive enumeration and
  the combined adversarial battery automatically based on problem size.

Exhaustive enumeration is exact; the adversarial battery yields a certified
*lower bound* on the worst case together with an upper-bound check (any
violation found disproves the claimed guarantee; absence of violations over
the battery is strong — but not exhaustive — evidence).

Both paths run through the campaign engine's bounded-diameter decision scan:
fault sets are evaluated with the claimed bound as an eccentricity cap and
the scan short-circuits at the first violation, whose exact diameter becomes
the report's witness.  Exhaustive enumerations stream through the engine's
generative shards, so they parallelise like random batteries.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Iterable, Optional, Sequence, Union

from repro.core.construction import ConstructionResult
from repro.core.routing import MultiRouting, Routing
from repro.faults.adversary import combined_fault_sets, count_fault_sets
from repro.faults.models import FaultSet
from repro.graphs.graph import Graph

Node = Hashable
AnyRouting = Union[Routing, MultiRouting]


@dataclasses.dataclass
class ToleranceReport:
    """Outcome of a tolerance evaluation.

    Attributes
    ----------
    claimed_diameter, max_faults:
        The ``(d, f)`` bound that was checked.
    worst_diameter:
        The largest surviving diameter observed over the evaluated fault
        sets.  When the claimed bound is violated, the evaluation stops at
        the first violating fault set (the bounded-diameter decision path),
        so this is the exact diameter of that witness rather than the
        battery-wide maximum.
    worst_fault_set:
        A fault set realising ``worst_diameter``.
    evaluated:
        Number of fault sets evaluated (up to and including the violation
        witness when the bound is violated).
    exhaustive:
        ``True`` when the check enumerated every fault set of size at most
        ``max_faults`` (stopping early only on a violation), making a
        holding report a proof rather than evidence.
    """

    claimed_diameter: float
    max_faults: int
    worst_diameter: float
    worst_fault_set: Optional[FaultSet]
    evaluated: int
    exhaustive: bool

    @property
    def holds(self) -> bool:
        """``True`` when no evaluated fault set violated the claimed bound."""
        return self.worst_diameter <= self.claimed_diameter

    def __repr__(self) -> str:
        status = "holds" if self.holds else "VIOLATED"
        mode = "exhaustive" if self.exhaustive else "sampled"
        return (
            f"<ToleranceReport ({self.claimed_diameter}, {self.max_faults}) {status}: "
            f"worst={self.worst_diameter} over {self.evaluated} {mode} fault sets>"
        )


def check_tolerance(
    graph: Graph,
    routing: AnyRouting,
    diameter_bound: float,
    max_faults: int,
    fault_sets: Optional[Iterable[FaultSet]] = None,
    exhaustive_limit: int = 20000,
    concentrator: Sequence[Node] = (),
    seed: Optional[int] = 0,
    index=None,
    workers: int = 1,
    candidate_limit: int = 40,
) -> ToleranceReport:
    """Check whether ``routing`` is ``(diameter_bound, max_faults)``-tolerant.

    When ``fault_sets`` is omitted, exhaustive enumeration of every fault set
    of size at most ``max_faults`` is used if it stays below
    ``exhaustive_limit`` sets; otherwise the combined adversarial battery from
    :func:`repro.faults.adversary.combined_fault_sets` is used.

    Evaluation goes through the engine's bounded-diameter decision path:
    every fault set is checked with an eccentricity cap of
    ``diameter_bound`` (each source's BFS is abandoned the moment it exceeds
    the cap) and the scan stops at the first violating fault set, whose
    exact diameter is reported.  Exhaustive enumerations stream through the
    engine's generative shards (deterministic ``itertools.combinations``
    offsets), so they shard across the worker pool like random batteries do.
    ``index`` is reused when given (it also accelerates the greedy
    adversarial battery generation); with ``workers > 1`` the engine ships
    its pre-built index to the pool.  ``candidate_limit`` is the greedy
    adversary's per-round candidate budget (combined battery path only).
    """
    from repro.faults.engine import CampaignEngine

    engine = CampaignEngine(graph, routing, workers=workers, index=index)
    exhaustive = False
    if fault_sets is None:
        n = graph.number_of_nodes()
        if count_fault_sets(n, max_faults) <= exhaustive_limit:
            exhaustive = True
            worst, worst_set, evaluated, _holds = engine.exhaustive_worst_case(
                max_faults, diameter_bound
            )
            return ToleranceReport(
                claimed_diameter=diameter_bound,
                max_faults=max_faults,
                worst_diameter=worst,
                worst_fault_set=worst_set,
                evaluated=evaluated,
                exhaustive=exhaustive,
            )
        fault_sets = combined_fault_sets(
            graph,
            routing,
            max_faults,
            concentrator=concentrator,
            seed=seed,
            index=engine.index,
            candidate_limit=candidate_limit,
        )
    else:
        fault_sets = list(fault_sets)

    worst, worst_set, evaluated, _holds = engine.bounded_worst_case(
        fault_sets, diameter_bound
    )
    return ToleranceReport(
        claimed_diameter=diameter_bound,
        max_faults=max_faults,
        worst_diameter=worst,
        worst_fault_set=worst_set,
        evaluated=evaluated,
        exhaustive=exhaustive,
    )


def verify_construction(
    result: ConstructionResult,
    fault_sets: Optional[Iterable[FaultSet]] = None,
    exhaustive_limit: int = 20000,
    seed: Optional[int] = 0,
    workers: int = 1,
    candidate_limit: int = 40,
) -> ToleranceReport:
    """Check a construction against its own recorded guarantee.

    Uses the guarantee stored in ``result.guarantee`` (e.g. ``(4, t)`` for the
    tri-circular routing) and the construction's concentrator to aim the
    targeted fault sets at the right structures.  ``workers`` shards the
    battery evaluation across a process pool; ``candidate_limit`` tunes the
    greedy adversary inside the combined battery.
    """
    return check_tolerance(
        result.graph,
        result.routing,
        result.guarantee.diameter_bound,
        result.guarantee.max_faults,
        fault_sets=fault_sets,
        exhaustive_limit=exhaustive_limit,
        concentrator=result.concentrator,
        seed=seed,
        workers=workers,
        candidate_limit=candidate_limit,
    )
