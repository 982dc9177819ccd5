"""Fault-campaign results and the folds that produce them.

While the theorems are worst-case statements, a systems designer also cares
about the *typical* surviving diameter under random failures.  This module
holds a campaign's result views — :class:`CampaignResult` (exact
diameters), :class:`DecisionCampaignResult` (pass/fail against a bound) and
:class:`CampaignStatus` (a campaign with no aggregate) — and the streaming
folds that summarise a battery into them (mean / max diameter, fraction of
disconnecting fault sets, realised fault-set sizes).

Campaigns run through :class:`repro.faults.engine.CampaignEngine` in code
and ``repro grid`` on the command line: batteries are evaluated through a
precomputed :class:`~repro.core.route_index.RouteIndex` (bitset subtraction
and level-mask BFS instead of re-walking every route) and can be sharded
across worker processes with ``workers=N`` — the pre-built index ships to
the pool, and the aggregated rows are identical for any worker count.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional, Tuple

from repro.faults.models import FaultSet


@dataclasses.dataclass
class CampaignResult:
    """Aggregated outcome of a fault-injection campaign at one fault-set size.

    A thin view over one unified result record (see
    :mod:`repro.results.records`): :meth:`record` emits the row this view
    summarises and :meth:`from_record` reconstructs the view losslessly, so
    campaigns persist through :class:`~repro.results.store.ResultStore`
    without a shape of their own.
    """

    fault_size: int
    samples: int
    mean_diameter: float
    max_diameter: float
    min_diameter: float
    disconnected_fraction: float
    worst_fault_set: Optional[FaultSet] = None
    #: BFS strategy the evaluating index picks on the fault-free rows
    #: ("batched" / "per-source"); recorded by the engine so sweep tables can
    #: correlate throughput with the strategy actually exercised.
    bfs_strategy: Optional[str] = None
    #: Realised fault-set sizes across the battery.  These equal
    #: ``fault_size`` for fixed-size batteries but carry the real
    #: distribution for variable-size fault models (``random:p``, explicit
    #: batteries), whose nominal ``fault_size`` is 0.
    faults_min: Optional[int] = None
    faults_mean: Optional[float] = None
    faults_max: Optional[int] = None
    #: Requested evaluation backend ("bitset" / "numpy") — what the caller
    #: asked for, not what a numpy-less host fell back to, so a row never
    #: depends on the writing host — and the greedy adversary's candidate
    #: budget when a greedy probe was part of the battery (``None``
    #: otherwise): the adversary tunables, recorded so stored rows carry
    #: their evaluation provenance.
    eval_backend: Optional[str] = None
    candidate_limit: Optional[int] = None

    @property
    def variable_fault_sizes(self) -> bool:
        """``True`` when the battery's realised sizes differ from the nominal."""
        return (
            self.faults_min is not None
            and self.faults_max is not None
            and (
                self.faults_min != self.faults_max
                or self.faults_max != self.fault_size
            )
        )

    def as_row(self) -> Dict[str, object]:
        """Return the result as a flat dict (one table row)."""
        row: Dict[str, object] = {
            "faults": self.fault_size,
            "samples": self.samples,
            "mean_diam": round(self.mean_diameter, 3),
            "max_diam": self.max_diameter,
            "min_diam": self.min_diameter,
            "disconnected": round(self.disconnected_fraction, 3),
        }
        if self.variable_fault_sizes:
            # random:p batteries have no meaningful nominal size; show the
            # realised min..max and the mean instead of a misleading 0.
            row["faults"] = f"{self.faults_min}..{self.faults_max}"
            row["mean_faults"] = round(self.faults_mean, 2)
        if self.bfs_strategy is not None:
            row["bfs"] = self.bfs_strategy
        return row

    def record(self, **extra: object) -> Dict[str, object]:
        """Return the unified result record this view summarises."""
        from repro.results.records import encode_fault_set

        record: Dict[str, object] = {
            "source": "campaign",
            "kind": "exact",
            "faults": self.fault_size,
            "samples": self.samples,
            "faults_min": self.faults_min,
            "faults_mean": self.faults_mean,
            "faults_max": self.faults_max,
            "mean_diam": self.mean_diameter,
            "min_diam": self.min_diameter,
            "max_diam": self.max_diameter,
            "disconnected": self.disconnected_fraction,
            "worst_diam": (
                float("inf")
                if self.disconnected_fraction > 0
                else self.max_diameter
            ),
            "bfs": self.bfs_strategy,
            "backend": self.eval_backend,
            "candidate_limit": self.candidate_limit,
            "worst_faults": encode_fault_set(self.worst_fault_set),
        }
        record.update(extra)
        return record

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "CampaignResult":
        """Rebuild the view from a unified result record."""
        from repro.results.records import decode_fault_set

        return cls(
            fault_size=record["faults"],
            samples=record["samples"],
            mean_diameter=record["mean_diam"],
            max_diameter=record["max_diam"],
            min_diameter=record["min_diam"],
            disconnected_fraction=record["disconnected"],
            worst_fault_set=decode_fault_set(
                record.get("worst_faults"), description="worst (from store)"
            ),
            bfs_strategy=record.get("bfs"),
            faults_min=record.get("faults_min"),
            faults_mean=record.get("faults_mean"),
            faults_max=record.get("faults_max"),
            eval_backend=record.get("backend"),
            candidate_limit=record.get("candidate_limit"),
        )


@dataclasses.dataclass
class DecisionCampaignResult:
    """Aggregated pass/fail outcome of a *bounded-decision* campaign.

    Produced by a campaign with a bound (``CampaignEngine.run_campaign(
    bound=...)``, or ``repro grid --bound``): every fault set of the battery
    is evaluated with an eccentricity cap of ``bound`` (the
    ``surviving_diameter_at_most`` decision) instead of an exact diameter, so
    the campaign only learns — and only pays for — which side of the bound
    each set falls on.  ``worst_diameter`` is the battery-wide maximum of the
    *capped* outcomes: exact while the bound holds, ``inf`` as soon as any
    set violates it.
    """

    fault_size: int
    samples: int
    bound: float
    violations: int
    worst_diameter: float
    first_violation: Optional[FaultSet] = None
    bfs_strategy: Optional[str] = None
    #: Realised fault-set sizes across the battery (see
    #: :attr:`CampaignResult.faults_min`).
    faults_min: Optional[int] = None
    faults_mean: Optional[float] = None
    faults_max: Optional[int] = None
    #: Adversary tunables (see :attr:`CampaignResult.eval_backend`).
    eval_backend: Optional[str] = None
    candidate_limit: Optional[int] = None

    @property
    def holds(self) -> bool:
        """``True`` when every evaluated fault set respected the bound."""
        return self.violations == 0

    @property
    def pass_fraction(self) -> float:
        """Fraction of fault sets whose surviving diameter was <= ``bound``."""
        if self.samples == 0:
            return 0.0
        return (self.samples - self.violations) / self.samples

    @property
    def variable_fault_sizes(self) -> bool:
        """``True`` when the battery's realised sizes differ from the nominal."""
        return (
            self.faults_min is not None
            and self.faults_max is not None
            and (
                self.faults_min != self.faults_max
                or self.faults_max != self.fault_size
            )
        )

    def as_row(self) -> Dict[str, object]:
        """Return the result as a flat dict (one table row)."""
        row: Dict[str, object] = {
            "faults": self.fault_size,
            "samples": self.samples,
            "bound": self.bound,
            "holds": "yes" if self.holds else "NO",
            "pass": round(self.pass_fraction, 3),
            "violations": self.violations,
        }
        if self.variable_fault_sizes:
            row["faults"] = f"{self.faults_min}..{self.faults_max}"
            row["mean_faults"] = round(self.faults_mean, 2)
        if self.bfs_strategy is not None:
            row["bfs"] = self.bfs_strategy
        return row

    def record(self, **extra: object) -> Dict[str, object]:
        """Return the unified result record this view summarises."""
        from repro.results.records import encode_fault_set

        record: Dict[str, object] = {
            "source": "campaign",
            "kind": "decision",
            "faults": self.fault_size,
            "samples": self.samples,
            "faults_min": self.faults_min,
            "faults_mean": self.faults_mean,
            "faults_max": self.faults_max,
            "bound": self.bound,
            "violations": self.violations,
            "pass_rate": self.pass_fraction,
            "worst_diam": self.worst_diameter,
            "bfs": self.bfs_strategy,
            "backend": self.eval_backend,
            "candidate_limit": self.candidate_limit,
            "worst_faults": encode_fault_set(self.first_violation),
        }
        record.update(extra)
        return record

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "DecisionCampaignResult":
        """Rebuild the view from a unified result record."""
        from repro.results.records import decode_fault_set

        return cls(
            fault_size=record["faults"],
            samples=record["samples"],
            bound=record["bound"],
            violations=record["violations"],
            worst_diameter=record["worst_diam"],
            first_violation=decode_fault_set(
                record.get("worst_faults"),
                description="first violation (from store)",
            ),
            bfs_strategy=record.get("bfs"),
            faults_min=record.get("faults_min"),
            faults_mean=record.get("faults_mean"),
            faults_max=record.get("faults_max"),
            eval_backend=record.get("backend"),
            candidate_limit=record.get("candidate_limit"),
        )


@dataclasses.dataclass
class CampaignStatus:
    """A campaign that produced no aggregate, and why.

    Recorded as a ``kind="status"`` row so sweeps distinguish *not
    applicable* (the scenario cannot exist under these parameters and was
    dropped under ``--skip-inapplicable``), *failed* (the campaign's task
    exhausted its retry budget and was quarantined by the supervisor) and
    plain *not run* (no row at all).  ``holds`` is ``False`` so status rows
    never count as satisfied bounds, but they carry no statistics —
    reports annotate the corresponding cells instead of aggregating them.
    """

    disposition: str
    reason: str
    fault_size: int = 0
    samples: int = 0

    @property
    def holds(self) -> bool:
        """A campaign with no aggregate never certifies a bound."""
        return False

    def as_row(self) -> Dict[str, object]:
        """Return the status as a flat dict (one table row)."""
        return {
            "faults": self.fault_size,
            "samples": self.samples,
            "status": self.disposition,
            "reason": self.reason,
        }

    def record(self, **extra: object) -> Dict[str, object]:
        """Return the unified result record this view summarises."""
        record: Dict[str, object] = {
            "source": "suite",
            "kind": "status",
            "disposition": self.disposition,
            "reason": self.reason,
            "faults": self.fault_size,
            "samples": self.samples,
        }
        record.update(extra)
        return record

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "CampaignStatus":
        """Rebuild the view from a unified result record."""
        return cls(
            disposition=record["disposition"],
            reason=record.get("reason") or "",
            fault_size=record.get("faults") or 0,
            samples=record.get("samples") or 0,
        )


def aggregate_outcomes(
    fault_size: int, outcomes: Iterable[Tuple[FaultSet, float]]
) -> CampaignResult:
    """Fold a stream of ``(fault_set, diameter)`` outcomes into a result.

    The stream is consumed incrementally (bounded memory for arbitrarily
    large batteries): finite diameters fold into a count, a running sum, a
    minimum and a maximum.  Diameters are hop counts, so the sum is exact
    and the mean equals :func:`statistics.fmean` of the finite diameters.
    ``worst_fault_set`` is the first fault set realising the strict maximum
    diameter, with a *disconnecting* fault set (``inf`` diameter) dominating
    every finite one — a campaign that observed a disconnection always
    reports a disconnecting set as its worst.
    """
    finite = 0
    finite_total = 0
    finite_min = finite_max = float("inf")
    disconnected = 0
    evaluated = 0
    worst: Optional[FaultSet] = None
    worst_diameter = float("-inf")
    size_min: Optional[int] = None
    size_max: Optional[int] = None
    size_total = 0
    for fault_set, diam in outcomes:
        evaluated += 1
        realised = len(fault_set)
        size_min = realised if size_min is None else min(size_min, realised)
        size_max = realised if size_max is None else max(size_max, realised)
        size_total += realised
        if diam == float("inf"):
            disconnected += 1
        else:
            if not finite:
                finite_min = finite_max = diam
            elif diam < finite_min:
                finite_min = diam
            elif diam > finite_max:
                finite_max = diam
            finite += 1
            finite_total += diam
        if worst is None or diam > worst_diameter:
            worst_diameter = diam
            worst = fault_set
    if evaluated == 0:
        raise ValueError("no fault sets to evaluate")

    return CampaignResult(
        fault_size=fault_size,
        samples=evaluated,
        mean_diameter=finite_total / finite if finite else float("inf"),
        max_diameter=finite_max,
        min_diameter=finite_min,
        disconnected_fraction=disconnected / evaluated,
        worst_fault_set=worst,
        faults_min=size_min,
        faults_mean=size_total / evaluated,
        faults_max=size_max,
    )


def aggregate_decisions(
    fault_size: int, bound: float, outcomes: Iterable[Tuple[FaultSet, float]]
) -> DecisionCampaignResult:
    """Fold a stream of *capped* outcomes into a decision-campaign result.

    Each outcome is ``(fault_set, capped_diameter)`` where the diameter was
    evaluated with an eccentricity cap of ``bound`` — exact when at most the
    bound, ``inf`` otherwise — so the fold only ever compares against the
    bound.  The stream is consumed incrementally (bounded memory) and
    ``first_violation`` records the first fault set in battery order whose
    surviving diameter exceeded the bound.
    """
    evaluated = 0
    violations = 0
    worst = float("-inf")
    first_violation: Optional[FaultSet] = None
    size_min: Optional[int] = None
    size_max: Optional[int] = None
    size_total = 0
    for fault_set, capped in outcomes:
        evaluated += 1
        realised = len(fault_set)
        size_min = realised if size_min is None else min(size_min, realised)
        size_max = realised if size_max is None else max(size_max, realised)
        size_total += realised
        if capped > bound:
            violations += 1
            if first_violation is None:
                first_violation = fault_set
        if capped > worst:
            worst = capped
    if evaluated == 0:
        raise ValueError("no fault sets to evaluate")
    return DecisionCampaignResult(
        fault_size=fault_size,
        samples=evaluated,
        bound=bound,
        violations=violations,
        worst_diameter=worst,
        first_violation=first_violation,
        faults_min=size_min,
        faults_mean=size_total / evaluated,
        faults_max=size_max,
    )
