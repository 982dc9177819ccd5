"""The shared experiment-record schema every result producer emits.

One row of the unified result store describes one *campaign aggregate*: a
battery of fault sets evaluated against one workload.  The same columns
cover all three historical result shapes —
:class:`~repro.faults.simulation.CampaignResult` (exact diameters),
:class:`~repro.faults.simulation.DecisionCampaignResult` (bounded pass/fail
decisions) and :class:`~repro.scenarios.suite.ScenarioRow` (a campaign plus
its scenario's construction metadata) — which are now thin views over these
records: each exposes ``record()`` / ``from_record()`` and round-trips
losslessly through a :class:`~repro.results.frame.ResultFrame` row and its
JSONL persistence.

Inapplicable columns are ``None`` (e.g. ``bound`` on an exact row, or
``scenario`` on a bare engine campaign); ``kind`` discriminates the view
class a record reconstructs into.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Tuple

from repro.results.frame import Column, ResultFrame

#: ``kind`` values a record may carry.  ``status`` rows describe campaigns
#: that produced no aggregate: ``disposition`` says why.  ``traffic`` rows
#: describe one workload run over the event-driven simulator (throughput /
#: latency / drop metrics instead of diameters).
RECORD_KINDS = ("exact", "decision", "status", "traffic")

#: ``disposition`` values a ``status`` record may carry: ``inapplicable``
#: (the scenario cannot be built under these parameters and was dropped
#: under ``--skip-inapplicable``) or ``failed`` (the campaign's task was
#: quarantined after exhausting its retry budget).
STATUS_DISPOSITIONS = ("inapplicable", "failed")

#: The unified experiment-record schema (one row per campaign aggregate).
RESULT_COLUMNS: Tuple[Column, ...] = (
    # Provenance: which layer produced the row.
    Column("source", "str"),      # "campaign" | "suite" | "experiment"
    Column("kind", "str"),        # "exact" | "decision" | "status"
    # Status rows only: why no aggregate exists, and the human-readable
    # reason (a build error or the final task failure).
    Column("disposition", "str"),  # "inapplicable" | "failed"
    Column("reason", "str"),
    # Workload identification (suite/grid rows; None on bare campaigns).
    Column("scenario", "str"),    # canonical scenario string
    Column("family", "str"),      # graph family name (scenario prefix)
    Column("strategy", "str"),    # routing strategy requested ("auto" incl.)
    Column("scheme", "str"),      # construction scheme actually built
    Column("n", "int"),           # nodes
    Column("m", "int"),           # edges
    Column("t", "int"),           # fault parameter of the construction
    Column("fingerprint", "str"),  # full routing fingerprint (64 hex chars)
    # Battery shape.
    Column("faults", "int"),      # nominal fault-set size (0 for random:p)
    Column("samples", "int"),     # fault sets evaluated
    # Realised fault-set sizes (differ from ``faults`` under random:p).
    Column("faults_min", "int"),
    Column("faults_mean", "float"),
    Column("faults_max", "int"),
    # Exact-campaign statistics.
    Column("mean_diam", "float"),
    Column("min_diam", "float"),
    Column("max_diam", "float"),
    Column("disconnected", "float"),
    # Bounded-decision statistics.
    Column("bound", "float"),
    Column("violations", "int"),
    Column("pass_rate", "float"),
    # Battery-wide worst outcome, comparable across kinds: the worst
    # surviving diameter observed, ``inf`` when any fault set disconnected
    # the surviving graph (exact) or violated the bound (decision).
    Column("worst_diam", "float"),
    # Evaluation metadata.
    Column("bfs", "str"),         # BFS strategy of the evaluating index
    # Adversary/evaluation tunables: the requested eval backend ("bitset" /
    # "numpy"; the same on hosts with and without numpy, whose evaluation
    # falls back to bitset), and the greedy adversary's candidate budget
    # when an adversarial probe was part of the battery.
    Column("backend", "str"),
    Column("candidate_limit", "int"),
    # Witness fault set (worst set / first violation), encoded with
    # :func:`repro.serialization.encode_node` per node.
    Column("worst_faults", "json"),
    # Traffic rows (kind="traffic"): one workload run over the event-driven
    # simulator.  ``workload`` is the canonical workload string;
    # ``duration`` the observed makespan in engine ticks; latencies are in
    # simulated time units and ``throughput`` delivered messages per unit.
    Column("workload", "str"),
    Column("duration", "int"),
    Column("injected", "int"),
    Column("delivered", "int"),
    Column("dropped", "int"),
    Column("throughput", "float"),
    Column("mean_latency", "float"),
    Column("p99_latency", "float"),
    Column("drop_rate", "float"),
    Column("max_queue_depth", "int"),
)


def result_frame(records: Iterable[Mapping[str, object]] = ()) -> ResultFrame:
    """Return a new :class:`ResultFrame` over the unified schema."""
    return ResultFrame.from_records(RESULT_COLUMNS, records)


def scenario_family(scenario: str) -> Optional[str]:
    """Extract the graph family name from a canonical scenario string."""
    if not scenario:
        return None
    graph_spec = scenario.split("/", 1)[0]
    return graph_spec.partition(":")[0] or None


def scenario_strategy(scenario: str) -> Optional[str]:
    """Extract the strategy segment from a canonical scenario string.

    Canonical strings always carry the strategy as their second segment
    (``family:args/strategy/...``); returns ``None`` for non-scenario
    strings that lack one.
    """
    if not scenario:
        return None
    segments = scenario.split("/")
    if len(segments) < 2:
        return None
    strategy = segments[1]
    if not strategy or "=" in strategy or ":" in strategy:
        return None
    return strategy


def effective_strategy(record: Mapping[str, object]) -> Optional[str]:
    """Return the strategy a record's row should be *compared* under.

    The ``strategy`` column keeps the requested segment (``auto``
    included) for provenance; comparison tables and the store's
    ``(family, n, strategy)`` index want the construction that actually
    ran, so ``auto`` — and records from stores predating the column —
    fall back to the built ``scheme``.
    """
    strategy = record.get("strategy")
    if strategy is None or strategy == "auto":
        scheme = record.get("scheme")
        return scheme if scheme is not None else strategy
    return strategy


def encode_fault_set(fault_set) -> Optional[list]:
    """Encode a fault set's nodes as a sorted JSON-compatible list."""
    if fault_set is None:
        return None
    from repro.serialization import encode_node

    return [encode_node(node) for node in sorted(fault_set, key=repr)]


def decode_fault_set(encoded, description: str = "restored from store"):
    """Rebuild a :class:`~repro.faults.models.FaultSet` from encoded nodes."""
    if encoded is None:
        return None
    from repro.faults.models import FaultSet
    from repro.serialization import decode_node

    return FaultSet((decode_node(item) for item in encoded), description=description)


def view_from_record(record: Mapping[str, object]):
    """Reconstruct the typed campaign view a record was emitted from.

    ``kind`` selects between :class:`~repro.faults.simulation.CampaignResult`
    (``"exact"``), :class:`~repro.faults.simulation.DecisionCampaignResult`
    (``"decision"``), :class:`~repro.faults.simulation.CampaignStatus`
    (``"status"`` — a campaign with no aggregate; see ``disposition``) and
    :class:`~repro.network.traffic.TrafficResult` (``"traffic"``).
    """
    from repro.faults.simulation import (
        CampaignResult,
        CampaignStatus,
        DecisionCampaignResult,
    )

    kind = record.get("kind")
    if kind == "traffic":
        from repro.network.traffic import TrafficResult

        return TrafficResult.from_record(record)
    if kind == "exact":
        return CampaignResult.from_record(record)
    if kind == "decision":
        return DecisionCampaignResult.from_record(record)
    if kind == "status":
        return CampaignStatus.from_record(record)
    raise ValueError(f"record kind {kind!r} is not one of {RECORD_KINDS}")
