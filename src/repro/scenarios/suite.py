"""Scenario-suite runner: sharded campaigns across whole workload families.

:func:`run_scenario_suite` turns a list of scenarios (canonical strings or
:class:`~repro.scenarios.spec.Scenario` values) into campaign rows — one row
per scenario and fault-set size.  Every battery runs through the battery
runner of :mod:`repro.faults.engine` — its shards, tasks, worker function
and campaign fold — and each scenario's
:class:`~repro.core.route_index.RouteIndex` evaluates on the backend its
rule picks (numpy for route graphs of 64 or more nodes, bitset below)
unless ``backend`` names one.  This module keeps what belongs to suites:
scenario builds, identity-hashed seeds, store resume, and
``inapplicable``/``failed`` status rows.

Sharding happens **across scenarios as well as within batteries**: the suite
is flattened into a deterministic list of campaigns, each cut into shard
tasks keyed by its canonical scenario string, and a single process pool
drains all of them, so a suite of many small scenarios parallelises exactly
as well as one giant battery.  Three design rules keep the rows
byte-identical for any worker count and any ``PYTHONHASHSEED``:

1. shards are a pure function of the scenario list, ``samples``, ``seed``
   and ``chunk_size`` — never of the worker count — and results are folded
   in task order; battery seeds hash each campaign's *identity* (canonical
   scenario string, occurrence, plan index), not its suite position, so the
   same scenario yields byte-identical rows in every suite that contains it
   (split runs merge losslessly via ``repro report store_a store_b``);
2. workers regenerate their battery slice locally from per-shard SHA-256
   seeds; the parent builds each scenario exactly once and broadcasts the
   slim route indexes through the pool initializer (one payload per worker
   process, as the engine's pools do), and in-process tasks read the same
   slim indexes — no process ever rebuilds a scenario;
3. every task, in-process or pooled, runs through one
   :class:`~repro.runtime.Supervisor`, whose retries recompute
   byte-identical outcomes, so recovery from a failed task or a dead
   worker never changes a row.  In-process, a task carries up to
   :data:`~repro.faults.engine.LOCAL_TASK_SHARDS` shards of one campaign,
   so the numpy kernel refills its lanes across a whole battery.

With ``bound`` given the suite runs *bounded-decision* campaigns: fault sets
are evaluated with an eccentricity cap (``surviving_diameter_at_most``
semantics) and rows report pass/fail statistics instead of exact diameters
— the cheap path for paper-style "does the guarantee hold at scale" tables.

With a ``store`` attached (a :class:`~repro.results.store.ResultStore`
opened against :func:`suite_manifest`), every finished campaign row is
persisted the moment it completes and already-recorded campaigns are
skipped on the next run — the substrate of resumable ``repro grid``
campaigns.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.builder import build_routing
from repro.core.route_index import RouteIndex
from repro.exceptions import ReproError
from repro.faults.adversary import _check_candidate_limit
from repro.faults.engine import (
    DEFAULT_CHUNK_SIZE,
    _battery_runner,
    _battery_shards,
    _battery_tasks,
    _fold_campaign,
    _Shard,
    shard_seed,
)
from repro.faults.simulation import (
    CampaignResult,
    CampaignStatus,
    DecisionCampaignResult,
)
from repro.runtime import FailedTask, SupervisorPolicy
from repro.scenarios.spec import Scenario, as_scenarios

CampaignRow = Union[CampaignResult, DecisionCampaignResult, CampaignStatus]


@dataclasses.dataclass
class ScenarioRow:
    """One suite row: a scenario, its construction metadata, and a campaign.

    Like the campaign views it wraps, a :class:`ScenarioRow` is a thin view
    over one unified result record (:mod:`repro.results.records`):
    :meth:`record` emits the row the suite persists through
    :class:`~repro.results.store.ResultStore`, and :meth:`from_record`
    reconstructs the view — which is how resumed grid campaigns rehydrate
    their completed rows without recomputing them.
    """

    scenario: str
    scheme: Optional[str]
    nodes: int
    edges: int
    t: int
    fingerprint: Optional[str]
    campaign: CampaignRow

    def as_row(self) -> Dict[str, object]:
        """Return a flat dict for table rendering / JSON persistence."""
        row: Dict[str, object] = {
            "scenario": self.scenario,
            "scheme": self.scheme,
            "n": self.nodes,
            "m": self.edges,
            "t": self.t,
        }
        row.update(self.campaign.as_row())
        if self.fingerprint is not None:
            row["fingerprint"] = self.fingerprint[:12]
        return row

    def record(self) -> Dict[str, object]:
        """Return the unified result record for this row."""
        from repro.results.records import scenario_family, scenario_strategy

        return self.campaign.record(
            source="suite",
            scenario=self.scenario,
            family=scenario_family(self.scenario),
            strategy=scenario_strategy(self.scenario),
            scheme=self.scheme,
            n=self.nodes,
            m=self.edges,
            t=self.t,
            fingerprint=self.fingerprint,
        )

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "ScenarioRow":
        """Rebuild the row (and its campaign view) from a stored record."""
        from repro.results.records import view_from_record

        return cls(
            scenario=record["scenario"],
            scheme=record["scheme"],
            nodes=record["n"],
            edges=record["m"],
            t=record["t"],
            fingerprint=record["fingerprint"],
            campaign=view_from_record(record),
        )


# ----------------------------------------------------------------------
# Campaign expansion
# ----------------------------------------------------------------------
def _campaign_plans(
    scenario: Scenario, samples: int, node_count: Optional[int] = None
) -> List[Tuple[str, int, float, int]]:
    """Return ``(shard kind, fault_size, p, total)`` per campaign of a scenario.

    ``node_count`` (needed only by exhaustive models, to size the
    enumeration) is taken from the caller when already known; otherwise the
    graph is built deterministically to read it.
    """
    model = scenario.faults
    if model.kind == "sizes":
        return [("random", size, 0.0, samples) for size in model.sizes]
    if model.kind == "random":
        return [("random-p", 0, model.p, samples)]
    n = (
        node_count
        if node_count is not None
        else scenario.build_graph().number_of_nodes()
    )
    return [
        ("exhaustive", size, 0.0, math.comb(n, size))
        for size in range(0, model.max_faults + 1)
    ]


def _expand_campaigns(
    scenarios: Sequence[Scenario],
    samples: int,
    seed: int,
    chunk_size: int,
    node_counts: Optional[Sequence[Optional[int]]] = None,
    skip: Iterable[Tuple[int, int]] = (),
    drop: Iterable[int] = (),
    greedy: bool = False,
    candidate_limit: int = 40,
) -> List[Tuple[Tuple[int, int], int, List[_Shard]]]:
    """Flatten the suite into its campaigns to evaluate, with their shards.

    Returns ``(campaign_key, fault_size, shards)`` per campaign in row
    order, where ``campaign_key = (scenario position, plan index)``.
    Shard seeds hash the campaign's *identity* — the canonical scenario
    string, its occurrence number (repeats of one spec in a suite) and the
    plan index — never the scenario's position in the suite.  Repeated
    scenarios and repeated fault sizes still draw independent batteries
    under one suite seed, while the same scenario produces byte-identical
    rows in *any* suite that contains it: a grid split across several
    runs/stores and merged back together yields exactly the rows of the
    combined run (the substrate of the strategy-comparison tables
    assembled with ``repro report a b``).

    With ``greedy`` set, every ``random`` (sizes-model) campaign of
    positive fault size ends with one ``"greedy"`` shard: a single
    adversarially-grown fault set of the same size, folded into the same
    row as an extra battery member.  Its seed rides the campaign's identity
    tag too, so greedy-augmented rows stay byte-identical across splits and
    resumes.

    Campaign keys in ``skip`` (already recorded in a resumed result store)
    and scenario positions in ``drop`` (constructions that do not apply
    under ``skip_inapplicable``) yield no campaign.  Because seeds depend
    only on identities, the remaining shards are exactly the ones the
    uninterrupted run would have evaluated.
    """
    skipped = set(skip)
    dropped = set(drop)
    occurrences: Dict[str, int] = {}
    campaigns: List[Tuple[Tuple[int, int], int, List[_Shard]]] = []
    for scenario_index, scenario in enumerate(scenarios):
        spec = scenario.canonical()
        occurrence = occurrences.get(spec, 0)
        occurrences[spec] = occurrence + 1
        if scenario_index in dropped:
            continue
        node_count = node_counts[scenario_index] if node_counts else None
        for plan_index, (kind, fault_size, p, total) in enumerate(
            _campaign_plans(scenario, samples, node_count)
        ):
            campaign_key = (scenario_index, plan_index)
            if campaign_key in skipped:
                continue
            tag = f"{spec}@{occurrence}#{plan_index}|{kind}|size={fault_size}"
            shards = list(
                _battery_shards(kind, fault_size, total, chunk_size, seed, tag, p)
            )
            if greedy and kind == "random" and fault_size > 0:
                # ``start=total`` keeps the probe's chaos label distinct
                # from every random shard of the campaign.
                shards.append(
                    _Shard(
                        kind="greedy",
                        fault_size=fault_size,
                        start=total,
                        seed=shard_seed(seed, tag + "|greedy", 0),
                        candidate_limit=candidate_limit,
                    )
                )
            campaigns.append((campaign_key, fault_size, shards))
    return campaigns


# ----------------------------------------------------------------------
# Store keys and manifests
# ----------------------------------------------------------------------
def campaign_row_keys(scenario: Scenario, occurrence: int = 0) -> List[str]:
    """Return a scenario's store row keys, one per campaign, in plan order.

    The key is a content address — the canonical scenario string plus the
    campaign's plan position — so it is identical across runs, which is what
    lets a resumed store recognise completed rows.  ``occurrence``
    disambiguates repeated scenarios within one suite (each repeat draws an
    independent battery and therefore records distinct rows).
    """
    model = scenario.faults
    if model.kind == "sizes":
        count = len(model.sizes)
    elif model.kind == "random":
        count = 1
    else:
        count = model.max_faults + 1
    spec = scenario.canonical()
    suffix = f"@{occurrence}" if occurrence else ""
    return [f"{spec}#{plan_index}{suffix}" for plan_index in range(count)]


def suite_row_keys(scenarios: Sequence[Scenario]) -> List[List[str]]:
    """Return the row keys of every scenario, disambiguating repeats."""
    occurrences: Dict[str, int] = {}
    keys: List[List[str]] = []
    for scenario in scenarios:
        spec = scenario.canonical()
        occurrence = occurrences.get(spec, 0)
        occurrences[spec] = occurrence + 1
        keys.append(campaign_row_keys(scenario, occurrence))
    return keys


def suite_manifest(
    scenarios: Iterable[Union[str, Scenario]],
    samples: int,
    seed: int,
    bound: Optional[float] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    greedy: bool = False,
    candidate_limit: int = 40,
) -> Dict[str, object]:
    """Return the result-store run manifest for a suite invocation.

    Two invocations produce the same rows iff they share this manifest,
    which is exactly the condition :meth:`~repro.results.store.ResultStore
    .open` enforces before resuming.  The greedy-probe parameters are part
    of the manifest because a greedy-augmented battery folds one extra
    fault set into every sizes-model row — resuming a non-greedy store
    under ``greedy`` (or with a different candidate budget) would change
    rows already recorded.
    """
    return {
        "experiment": "scenario-suite",
        "scenarios": [s.canonical() for s in as_scenarios(scenarios)],
        "samples": samples,
        "seed": seed,
        "bound": bound,
        "chunk_size": chunk_size,
        "greedy": greedy,
        "candidate_limit": candidate_limit if greedy else None,
    }


# ----------------------------------------------------------------------
# The suite entry point
# ----------------------------------------------------------------------
def run_scenario_suite(
    scenarios: Iterable[Union[str, Scenario]],
    samples: int = 50,
    seed: int = 0,
    bound: Optional[float] = None,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    store=None,
    skip_inapplicable: Union[bool, Iterable[Union[str, int]]] = False,
    skipped: Optional[List[Tuple[Scenario, str]]] = None,
    backend: Optional[str] = None,
    policy: Optional[SupervisorPolicy] = None,
    greedy: bool = False,
    candidate_limit: int = 40,
) -> List[ScenarioRow]:
    """Run campaigns for every scenario and return one row per campaign.

    Parameters
    ----------
    scenarios:
        Canonical scenario strings and/or :class:`Scenario` values.
    samples:
        Battery size per campaign for the sampled fault models (``sizes`` /
        ``random:p``); ``exhaustive:f`` ignores it.
    seed:
        Suite seed.  Rows are byte-identical for any worker count and any
        ``PYTHONHASHSEED`` given the same seed.
    bound:
        Optional diameter bound: campaigns then stream bounded *decisions*
        (pass/fail per fault set) instead of exact diameters.
    workers:
        Worker processes.  ``1`` evaluates in-process; larger values drain
        the flattened task list — all scenarios, all batteries — through one
        pool, so cross-scenario parallelism comes for free.  Either way the
        parent builds each scenario once, and the pool's workers receive
        the slim route indexes through the pool initializer.
    chunk_size:
        Fault sets per shard (also the streaming granularity).
    store:
        Optional :class:`~repro.results.store.ResultStore` opened with the
        matching :func:`suite_manifest`.  Every finished campaign row is
        appended to it the moment its last shard folds, and campaigns whose
        keys the store already records are **not recomputed**: their rows
        are rehydrated from the stored records, scenarios with no work left
        are not even rebuilt, and the returned row list is identical to an
        uninterrupted run's.
    skip_inapplicable:
        Drop scenarios whose construction does not apply to their graph
        (e.g. ``circular`` on a hypercube too small for its neighbourhood
        set) instead of raising.  ``True`` makes every scenario eligible;
        an iterable restricts dropping to its members — canonical scenario
        strings, or suite positions (ints) when the same scenario string
        must be treated differently per occurrence (so one suite can mix
        strategy-axis scenarios, which skip, with explicitly requested
        ones, which still fail loudly).  Dropped
        scenarios contribute no campaign rows; with a store attached each
        of their campaign keys records an ``inapplicable`` status row
        (see ``skipped`` below), and because construction is
        deterministic a resumed run drops exactly the same scenarios, so
        stores stay byte-exact.  This is how
        strategy-axis grids sweep ``kernel|circular`` across families
        where not every strategy applies everywhere.  Graph construction
        itself is never forgiven: a malformed graph axis raises
        regardless.
    backend:
        ``"bitset"``, ``"numpy"`` or ``None`` (the default: the backend
        rule of :class:`~repro.core.route_index.RouteIndex` decides per
        scenario).  Every row's ``backend`` column records the backend its
        scenario's index resolved to.
    skipped:
        Optional list the suite appends ``(scenario, reason)`` pairs to for
        every scenario dropped under ``skip_inapplicable`` (in suite
        order), so callers can surface what the table will not show.  With
        a store attached the drop is also recorded: every campaign key of a
        dropped scenario gets a ``kind="status"`` row with
        ``disposition="inapplicable"``, so reports can annotate "not
        applicable" (status row) vs "not run" (no row at all) — and a
        resumed run re-drops from the stored rows without rebuilding the
        scenario.
    policy:
        Optional :class:`~repro.runtime.SupervisorPolicy` of the
        :class:`~repro.runtime.Supervisor` every task runs under: per-task
        wall-clock timeout, retry budget and ``strict``.  Tasks are pure
        functions of their descriptors (seeds travel inside them), so
        retries recompute byte-identical outcomes — a recovered run's store
        equals an undisturbed run's.  A campaign whose task exhausts the
        retry budget is **quarantined**: recorded as a
        ``disposition="failed"`` status row (and returned as such) instead
        of aborting the sweep.  ``policy.strict`` restores fail-fast.
    greedy, candidate_limit:
        With ``greedy`` set, every sizes-model campaign of positive fault
        size additionally evaluates one adversarially-grown fault set of
        the same size (the batched greedy search of
        :func:`~repro.faults.adversary.greedy_fault_set_from_index`, with
        ``candidate_limit`` candidates per round), folded into the same
        row as an extra battery member — so ``worst_diam`` reflects a
        sampled *and* adversarial battery.  Rows then carry the candidate
        budget in their ``candidate_limit`` column.  The store manifest
        records both parameters: a greedy store and a non-greedy store
        hold different rows and never resume one another.

    Raises
    ------
    RuntimeError
        If a resumed store's rows were recorded against a different routing
        than the one this run builds.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    if greedy:
        _check_candidate_limit(candidate_limit)
    scenario_list = as_scenarios(scenarios)
    if not scenario_list:
        return []
    # Resume bookkeeping: a campaign is complete when its content-addressed
    # key is already recorded in the store.  Stored ``inapplicable`` status
    # rows instead classify their whole scenario as dropped-by-record: the
    # resumed run honours the stored decision without rebuilding the
    # scenario (and without consulting ``skip_inapplicable`` again).
    # Stored ``failed`` rows count as completed — a quarantined campaign is
    # never silently retried; delete the store to re-run it.
    keys = suite_row_keys(scenario_list)
    completed: set = set()
    stored_dropped: Dict[int, str] = {}
    if store is not None:
        for scenario_index, scenario_keys in enumerate(keys):
            for plan_index, key in enumerate(scenario_keys):
                if key not in store:
                    continue
                record = store.get(key)
                if (
                    record.get("kind") == "status"
                    and record.get("disposition") == "inapplicable"
                ):
                    stored_dropped[scenario_index] = record.get("reason") or ""
                else:
                    completed.add((scenario_index, plan_index))

    # Parent-side builds: each scenario is built once, into its row
    # metadata and its slim index.  Scenarios whose campaigns are all
    # already stored are skipped outright — resuming a finished scenario
    # costs no construction at all.  Only the row metadata and the *slim*
    # index outlive the loop: no graph, routing or full index is held for
    # the whole run.
    if isinstance(skip_inapplicable, bool):
        may_skip = (
            set(range(len(scenario_list))) if skip_inapplicable else set()
        )
    else:
        may_skip = set(skip_inapplicable)

    # built[i]: row metadata without a campaign; indexes: the slim index
    # of each built scenario, keyed by its canonical string.
    built: Dict[int, ScenarioRow] = {}
    indexes: Dict[str, RouteIndex] = {}
    dropped: Dict[int, str] = {}

    def _record_inapplicable(
        scenario_index: int,
        scenario: Scenario,
        reason: str,
        nodes: int,
        edges: int,
    ) -> None:
        """Append an ``inapplicable`` status row per missing campaign key.

        Appends happen here, in build-loop scenario order and before any
        campaign row is dispatched, so an uninterrupted store and a resumed
        one lay out identical bytes (a resumed run appends only the keys a
        crash left missing, in the same order).
        """
        if store is None:
            return
        for plan_index, (_kind, fault_size, _p, _total) in enumerate(
            _campaign_plans(scenario, samples, nodes)
        ):
            key = keys[scenario_index][plan_index]
            if key in store:
                continue
            row = ScenarioRow(
                scenario=scenario.canonical(),
                scheme=None,
                nodes=nodes,
                edges=edges,
                t=scenario.t,
                fingerprint=None,
                campaign=CampaignStatus(
                    disposition="inapplicable",
                    reason=reason,
                    fault_size=fault_size,
                ),
            )
            store.append(key, row.record())

    for scenario_index, scenario in enumerate(scenario_list):
        if scenario_index in stored_dropped:
            # The store already ruled this scenario inapplicable; honour
            # the record without rebuilding (a crash may have interrupted
            # the status appends mid-scenario, so complete them).
            reason = stored_dropped[scenario_index]
            dropped[scenario_index] = reason
            if skipped is not None:
                skipped.append((scenario, reason))
            first = store.get(keys[scenario_index][0])
            _record_inapplicable(
                scenario_index,
                scenario,
                reason,
                first.get("n") or 0,
                first.get("m") or 0,
            )
            continue
        if all(
            (scenario_index, plan_index) in completed
            for plan_index in range(len(keys[scenario_index]))
        ):
            continue
        # Graph construction stays outside the applicability guard: a bad
        # graph axis (e.g. cycle:n=2) is a malformed grid and must fail the
        # run, not be mislabelled "strategy not applicable" and dropped.
        graph = scenario.build_graph()
        try:
            result = build_routing(graph, strategy=scenario.strategy, t=scenario.t)
        except (ReproError, ValueError) as exc:
            # ValueError covers substrate-level refusals such as "complete
            # graphs have no separating set" (as build_routing's auto mode).
            if (
                scenario_index not in may_skip
                and scenario.canonical() not in may_skip
            ):
                raise
            dropped[scenario_index] = str(exc)
            if skipped is not None:
                skipped.append((scenario, str(exc)))
            _record_inapplicable(
                scenario_index,
                scenario,
                str(exc),
                graph.number_of_nodes(),
                graph.number_of_edges(),
            )
            continue
        spec = scenario.canonical()
        indexes[spec] = RouteIndex(graph, result.routing, backend=backend).slim()
        built[scenario_index] = ScenarioRow(
            scenario=spec,
            scheme=result.scheme,
            nodes=graph.number_of_nodes(),
            edges=graph.number_of_edges(),
            t=result.t,
            fingerprint=result.fingerprint(),
            campaign=None,
        )

    # A partially-complete scenario is rebuilt for its remaining campaigns;
    # its stored rows must have been recorded against the same routing.
    if store is not None:
        for scenario_index, plan_index in sorted(completed):
            if scenario_index not in built:
                continue
            stored = store.get(keys[scenario_index][plan_index])
            reference = built[scenario_index].fingerprint
            if stored.get("fingerprint") != reference:
                raise RuntimeError(
                    f"stored row {keys[scenario_index][plan_index]!r} was "
                    f"recorded against fingerprint "
                    f"{str(stored.get('fingerprint'))[:12]}... but this run "
                    f"built {reference[:12]}...; the store belongs to a "
                    "different construction"
                )

    # Node counts feed exhaustive-model plan sizing: from the fresh build
    # when there is one, otherwise from the stored rows.
    node_counts: List[Optional[int]] = []
    for scenario_index in range(len(scenario_list)):
        if scenario_index in built:
            node_counts.append(built[scenario_index].nodes)
        elif (
            scenario_index not in dropped
            and store is not None
            and keys[scenario_index]
        ):
            node_counts.append(store.get(keys[scenario_index][0]).get("n"))
        else:
            node_counts.append(None)

    campaigns = _expand_campaigns(
        scenario_list,
        samples,
        seed,
        chunk_size,
        node_counts=node_counts,
        skip=completed,
        drop=dropped,
        greedy=greedy,
        candidate_limit=candidate_limit,
    )
    # One task stream for the whole suite, so the pool drains every
    # campaign through one window.  A campaign's tasks are contiguous: its
    # row is folded, and persisted when a store is attached, as soon as its
    # last task is in, keeping the store valid for resumption at every
    # instant of the run.
    campaign_tasks = [
        list(_battery_tasks(built[key[0]].scenario, shards, bound, workers))
        for key, _fault_size, shards in campaigns
    ]
    computed: Dict[Tuple[int, int], ScenarioRow] = {}
    with _battery_runner(indexes, workers, policy) as runner:
        results = runner.run([task for tasks in campaign_tasks for task in tasks])
        for (campaign_key, fault_size, shards), tasks in zip(campaigns, campaign_tasks):
            metadata = built[campaign_key[0]]
            outcomes: List = []
            failures: List[str] = []
            for _task, result in itertools.islice(results, len(tasks)):
                if isinstance(result, FailedTask):
                    failures.append(result.reason)
                else:
                    fault_sets, values = result
                    outcomes.extend(zip(fault_sets, values))
            if failures:
                # One failed task quarantines its whole campaign: the
                # aggregate would be incomplete either way.  The first
                # failure's reason is the one recorded, and the row keeps
                # the real construction metadata — the scenario built
                # fine; only its evaluation failed.
                campaign: CampaignRow = CampaignStatus(
                    disposition="failed", reason=failures[0], fault_size=fault_size
                )
            else:
                campaign = _fold_campaign(
                    fault_size,
                    outcomes,
                    indexes[metadata.scenario],
                    bound,
                    candidate_limit
                    if any(shard.kind == "greedy" for shard in shards)
                    else None,
                )
            row = dataclasses.replace(metadata, campaign=campaign)
            computed[campaign_key] = row
            if store is not None:
                store.append(keys[campaign_key[0]][campaign_key[1]], row.record())

    # Assemble the rows in campaign order: stored rows for completed
    # campaigns, freshly computed rows for the rest.
    rows: List[ScenarioRow] = []
    for scenario_index, scenario_keys in enumerate(keys):
        if scenario_index in dropped:
            continue
        for plan_index, key in enumerate(scenario_keys):
            if (scenario_index, plan_index) in completed:
                rows.append(ScenarioRow.from_record(store.get(key)))
            else:
                rows.append(computed[(scenario_index, plan_index)])
    return rows
