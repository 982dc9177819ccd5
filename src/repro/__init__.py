"""repro — fault-tolerant routings for general networks.

A production-quality reproduction of

    David Peleg and Barbara Simons,
    "On Fault Tolerant Routings in General Networks",
    PODC 1986 / Information and Computation 74:33-49 (1987).

The package is organised as follows:

* :mod:`repro.graphs`   — self-contained graph substrate (graphs, connectivity,
  disjoint paths, separators, structural properties, generators);
* :mod:`repro.core`     — the paper's constructions: kernel, circular,
  tri-circular and bipolar routings, multiroutings, network augmentation,
  surviving route graphs, ``(d, f)``-tolerance checking, and
  :class:`~repro.core.route_index.RouteIndex`, the bitset evaluation kernel
  (one big-int adjacency row per node) that turns each fault-set evaluation
  into machine-word ``&``/``|`` operations, answers bounded-diameter
  decisions (:func:`~repro.core.surviving.surviving_diameter_at_most`) with
  early exit, and serves delta-aware
  :class:`~repro.core.route_index.EvalCursor` snapshots for prefix-sharing
  fault-set searches;
* :mod:`repro.faults`   — fault models, adversarial fault-set search,
  Monte-Carlo fault-injection campaigns, and
  :class:`~repro.faults.engine.CampaignEngine`, the indexed campaign runner
  that shards fault batteries across a ``multiprocessing`` pool with
  deterministic per-shard seeding (same seed => same rows for any worker
  count) and streaming, bounded-memory aggregation;
* :mod:`repro.network`  — a small discrete-event message-passing simulator
  that runs the routings as a real network would (fixed source routes,
  endpoint services, route-counter broadcast for table recomputation);
* :mod:`repro.scenarios` — named, parameterised, seedable workload specs
  (``hypercube:d=7/kernel/t=3/random:p=0.1``) and the scenario-suite runner
  that shards campaigns across scenarios as well as within batteries,
  rebuilding each workload deterministically in the workers (fingerprints
  verified cross-process);
* :mod:`repro.results` — the unified columnar result store
  (:class:`~repro.results.frame.ResultFrame` + JSONL
  :class:`~repro.results.store.ResultStore` with run manifests): every
  campaign, suite and experiment emits the same typed records, grid sweeps
  resume from a stored prefix without recomputing completed rows, and the
  reporting layer renders paper-style scaling tables straight from a store;
* :mod:`repro.analysis` — experiment runners and report formatting used by
  the benchmark suite and the examples.

Quickstart::

    from repro import build_routing, surviving_diameter
    from repro.graphs import generators

    graph = generators.hypercube_graph(4)
    result = build_routing(graph)            # picks the strongest construction
    print(result.describe())
    print(surviving_diameter(graph, result.routing, faults={0, 3, 5}))

Campaigns at scale go through the engine (``repro grid`` on the command
line)::

    from repro import CampaignEngine

    engine = CampaignEngine(graph, result.routing, workers=4)
    for row in engine.sweep_fault_sizes([1, 2, 3], samples=200, seed=0):
        print(row.as_row())
"""

from repro.core import (
    ConstructionResult,
    Guarantee,
    MultiRouting,
    RouteIndex,
    Routing,
    ToleranceReport,
    bidirectional_bipolar_routing,
    build_routing,
    check_tolerance,
    circular_routing,
    clique_augmented_kernel_routing,
    full_multirouting,
    kernel_multirouting,
    kernel_routing,
    single_tree_multirouting,
    surviving_diameter,
    surviving_diameter_at_most,
    surviving_route_graph,
    tricircular_routing,
    unidirectional_bipolar_routing,
    verify_construction,
)
from repro.graphs import Graph, DiGraph
from repro.faults import CampaignEngine, CampaignResult, DecisionCampaignResult, FaultSet
from repro.results import ResultFrame, ResultStore, result_frame
from repro.scenarios import (
    Scenario,
    ScenarioGrid,
    parse_grid,
    parse_scenario,
    run_scenario_suite,
)

__version__ = "1.0.0"

__all__ = [
    "ConstructionResult",
    "Guarantee",
    "MultiRouting",
    "RouteIndex",
    "Routing",
    "ToleranceReport",
    "bidirectional_bipolar_routing",
    "build_routing",
    "check_tolerance",
    "circular_routing",
    "clique_augmented_kernel_routing",
    "full_multirouting",
    "kernel_multirouting",
    "kernel_routing",
    "single_tree_multirouting",
    "surviving_diameter",
    "surviving_diameter_at_most",
    "surviving_route_graph",
    "tricircular_routing",
    "unidirectional_bipolar_routing",
    "verify_construction",
    "Graph",
    "DiGraph",
    "CampaignEngine",
    "CampaignResult",
    "DecisionCampaignResult",
    "FaultSet",
    "ResultFrame",
    "ResultStore",
    "Scenario",
    "ScenarioGrid",
    "parse_grid",
    "parse_scenario",
    "result_frame",
    "run_scenario_suite",
    "__version__",
]
