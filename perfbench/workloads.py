"""The benchmark's three workloads: sweep-sparse, certify-dense, serve-traffic.

Each workload builds its routing in :meth:`setup` (the timed set-up), turns
``(seed, pass number)`` into one pass's inputs in :meth:`inputs`, runs one
timed pass in :meth:`run_pass` (timing its phases with the ``clock`` it is
given, which leaves out the host-speed sampling) and checks that pass's outputs against the
naive oracle in :meth:`check`; input generation and checks run outside the
timed windows.  Every pass draws fresh inputs from the seed, so a run's
median pass is a median over many input draws rather than one.

Every call into the library goes through a layer's public API with its
default arguments (no ``backend=``, ``density_threshold=`` or
``cursor_lru=``), wrapped in a tracer span named after the layer.  See
``DESIGN.md`` next to this file for why each workload exists and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import render_scaling_report
from repro.core.route_index import RouteIndex
from repro.core.surviving import route_survives, surviving_diameter
from repro.faults import CampaignEngine, FaultSet, shard_seed
from repro.network.links import LinkSpec
from repro.network.traffic import FaultEvent, Workload, run_traffic
from repro.results import ResultStore
from repro.scenarios import parse_scenario
from repro.scenarios.suite import ScenarioRow
from repro.serving import ServingEngine, compile_routing_artifact, load_artifact

Check = Tuple[int, int, List[str]]


def derive_seed(seed: int, label: str) -> int:
    """A stable 64-bit seed for one input stream of a run."""
    digest = hashlib.sha256(f"perfbench:{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def _build(tracer, spec: str):
    """Parse a scenario and build its graph and routing (one span)."""
    scenario = parse_scenario(spec)
    with tracer.span("core.build_routing"):
        graph, result = scenario.build()
    return scenario, graph, result


def _shape(graph, result, index) -> Dict[str, object]:
    """Provenance: size, fault parameter, arcs per node, resolved tunables."""
    n = graph.number_of_nodes()
    return {
        "n": n,
        "t": result.t,
        "degree": 2 * graph.number_of_edges() / n,
        "route_arcs_per_node": len(result.routing) / n,
        "eval_backend": index.eval_backend,
        "bfs_strategy": index.preferred_strategy(),
    }


class SweepSparse:
    """Beyond-tolerance degradation sweep through ``sweep_fault_sizes``.

    Random batteries on two sparse kernel routings, past their tolerance
    ``t``; the rows go to a fresh ``ResultStore`` which is reloaded and
    rendered as the paper's scaling report.
    """

    name = "sweep-sparse"
    specs = (
        "cycle:n=120/kernel/sizes:4,5,6,7,8",
        "circulant:n=96,offsets=1+2/kernel/sizes:5,6,7,8,9,10",
    )
    samples = 200
    ops_label = "fault sets evaluated per second of sweep_fault_sizes"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tracer, workdir: str):
        built = []
        for spec in self.specs:
            scenario, graph, result = _build(tracer, spec)
            with tracer.span("core.route_index_build"):
                index = RouteIndex(graph, result.routing)
            built.append((scenario, graph, result, CampaignEngine(graph, result.routing, index=index)))
        return built

    def setup_counts(self, state) -> Dict[str, float]:
        return {"core.routes": sum(len(result.routing) for _s, _g, result, _e in state)}

    def provenance(self, state) -> Dict[str, object]:
        return {
            scenario.canonical(): dict(
                _shape(graph, result, engine.index), fault_sizes=list(scenario.faults.sizes)
            )
            for scenario, graph, result, engine in state
        }

    def inputs(self, state, number: int):
        return [
            derive_seed(self.seed, f"sweep:{scenario.canonical()}:{number}")
            for scenario, *_ in state
        ]

    def run_pass(self, state, battery_seeds, tracer, workdir: str, clock):
        path = os.path.join(workdir, "sweep.jsonl")
        manifest = {
            "experiment": "perfbench-sweep",
            "scenarios": [scenario.canonical() for scenario, *_ in state],
            "samples": self.samples,
            "seeds": battery_seeds,
        }
        rows = []
        battery_s = 0.0
        with tracer.span("results.create"):
            store = ResultStore.create(path, manifest)
        for (scenario, graph, result, engine), battery_seed in zip(state, battery_seeds):
            start = clock()
            with tracer.span("faults.battery"):
                campaigns = engine.sweep_fault_sizes(
                    scenario.faults.sizes, samples=self.samples, seed=battery_seed
                )
            battery_s += clock() - start
            for campaign in campaigns:
                row = ScenarioRow(
                    scenario=scenario.canonical(),
                    scheme=result.scheme,
                    nodes=graph.number_of_nodes(),
                    edges=graph.number_of_edges(),
                    t=result.t,
                    fingerprint=result.fingerprint(),
                    campaign=campaign,
                )
                with tracer.span("results.append"):
                    store.append(f"{scenario.canonical()}#size={campaign.fault_size}", row.record())
                rows.append((scenario.canonical(), campaign))
        store.close()
        with tracer.span("results.load"):
            loaded = ResultStore.load(path)
        with tracer.span("analysis.report"):
            report = render_scaling_report(loaded.frame, loaded.run)
        store_bytes = os.path.getsize(path)
        os.remove(path)
        return {
            "rows": rows,
            "records": len(loaded),
            "store_bytes": store_bytes,
            "report": report,
            "ops": sum(campaign.samples for _spec, campaign in rows),
            "ops_s": battery_s,
        }

    def check(self, state, battery_seeds, output) -> Check:
        """Each row's statistics agree with the naive oracle on its own sets.

        The oracle evaluates the row's worst fault set, whose diameter must
        be ``max_diameter`` for a row with no disconnection and ``inf``
        otherwise (a disconnecting fault set is always reported as worst),
        and a sample of the fault sets the battery drew (see
        :meth:`battery_sample`).  The engine must give each sampled set the
        oracle's diameter, every finite one must lie in
        ``[min_diameter, max_diameter]``, and the sampled disconnecting and
        connected sets must fit in the row's disconnected and connected
        counts.
        """
        problems: List[str] = []
        expected = [
            (scenario.canonical(), size, graph, result, engine, fault_sets)
            for (scenario, graph, result, engine), battery_seed in zip(state, battery_seeds)
            for size, fault_sets in zip(
                scenario.faults.sizes, self.battery_sample(scenario, engine, battery_seed)
            )
        ]
        for (spec, size, graph, result, engine, fault_sets), (row_spec, campaign) in zip(
            expected, output["rows"]
        ):
            worst = campaign.worst_fault_set.nodes()
            disconnected = round(campaign.disconnected_fraction * campaign.samples)
            sampled = [surviving_diameter(graph, result.routing, nodes) for nodes in fault_sets]
            evaluated = [value for _set, value in engine.evaluate(map(FaultSet, fault_sets))]
            finite = [value for value in sampled if value != math.inf]
            if not (
                row_spec == spec
                and evaluated == sampled
                and campaign.fault_size == size == len(worst)
                and campaign.samples == self.samples
                and surviving_diameter(graph, result.routing, worst)
                == (math.inf if disconnected else campaign.max_diameter)
                and len(sampled) - len(finite) <= disconnected
                and len(finite) <= campaign.samples - disconnected
                and all(
                    campaign.min_diameter <= value <= campaign.max_diameter for value in finite
                )
                and (
                    disconnected == campaign.samples
                    or campaign.min_diameter <= campaign.mean_diameter <= campaign.max_diameter
                )
            ):
                problems.append(f"{spec} size {size}")
        if (
            len(output["rows"]) != len(expected)
            or output["records"] != len(expected)
            or "# Scaling report" not in output["report"]
        ):
            problems.append("store or report mismatch")
        return len(output["rows"]) + 1, len(problems), problems

    def battery_sample(self, scenario, engine, battery_seed: int) -> List[List[list]]:
        """The first fault set of every shard of each size's battery.

        The sets are regenerated with the engine's documented per-shard
        seeding: ``sweep_fault_sizes`` derives each size's seed from its
        position and size, and shard ``i`` of that size's battery draws its
        sets from ``random.Random(shard_seed(size_seed, "size=<size>", i))``
        over the index's node pool.  So they are sets the sweep evaluated.
        """
        pool = engine.index.node_pool
        shards = math.ceil(self.samples / engine.chunk_size)
        sample = []
        for position, size in enumerate(scenario.faults.sizes):
            size_seed = shard_seed(battery_seed, f"sweep:{position}", size)
            sample.append(
                [
                    random.Random(shard_seed(size_seed, f"size={size}", shard)).sample(pool, size)
                    for shard in range(shards)
                ]
            )
        return sample

    def layer_counts(self, output) -> Dict[str, float]:
        return {
            "faults.battery_sets": output["ops"],
            "results.records": output["records"],
            "results.store_bytes": output["store_bytes"],
        }


class CertifyDense:
    """Exact Theorem 4 certification plus greedy probes on a dense routing."""

    name = "certify-dense"
    spec = "circulant:n=96,offsets=1+2+3/kernel/exhaustive:f=2"
    probe_sizes = (3, 4, 5)
    ops_label = "fault sets certified per second of exhaustive_worst_case"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tracer, workdir: str):
        scenario, graph, result = _build(tracer, self.spec)
        with tracer.span("core.route_index_build"):
            index = RouteIndex(graph, result.routing)
        return scenario, graph, result, CampaignEngine(graph, result.routing, index=index)

    def setup_counts(self, state) -> Dict[str, float]:
        return {"core.routes": len(state[2].routing)}

    def provenance(self, state) -> Dict[str, object]:
        scenario, graph, result, engine = state
        shape = _shape(graph, result, engine.index)
        shape["fault_sizes"] = [f"<= {result.t // 2} (exhaustive)"] + list(self.probe_sizes)
        return {scenario.canonical(): shape}

    def inputs(self, state, number: int):
        return [derive_seed(self.seed, f"greedy:{size}:{number}") for size in self.probe_sizes]

    def run_pass(self, state, probe_seeds, tracer, workdir: str, clock):
        _scenario, _graph, result, engine = state
        start = clock()
        with tracer.span("faults.certify"):
            certificate = engine.exhaustive_worst_case(result.t // 2, 4)
        certify_s = clock() - start
        probes = []
        for size, probe_seed in zip(self.probe_sizes, probe_seeds):
            with tracer.span("faults.greedy"):
                probes.append(engine.adversarial_worst_case(size, seed=probe_seed))
        return {
            "certificate": certificate,
            "probes": probes,
            "ops": certificate[2],
            "ops_s": certify_s,
        }

    def check(self, state, probe_seeds, output) -> Check:
        """Theorem 4 holds exactly; probes stay within Theorem 3's bound.

        The certification must cover every fault set of size at most
        ``floor(t/2)``; its worst case and every probe must equal the oracle.
        """
        _scenario, graph, result, _engine = state
        n, t = graph.number_of_nodes(), result.t
        expected = sum(math.comb(n, k) for k in range(t // 2 + 1))
        theorem3 = max(2 * t, 4)
        problems: List[str] = []
        worst, worst_set, evaluated, holds = output["certificate"]
        if not (
            holds
            and worst <= 4
            and evaluated == expected
            and worst == surviving_diameter(graph, result.routing, worst_set.nodes())
        ):
            problems.append(
                f"certification worst={worst} evaluated={evaluated} "
                f"(expected {expected}) holds={holds}"
            )
        for size, (diameter, fault_set) in zip(self.probe_sizes, output["probes"]):
            if not (
                diameter <= theorem3
                and len(fault_set.nodes()) == size
                and diameter == surviving_diameter(graph, result.routing, fault_set.nodes())
            ):
                problems.append(f"greedy probe size {size} -> {diameter}")
        return 1 + len(output["probes"]), len(problems), problems

    def layer_counts(self, output) -> Dict[str, float]:
        return {
            "faults.certify_sets": output["ops"],
            "faults.greedy_probes": len(output["probes"]),
        }


class ServeTraffic:
    """Compiled-artifact serving under fault churn, then a traffic replay."""

    name = "serve-traffic"
    spec = "circulant:n=96,offsets=1+2/kernel/sizes:1,2,3"
    #: Churn events per pass: eight-event episodes of one jump and seven flaps.
    events = 1200
    batch = 4096
    batch_sets = 8
    checked_events = 12
    checked_pairs = 64
    traffic = Workload(kind="hotspot", messages=3000, duration=600, hotspots=3, hot_fraction=0.5)
    link = LinkSpec(capacity=1, buffer=16)
    ops_label = "churn events (update, diameter, batch) per second of serving"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tracer, workdir: str):
        scenario, graph, result = _build(tracer, self.spec)
        path = os.path.join(workdir, "serve.repart")
        with tracer.span("serving.compile"):
            artifact = compile_routing_artifact(graph, result.routing, scheme=result.scheme)
        with tracer.span("serving.save"):
            artifact.save(path)
        with tracer.span("serving.load"):
            loaded = load_artifact(path, expect_fingerprint=artifact.fingerprint)
        size = os.path.getsize(path)
        os.remove(path)
        return {
            "scenario": scenario,
            "graph": graph,
            "result": result,
            "artifact": loaded,
            "artifact_bytes": size,
        }

    def setup_counts(self, state) -> Dict[str, float]:
        return {
            "core.routes": len(state["result"].routing),
            "serving.artifact_bytes": state["artifact_bytes"],
        }

    def provenance(self, state) -> Dict[str, object]:
        shape = _shape(state["graph"], state["result"], state["artifact"].to_index())
        shape["fault_sizes"] = f"1..{state['result'].t} (churn)"
        return {state["scenario"].canonical(): shape}

    def inputs(self, state, number: int):
        """Churn episodes, query batches, sampled events and traffic faults."""
        rng = random.Random(derive_seed(self.seed, f"serve:{number}"))
        nodes = state["artifact"].nodes
        n = len(nodes)
        events = []
        while len(events) < self.events:
            # One episode: jump to a fresh two-fault state, then flap a third
            # node and the two old faults.  Flaps land on cached cursors, the
            # jump and the new states miss, so every episode has the same mix.
            a, b, c = (nodes[nid] for nid in rng.sample(range(n), 3))
            events += [
                ("set", (a, b)),
                ("fail", c),
                ("restore", c),
                ("fail", c),
                ("restore", a),
                ("fail", a),
                ("restore", b),
                ("restore", c),
            ]
        del events[self.events :]
        batches = [
            (
                np.asarray([rng.randrange(n) for _ in range(self.batch)], dtype=np.int64),
                np.asarray([rng.randrange(n) for _ in range(self.batch)], dtype=np.int64),
            )
            for _ in range(self.batch_sets)
        ]
        duration = self.traffic.duration
        first, second = rng.sample(nodes, 2)
        return {
            "events": events,
            "batches": batches,
            "checked": frozenset(rng.sample(range(self.events), self.checked_events)),
            "traffic_seed": rng.randrange(1 << 31),
            "faults": (
                FaultEvent(duration // 4, "fail", first),
                FaultEvent(duration // 2, "fail", second),
                FaultEvent(duration // 2, "repair", first),
                FaultEvent(3 * duration // 4, "repair", second),
            ),
            "pair_seed": rng.randrange(1 << 31),
        }

    def run_pass(self, state, inputs, tracer, workdir: str, clock):
        batches = inputs["batches"]
        checked = inputs["checked"]
        with tracer.span("serving.engine"):
            engine = ServingEngine(state["artifact"])
        latencies: List[float] = []
        samples = []
        serve_start = clock()
        for position, (action, node) in enumerate(inputs["events"]):
            sources, targets = batches[position % len(batches)]
            start = clock()
            with tracer.span("serving.update"):
                if action == "fail":
                    engine.fail(node)
                elif action == "restore":
                    engine.restore(node)
                else:
                    engine.set_faults(node)
            with tracer.span("serving.diameter"):
                diameter = engine.surviving_diameter()
            with tracer.span("serving.batch"):
                hops = engine.batch_next_hop_ids(sources, targets)
            latencies.append(clock() - start)
            if position in checked:
                samples.append((position, engine.faults, diameter, hops))
        serve_s = clock() - serve_start
        stats = engine.stats()
        traffic_start = clock()
        with tracer.span("network.traffic"):
            traffic = run_traffic(
                state["graph"],
                state["result"].routing,
                self.traffic,
                seed=inputs["traffic_seed"],
                link=self.link,
                faults=inputs["faults"],
            )
        return {
            "latencies": latencies,
            "samples": samples,
            "stats": stats,
            "traffic": traffic,
            "traffic_rate": traffic.injected / (clock() - traffic_start),
            "ops": len(latencies),
            "ops_s": serve_s,
        }

    def check(self, state, inputs, output) -> Check:
        """Sampled hops and diameters match the oracle; traffic conserves messages.

        Every sampled event's diameter is recomputed with the naive oracle,
        and ``checked_pairs`` of its batch answers must agree with
        ``route_survives`` on the artifact's route (which must be the
        routing's route).
        """
        graph, routing = state["graph"], state["result"].routing
        artifact = state["artifact"]
        problems: List[str] = []
        pair_rng = random.Random(inputs["pair_seed"])
        for position, faults, diameter, hops in output["samples"]:
            fault_set = frozenset(faults)
            good = diameter == surviving_diameter(graph, routing, fault_set)
            sources, targets = inputs["batches"][position % len(inputs["batches"])]
            for slot in pair_rng.sample(range(self.batch), self.checked_pairs):
                sid, tid = int(sources[slot]), int(targets[slot])
                ids = artifact.route_ids(sid, tid)
                route = tuple(artifact.nodes[i] for i in ids)
                original = routing.get_route(artifact.nodes[sid], artifact.nodes[tid])
                survives = len(route) > 1 and route_survives(route, fault_set)
                if route != tuple(original or ()) or int(hops[slot]) != (
                    ids[1] if survives else -1
                ):
                    good = False
            if not good:
                problems.append(f"event {position} faults {sorted(map(repr, faults))}")
        traffic = output["traffic"]
        receipts = traffic.receipts or []
        if not (
            traffic.injected == traffic.delivered + traffic.dropped
            and len(receipts) == traffic.injected
            and sum(1 for receipt in receipts if receipt.delivered) == traffic.delivered
            and traffic.delivered > 0
        ):
            problems.append(
                f"traffic injected={traffic.injected} delivered={traffic.delivered} "
                f"dropped={traffic.dropped}"
            )
        return len(output["samples"]) + 1, len(problems), problems

    def layer_counts(self, output) -> Dict[str, float]:
        stats = output["stats"]
        hits, misses = stats["cursor_lru_hits"], stats["cursor_lru_misses"]
        return {
            "serving.queries": stats["queries"],
            "serving.lru_hit_ratio": hits / (hits + misses),
            "network.messages": output["traffic"].injected,
            "network.delivered": output["traffic"].delivered,
        }


WORKLOADS = {cls.name: cls for cls in (SweepSparse, CertifyDense, ServeTraffic)}
