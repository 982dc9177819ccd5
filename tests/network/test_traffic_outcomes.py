"""Exact outcomes of capacity-limited traffic, pinned to a golden digest.

``test_legacy_parity.py`` pins the engine only where nothing queues
(unlimited capacity).  This module pins it where everything does: two
hotspot workloads over ``circulant:n=48,offsets=1+2/kernel`` through
capacity-limited links under timed fault schedules.  For each one,
``tests/golden/traffic_outcomes.txt`` holds the engine's event count and
makespan, the number of receipts per failure family, and SHA-256 digests
of:

* every receipt, in completion order: delivered flag, routes used, hops,
  latency ticks, failure reason, trace and last attached route;
* every node's counters and application inbox, in graph order;
* every link's counters, sorted by edge (so the set of links that carried
  traffic is pinned too);
* the persisted traffic record.

Message ids are process-global, so ids inside failure reasons are
rewritten relative to the run's first message.  Regenerate the golden file
only for a change that means to alter outcomes::

    PYTHONPATH=src python tests/network/test_traffic_outcomes.py \\
        > tests/golden/traffic_outcomes.txt

``tests/golden/traffic_capacity.jsonl`` is the result store of one
capacity-limited ``repro traffic`` run (the command in :data:`CLI_ARGS`,
with ``--store FILE``), and ``tests/golden/traffic_null.jsonl`` that of one
null-model run under a fail/repair pair (:data:`NULL_CLI_ARGS`).  The CI
``traffic-smoke`` job re-runs both commands under two ``PYTHONHASHSEED``
values and byte-compares every store with its file.
"""

import functools
import gc
import hashlib
import json
import re
from pathlib import Path
from unittest import mock

import pytest

from repro.cli import main
from repro.network import (
    FaultEvent,
    LinkSpec,
    NetworkSimulator,
    Workload,
    XorEncryptionService,
    run_traffic,
)
from repro.network import simulator as simulator_module
from repro.network import traffic as traffic_module
from repro.scenarios import parse_scenario

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "traffic_outcomes.txt"
CLI_GOLDEN = GOLDEN.with_name("traffic_capacity.jsonl")
NULL_CLI_GOLDEN = GOLDEN.with_name("traffic_null.jsonl")

CLI_ARGS = [
    "traffic", "circulant:n=24,offsets=1+2/kernel",
    "--workload", "hotspot", "--messages", "400", "--duration", "80",
    "--capacity", "1", "--buffer", "4",
    "--fail", "10:3", "--repair", "40:3", "--fail", "30:7", "--seed", "7",
]

NULL_CLI_ARGS = [
    "traffic", "circulant:n=24,offsets=1+2/kernel",
    "--workload", "uniform", "--messages", "60", "--duration", "40",
    "--fail", "10:3", "--repair", "25:3", "--seed", "7",
]

#: A null-model gossip run whose last receipt, a message reaching failed
#: node 21, finishes at tick 110 while messages that died earlier were
#: still due to cross the rest of their routes.
MAKESPAN_CLI_ARGS = [
    "traffic", "circulant:n=30,offsets=1+2+3/kernel",
    "--workload", "gossip", "--rounds", "4", "--interval", "10",
    "--repair", "13:19", "--fail", "34:4", "--fail", "46:20",
    "--repair", "49:1", "--fail", "58:21", "--seed", "26",
]

SPEC = "circulant:n=48,offsets=1+2/kernel"


def _flapping(pairs):
    """``pairs`` fail/repair pairs, 70 ticks apart, each node down 50 ticks."""
    faults = []
    for index in range(pairs):
        node = (11 * index + 7) % 48
        tick = 30 + 70 * index
        faults += [FaultEvent(tick, "fail", node), FaultEvent(tick + 50, "repair", node)]
    return tuple(faults)


#: name -> run_traffic arguments.  ``a`` congests the links into one hot
#: node (node 42) and fails its neighbour 43 for a while; ``b`` spreads
#: traffic thinner but runs an endpoint service, so faults can strike
#: while a message sits in endpoint processing.
CONFIGS = {
    "a": dict(
        workload=Workload(
            kind="hotspot", messages=600, duration=150, hotspots=1, hot_fraction=0.9
        ),
        seed=2,
        link=LinkSpec(capacity=1, buffer=8),
        service=None,
        faults=(
            FaultEvent(20, "fail", 43),
            FaultEvent(50, "fail", 18),
            FaultEvent(70, "repair", 43),
            FaultEvent(110, "repair", 18),
        ),
    ),
    "b": dict(
        workload=Workload(
            kind="hotspot", messages=600, duration=800, hotspots=3, hot_fraction=0.8
        ),
        seed=3,
        link=LinkSpec(capacity=2, buffer=4),
        service=XorEncryptionService,
        faults=_flapping(12),
    ),
}

#: Failure family -> pattern of its receipts' reasons.
FAMILIES = {
    "buffer full": r"^link .* dropped message \+\d+ \(buffer full\)$",
    "reached failed node": r"^message \+\d+ reached failed node ",
    "dropped at endpoint send": r"^node .* is failed and dropped the message$",
    "origin or destination failed": r"^(origin|destination) .* is failed or unknown$",
    "faulty segment route": r"^route .* is missing or faulty$",
    "destination failed at delivery": r"^node .* is failed; cannot deliver$",
}


@functools.lru_cache(maxsize=None)
def _network():
    return parse_scenario(SPEC).build()


def run_config(name):
    """Run one config through ``run_traffic``; return the result and its simulator."""
    config = CONFIGS[name]
    graph, built = _network()
    made = []

    class _Recording(NetworkSimulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    service = config["service"]
    with mock.patch.object(traffic_module, "NetworkSimulator", _Recording):
        result = run_traffic(
            graph,
            built.routing,
            config["workload"],
            seed=config["seed"],
            service=service() if service is not None else None,
            link=config["link"],
            faults=config["faults"],
        )
    (simulator,) = made
    return result, simulator


def _relative_reasons(receipts):
    first = min(receipt.message.message_id for receipt in receipts)
    return [
        re.sub(
            r"message (\d+)",
            lambda match: f"message +{int(match.group(1)) - first}",
            receipt.failure_reason,
        )
        for receipt in receipts
    ]


def _family(reason):
    (family,) = [name for name, pattern in FAMILIES.items() if re.search(pattern, reason)]
    return family


def _sha(rows):
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_lines(name, result, simulator):
    """The golden file's lines for one config."""
    receipts = result.receipts
    reasons = _relative_reasons(receipts)
    families = {family: 0 for family in FAMILIES}
    for receipt, reason in zip(receipts, reasons):
        if not receipt.delivered:
            families[_family(reason)] += 1
    receipt_rows = [
        [
            receipt.delivered,
            receipt.routes_used,
            receipt.hops,
            receipt.latency_ticks,
            reason,
            list(receipt.message.trace),
            list(receipt.message.route),
        ]
        for receipt, reason in zip(receipts, reasons)
    ]
    node_rows = [
        [
            node_id,
            node.stats.forwarded,
            node.stats.received,
            node.stats.originated,
            node.stats.dropped,
            [repr(payload) for payload in node.application_inbox],
        ]
        for node_id, node in simulator.nodes.items()
    ]
    link_rows = [
        [
            source,
            target,
            link.stats.entered,
            link.stats.dropped,
            link.stats.max_queue_depth,
            link.stats.queue_wait_ticks,
        ]
        for (source, target), link in sorted(simulator.links.items())
    ]
    config = CONFIGS[name]
    service = config["service"]
    return [
        f"{name} config {SPEC} {config['workload'].canonical()} seed={config['seed']} "
        f"link={config['link'].describe()} "
        f"service={service.__name__ if service is not None else 'null'} "
        f"faults={len(config['faults'])}",
        f"{name} events processed={simulator.events.processed} makespan={simulator.events.now}",
        f"{name} receipts delivered={result.delivered} failed={result.dropped} "
        + " ".join(f"{family.replace(' ', '_')}={count}" for family, count in families.items()),
        f"{name} receipts sha256={_sha(receipt_rows)}",
        f"{name} nodes sha256={_sha(node_rows)}",
        f"{name} links count={len(link_rows)} sha256={_sha(link_rows)}",
        f"{name} record sha256={_sha(result.record())}",
    ]


@pytest.fixture(scope="module")
def runs():
    return {name: run_config(name) for name in CONFIGS}


def test_capacity_limited_outcomes_match_golden(runs):
    lines = []
    for name, (result, simulator) in runs.items():
        lines += digest_lines(name, result, simulator)
    assert lines == GOLDEN.read_text().splitlines()


def test_configs_hit_every_failure_family(runs):
    seen = set()
    for result, _simulator in runs.values():
        for receipt, reason in zip(result.receipts, _relative_reasons(result.receipts)):
            if not receipt.delivered:
                seen.add(_family(reason))
    assert seen == set(FAMILIES)


def test_finished_deliveries_leave_no_reference_cycle():
    # Every delivery finishes by the time run_traffic returns, so reference
    # counting alone must free them: none may wait for the cycle collector.
    gc.collect()
    gc.disable()
    try:
        run_config("a")
        leftover = [
            obj for obj in gc.get_objects() if isinstance(obj, simulator_module._Delivery)
        ]
    finally:
        gc.enable()
    assert leftover == []


def test_cli_capacity_store_matches_golden(tmp_path, capsys):
    store = tmp_path / "traffic.jsonl"
    assert main(CLI_ARGS + ["--store", str(store)]) == 0
    assert store.read_bytes() == CLI_GOLDEN.read_bytes()


def test_cli_null_store_matches_golden(tmp_path, capsys):
    store = tmp_path / "traffic.jsonl"
    assert main(NULL_CLI_ARGS + ["--store", str(store)]) == 0
    assert store.read_bytes() == NULL_CLI_GOLDEN.read_bytes()


def test_cli_duration_ends_at_the_last_receipt(tmp_path, capsys):
    store = tmp_path / "traffic.jsonl"
    assert main(MAKESPAN_CLI_ARGS + ["--store", str(store)]) == 0
    (row,) = [json.loads(line) for line in store.read_text().splitlines()[1:]]
    record = row["record"]
    assert (record["delivered"], record["duration"]) == (92, 110)
    assert record["throughput"] == pytest.approx(92 / 1.1)


if __name__ == "__main__":
    for config_name in CONFIGS:
        print("\n".join(digest_lines(config_name, *run_config(config_name))))
