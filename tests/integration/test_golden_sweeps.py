"""Golden result stores for degradation sweeps past the tolerance.

Both grids sweep fault sizes past ``t`` on sparse kernel routings, where
most fault sets disconnect the surviving route graph: the cycles (below the
backend rule's node floor) on the bitset kernel's batched BFS strategy, the
circulant on the numpy kernel's guarded lanes.  ``bound=4`` sends the same
batteries through the capped decision path.  The stores were recorded with
the CLI::

    repro grid 'cycle:n=60..61/kernel/sizes:2-5' \\
        'circulant:n=96,offsets=1+2/kernel/sizes:6-8' \\
        --samples 20 --seed 7 --greedy [--bound 4] --store FILE

The ``grid-smoke`` CI job re-runs that command with two workers and compares
its stores with the same files.
"""

from pathlib import Path

import pytest

from repro.results import ResultStore
from repro.scenarios import parse_grid, run_scenario_suite, suite_manifest

GOLDEN = Path(__file__).resolve().parents[1] / "golden"

GRIDS = (
    "cycle:n=60..61/kernel/sizes:2-5",
    "circulant:n=96,offsets=1+2/kernel/sizes:6-8",
)
SAMPLES = 20
SEED = 7


@pytest.mark.parametrize(
    "bound, golden",
    [
        (None, "sweep_disconnecting.jsonl"),
        (4.0, "sweep_disconnecting_bound4.jsonl"),
    ],
)
def test_disconnecting_sweep_store_matches_golden(tmp_path, bound, golden):
    scenarios = [scenario for spec in GRIDS for scenario in parse_grid(spec).scenarios()]
    path = tmp_path / golden
    store = ResultStore.create(
        str(path), suite_manifest(scenarios, SAMPLES, SEED, bound, greedy=True)
    )
    try:
        rows = run_scenario_suite(
            scenarios,
            samples=SAMPLES,
            seed=SEED,
            bound=bound,
            store=store,
            greedy=True,
        )
    finally:
        store.close()
    assert len(rows) == 11
    assert {row.record()["bfs"] for row in rows} == {"batched"}
    assert path.read_bytes() == (GOLDEN / golden).read_bytes()
