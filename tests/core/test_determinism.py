"""Construction-determinism regression tests.

The ROADMAP tracked a pre-existing bug: ``kernel_routing`` (and with it every
construction resting on the max-flow substrate) built a different — equally
valid — routing per interpreter run because set iteration leaked hash order
into the flow network's augmenting-path choices.  The graph substrate is now
insertion-ordered end to end, so the same spec must produce bit-for-bit the
same routing under any ``PYTHONHASHSEED``.  These tests verify exactly that
by comparing routing fingerprints across subprocesses with different hash
seeds — an in-process test cannot catch the regression because the hash seed
is fixed per interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
REPO_SRC = os.path.join(REPO_ROOT, "src")

#: Committed ``spec fingerprint`` lines: every routing below must keep being
#: built byte for byte (the CI determinism job diffs its hash-seed dumps
#: against this file too).
GOLDEN_FINGERPRINTS = os.path.join(REPO_ROOT, "tests", "golden", "routing_fingerprints.txt")

#: Scenario strings covering >= 5 distinct graph families and several
#: construction schemes (kernel, circular, bipolar, auto).
FINGERPRINT_SCENARIOS = [
    "hypercube:d=4/kernel",
    "butterfly:d=3/kernel",
    "debruijn:base=2,d=4/kernel",
    "circulant:n=24,offsets=1+2/kernel",
    "flower:t=2,k=9/circular",
    "two-trees:t=1/bipolar-uni",
    "kernel-test:t=2/kernel",
    "petersen/auto",
]

_SCRIPT = """
import sys
from repro.scenarios import parse_scenario

for spec in sys.argv[1:]:
    graph, result = parse_scenario(spec).build()
    print(spec, result.fingerprint())
"""


def _golden_entries():
    with open(GOLDEN_FINGERPRINTS, encoding="utf-8") as handle:
        return [tuple(line.split()) for line in handle if line.strip()]


def _fingerprints(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = REPO_SRC + (os.pathsep + existing if existing else "")
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT, *FINGERPRINT_SCENARIOS],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return completed.stdout


class TestConstructionDeterminism:
    def test_fingerprints_identical_across_hash_seeds(self):
        """Two interpreter runs with different hash seeds agree exactly."""
        first = _fingerprints("1")
        second = _fingerprints("2")
        assert first == second
        # Sanity: every scenario actually produced a fingerprint line.
        assert len(first.strip().splitlines()) == len(FINGERPRINT_SCENARIOS)

    def test_fingerprint_is_content_addressed(self):
        """Same routing content => same fingerprint; different => different."""
        from repro.core import kernel_routing
        from repro.graphs import generators

        graph = generators.hypercube_graph(3)
        a = kernel_routing(graph)
        b = kernel_routing(graph)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() == a.routing.fingerprint()
        other = kernel_routing(generators.hypercube_graph(4))
        assert a.fingerprint() != other.fingerprint()

    def test_fingerprint_recorded_in_details(self):
        from repro.core import kernel_routing
        from repro.graphs import generators

        result = kernel_routing(generators.hypercube_graph(3))
        digest = result.fingerprint()
        assert result.details["fingerprint"] == digest

    @pytest.mark.parametrize("spec", FINGERPRINT_SCENARIOS[:4])
    def test_repeated_in_process_builds_agree(self, spec):
        from repro.scenarios import parse_scenario

        scenario = parse_scenario(spec)
        _, first = scenario.build()
        _, second = scenario.build()
        assert first.fingerprint() == second.fingerprint()


class TestCommittedFingerprints:
    """Routings are pinned to committed digests, not only to each other.

    Agreement across hash seeds cannot catch a change that builds a
    different, equally valid routing on every run; these digests can.
    """

    @pytest.mark.parametrize(
        "spec, digest", _golden_entries(), ids=[spec for spec, _ in _golden_entries()]
    )
    def test_routing_matches_committed_digest(self, spec, digest):
        from repro.scenarios import parse_scenario

        _, result = parse_scenario(spec).build()
        assert result.fingerprint() == digest

    def test_golden_covers_the_hash_seed_scenarios(self):
        specs = [spec for spec, _ in _golden_entries()]
        assert len(specs) == len(set(specs))
        assert set(FINGERPRINT_SCENARIOS) <= set(specs)
