"""Unit tests for Monte-Carlo fault-injection campaigns."""

import random
import statistics
import tracemalloc

import pytest

from repro.core import kernel_routing
from repro.faults import (
    FaultSet,
    aggregate_outcomes,
    run_campaign,
    sweep_fault_sizes,
)
from repro.graphs import generators

INF = float("inf")


@pytest.fixture(scope="module")
def routing_under_test():
    graph = generators.circulant_graph(12, [1, 2])
    return graph, kernel_routing(graph)


class TestRunCampaign:
    def test_basic_statistics(self, routing_under_test):
        graph, result = routing_under_test
        campaign = run_campaign(graph, result.routing, fault_size=2, samples=20, seed=0)
        assert campaign.samples == 20
        assert campaign.fault_size == 2
        assert campaign.min_diameter <= campaign.mean_diameter <= campaign.max_diameter
        assert 0.0 <= campaign.disconnected_fraction <= 1.0

    def test_reproducible(self, routing_under_test):
        graph, result = routing_under_test
        first = run_campaign(graph, result.routing, 2, samples=10, seed=7)
        second = run_campaign(graph, result.routing, 2, samples=10, seed=7)
        assert first.mean_diameter == second.mean_diameter
        assert first.max_diameter == second.max_diameter

    def test_zero_faults_matches_fault_free_diameter(self, routing_under_test):
        graph, result = routing_under_test
        from repro.core import surviving_diameter

        campaign = run_campaign(graph, result.routing, 0, samples=3, seed=1)
        assert campaign.max_diameter == surviving_diameter(graph, result.routing, ())
        assert campaign.disconnected_fraction == 0.0

    def test_explicit_fault_sets(self, routing_under_test):
        graph, result = routing_under_test
        campaign = run_campaign(
            graph,
            result.routing,
            fault_size=1,
            fault_sets=[FaultSet({0}), FaultSet({5})],
        )
        assert campaign.samples == 2

    def test_empty_fault_sets_rejected(self, routing_under_test):
        graph, result = routing_under_test
        with pytest.raises(ValueError):
            run_campaign(graph, result.routing, 1, fault_sets=[])

    def test_as_row(self, routing_under_test):
        graph, result = routing_under_test
        campaign = run_campaign(graph, result.routing, 1, samples=5, seed=2)
        row = campaign.as_row()
        assert row["faults"] == 1
        assert row["samples"] == 5
        assert "mean_diam" in row

    def test_worst_fault_set_recorded(self, routing_under_test):
        graph, result = routing_under_test
        campaign = run_campaign(graph, result.routing, 2, samples=10, seed=3)
        assert campaign.worst_fault_set is not None
        assert len(campaign.worst_fault_set) <= 2

    def test_disconnecting_fault_set_dominates_worst(self, routing_under_test):
        """Regression: a disconnecting set must win even when seen *after* a
        finite-diameter set (previously it only won when it came first)."""
        graph, result = routing_under_test
        from repro.core import surviving_diameter

        finite = FaultSet({0})
        isolating = FaultSet(set(graph.neighbors(3)), description="isolates 3")
        assert surviving_diameter(graph, result.routing, finite) < float("inf")
        assert surviving_diameter(graph, result.routing, isolating) == float("inf")
        campaign = run_campaign(
            graph, result.routing, fault_size=4, fault_sets=[finite, isolating]
        )
        assert campaign.disconnected_fraction == 0.5
        assert campaign.worst_fault_set == isolating

    def test_first_of_equal_worst_diameters_wins(self, routing_under_test):
        graph, result = routing_under_test
        first = FaultSet({0}, description="first")
        second = FaultSet({6}, description="second")
        campaign = run_campaign(
            graph, result.routing, fault_size=1, fault_sets=[first, second]
        )
        assert campaign.worst_fault_set.description == "first"


class TestRealisedFaultSizes:
    def test_fixed_size_battery_records_constant_sizes(self, routing_under_test):
        graph, result = routing_under_test
        campaign = run_campaign(graph, result.routing, 2, samples=10, seed=1)
        assert campaign.faults_min == campaign.faults_max == 2
        assert campaign.faults_mean == 2.0
        assert not campaign.variable_fault_sizes

    def test_variable_battery_surfaces_min_mean_max(self, routing_under_test):
        graph, result = routing_under_test
        campaign = run_campaign(
            graph,
            result.routing,
            fault_size=0,
            fault_sets=[FaultSet(()), FaultSet({0}), FaultSet({1, 5, 7})],
        )
        assert campaign.faults_min == 0
        assert campaign.faults_max == 3
        assert campaign.faults_mean == pytest.approx(4 / 3)
        assert campaign.variable_fault_sizes
        row = campaign.as_row()
        assert row["faults"] == "0..3"
        assert row["mean_faults"] == round(campaign.faults_mean, 2)


class TestRecordRoundTrip:
    def test_campaign_result_round_trips(self, routing_under_test):
        graph, result = routing_under_test
        campaign = run_campaign(graph, result.routing, 2, samples=10, seed=3)
        from repro.faults import CampaignResult

        record = campaign.record()
        assert record["kind"] == "exact"
        restored = CampaignResult.from_record(record)
        assert restored == campaign

    def test_decision_result_round_trips(self, routing_under_test):
        graph, result = routing_under_test
        campaign = run_campaign(
            graph, result.routing, 2, samples=10, seed=3, bound=4
        )
        from repro.faults import DecisionCampaignResult

        record = campaign.record()
        assert record["kind"] == "decision"
        assert record["pass_rate"] == campaign.pass_fraction
        restored = DecisionCampaignResult.from_record(record)
        assert restored == campaign

    def test_worst_fault_set_survives_the_round_trip(self, routing_under_test):
        graph, result = routing_under_test
        campaign = run_campaign(graph, result.routing, 2, samples=10, seed=5)
        from repro.faults import CampaignResult

        restored = CampaignResult.from_record(campaign.record())
        assert restored.worst_fault_set == campaign.worst_fault_set

    def test_disconnection_marks_worst_diam_infinite(self, routing_under_test):
        graph, result = routing_under_test
        isolating = FaultSet(set(graph.neighbors(3)))
        campaign = run_campaign(
            graph, result.routing, 4, fault_sets=[FaultSet({0}), isolating]
        )
        assert campaign.record()["worst_diam"] == float("inf")

    def test_run_campaign_emits_into_frame(self, routing_under_test):
        graph, result = routing_under_test
        from repro.results import result_frame

        frame = result_frame()
        campaign = run_campaign(
            graph, result.routing, 1, samples=5, seed=2, frame=frame
        )
        assert len(frame) == 1
        assert frame.row(0)["samples"] == campaign.samples
        assert frame.row(0)["source"] == "campaign"

    def test_sweep_emits_one_record_per_size(self, routing_under_test):
        graph, result = routing_under_test
        from repro.results import result_frame

        frame = result_frame()
        sweep_fault_sizes(
            graph, result.routing, sizes=[0, 1, 2], samples=5, seed=0, frame=frame
        )
        assert frame.column("faults") == (0, 1, 2)


class TestSweep:
    def test_sweep_sizes(self, routing_under_test):
        graph, result = routing_under_test
        campaigns = sweep_fault_sizes(graph, result.routing, sizes=[0, 1, 2], samples=5, seed=0)
        assert [c.fault_size for c in campaigns] == [0, 1, 2]

    def test_disconnection_appears_beyond_connectivity(self, routing_under_test):
        graph, result = routing_under_test
        # With far more faults than the connectivity the graph often
        # disconnects; the campaign must report it rather than crash.
        campaign = run_campaign(graph, result.routing, 8, samples=20, seed=5)
        assert campaign.samples == 20
        assert campaign.disconnected_fraction >= 0.0


def _list_fold(outcomes):
    """Reference fold that keeps every finite diameter in a list."""
    diameters = [diam for _fault_set, diam in outcomes if diam != INF]
    finite = diameters or [INF]
    return (
        statistics.fmean(finite) if diameters else INF,
        max(finite),
        min(finite),
        (len(outcomes) - len(diameters)) / len(outcomes),
    )


class TestAggregateOutcomes:
    def test_matches_the_list_fold(self):
        rng = random.Random(5)
        batteries = [
            [(FaultSet([0]), INF)] * 4,
            [(FaultSet([1]), INF)],
            [(FaultSet([2]), 7)],
            [(FaultSet([3]), 0)],
        ]
        for _ in range(300):
            inf_share = rng.choice([0.0, 0.2, 0.9, 1.0])
            scale = 10 ** rng.randint(1, 6)
            battery = []
            for _ in range(rng.randint(1, 80)):
                diam = INF if rng.random() < inf_share else rng.randint(0, scale)
                battery.append((FaultSet([rng.randrange(50)]), diam))
            batteries.append(battery)
        for battery in batteries:
            result = aggregate_outcomes(1, iter(battery))
            assert (
                result.mean_diameter,
                result.max_diameter,
                result.min_diameter,
                result.disconnected_fraction,
            ) == _list_fold(battery)
            assert result.samples == len(battery)

    def test_memory_stays_bounded(self):
        fault_set = FaultSet([0])
        count = 200_000

        def outcomes():
            for position in range(count):
                yield fault_set, 3 + position % 50

        tracemalloc.start()
        try:
            result = aggregate_outcomes(1, outcomes())
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.samples == count
        assert result.mean_diameter == statistics.fmean(
            3 + position % 50 for position in range(count)
        )
        assert peak < 256 * 1024
