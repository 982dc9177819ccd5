"""Unit tests for the (d, f)-tolerance checking machinery."""

import pytest

from repro.core import Routing, check_tolerance, kernel_routing, verify_construction
from repro.faults import CampaignEngine, FaultSet, all_fault_sets
from repro.graphs import generators


@pytest.fixture(scope="module")
def edge_only_routing():
    """Edge routes only on C_8: the weakest sensible routing (diam = graph diam)."""
    graph = generators.cycle_graph(8)
    routing = Routing(graph, name="edges-only")
    routing.add_all_edge_routes()
    return graph, routing


class TestWorstCaseDiameter:
    def test_no_faults_baseline(self, edge_only_routing):
        graph, routing = edge_only_routing
        worst, worst_set, evaluated = CampaignEngine(graph, routing).worst_case(
            [FaultSet(())]
        )
        assert worst == 4  # diameter of C_8
        assert evaluated == 1
        assert len(worst_set) == 0

    def test_worst_fault_identified(self, edge_only_routing):
        graph, routing = edge_only_routing
        fault_sets = [FaultSet(()), FaultSet({0})]
        worst, worst_set, evaluated = CampaignEngine(graph, routing).worst_case(fault_sets)
        # Removing one node of a cycle routed edge-only leaves a path: diameter 6.
        assert worst == 6
        assert worst_set == FaultSet({0})
        assert evaluated == 2

    def test_disconnection_dominates(self, edge_only_routing):
        graph, routing = edge_only_routing
        fault_sets = [FaultSet({0}), FaultSet({0, 4})]
        worst, worst_set, _ = CampaignEngine(graph, routing).worst_case(fault_sets)
        assert worst == float("inf")
        assert worst_set == FaultSet({0, 4})


class TestCheckTolerance:
    def test_exhaustive_mode_selected_for_small_problems(self, edge_only_routing):
        graph, routing = edge_only_routing
        report = check_tolerance(graph, routing, diameter_bound=6, max_faults=1)
        assert report.exhaustive
        assert report.evaluated == 1 + 8
        assert report.holds

    def test_violation_detected(self, edge_only_routing):
        graph, routing = edge_only_routing
        report = check_tolerance(graph, routing, diameter_bound=4, max_faults=1)
        assert not report.holds
        assert report.worst_diameter == 6

    def test_battery_mode_for_large_problems(self, edge_only_routing):
        graph, routing = edge_only_routing
        report = check_tolerance(
            graph, routing, diameter_bound=6, max_faults=1, exhaustive_limit=2
        )
        assert not report.exhaustive
        assert report.evaluated >= 2

    def test_explicit_fault_sets(self, edge_only_routing):
        graph, routing = edge_only_routing
        report = check_tolerance(
            graph,
            routing,
            diameter_bound=6,
            max_faults=1,
            fault_sets=[FaultSet({3})],
        )
        assert report.evaluated == 1
        assert not report.exhaustive

    def test_report_repr(self, edge_only_routing):
        graph, routing = edge_only_routing
        report = check_tolerance(graph, routing, diameter_bound=6, max_faults=1)
        text = repr(report)
        assert "holds" in text
        assert "exhaustive" in text

    def test_violation_short_circuits_with_exact_witness(self, edge_only_routing):
        """The decision path stops at the first violating fault set."""
        graph, routing = edge_only_routing
        report = check_tolerance(graph, routing, diameter_bound=4, max_faults=1)
        assert not report.holds
        # Enumeration order: the empty set (diameter 4, within bound), then
        # {0} which violates -> exactly two evaluations, exact witness value.
        assert report.evaluated == 2
        assert report.worst_fault_set.nodes() == frozenset({0})
        assert report.worst_diameter == 6

    def test_exhaustive_report_identical_across_worker_counts(self, edge_only_routing):
        graph, routing = edge_only_routing
        sequential = check_tolerance(graph, routing, diameter_bound=6, max_faults=2)
        parallel = check_tolerance(
            graph, routing, diameter_bound=6, max_faults=2, workers=2
        )
        assert sequential.worst_diameter == parallel.worst_diameter
        assert sequential.evaluated == parallel.evaluated
        assert sequential.holds == parallel.holds

    def test_infinite_bound_always_holds(self, edge_only_routing):
        graph, routing = edge_only_routing
        report = check_tolerance(
            graph, routing, diameter_bound=float("inf"), max_faults=2
        )
        assert report.holds
        assert report.exhaustive
        # Disconnecting pairs exist at |F| = 2; with an infinite bound they
        # are not violations but must still be reported as the worst case.
        assert report.worst_diameter == float("inf")


class TestVerifyConstruction:
    def test_uses_recorded_guarantee(self):
        graph = generators.cycle_graph(10)
        result = kernel_routing(graph)
        report = verify_construction(result)
        assert report.claimed_diameter == result.guarantee.diameter_bound
        assert report.max_faults == result.guarantee.max_faults
        assert report.holds

    def test_explicit_fault_sets(self):
        graph = generators.cycle_graph(10)
        result = kernel_routing(graph)
        report = verify_construction(
            result, fault_sets=list(all_fault_sets(graph.nodes(), 1))
        )
        assert report.evaluated == 11
