"""Unit tests for the kernel construction (Theorems 3 and 4)."""

import pytest

from repro.core import (
    build_routing,
    check_routing_model,
    kernel_guarantees,
    kernel_routing,
    surviving_diameter,
    verify_construction,
)
from repro.core.tolerance import check_tolerance
from repro.exceptions import ConstructionError
from repro.faults import all_fault_sets
from repro.graphs import (
    connectivity_parameter,
    flow,
    generators,
    is_separating_set,
    synthetic,
)
from repro.scenarios import parse_scenario


class TestKernelConstruction:
    def test_scheme_and_guarantee(self, kernel_on_cycle):
        assert kernel_on_cycle.scheme == "kernel"
        assert kernel_on_cycle.t == 1
        assert kernel_on_cycle.guarantee.diameter_bound == 4
        assert kernel_on_cycle.guarantee.max_faults == 0  # floor(1/2)

    def test_concentrator_is_separating_set(self, kernel_on_cycle):
        graph = kernel_on_cycle.graph
        assert is_separating_set(graph, set(kernel_on_cycle.concentrator))
        assert len(kernel_on_cycle.concentrator) == kernel_on_cycle.t + 1

    def test_routing_model_invariants(self, kernel_on_cycle):
        assert check_routing_model(kernel_on_cycle.routing) == []

    def test_every_non_kernel_node_has_t_plus_1_kernel_routes(self, kernel_on_cycle):
        routing = kernel_on_cycle.routing
        kernel_set = set(kernel_on_cycle.concentrator)
        t = kernel_on_cycle.t
        for node in kernel_on_cycle.graph.nodes():
            if node in kernel_set:
                continue
            targets = {m for m in kernel_set if routing.has_route(node, m)}
            assert len(targets) >= t + 1

    def test_edge_routes_present(self, kernel_on_cycle):
        routing = kernel_on_cycle.routing
        for u, v in kernel_on_cycle.graph.edges():
            assert routing.get_route(u, v) == (u, v)

    def test_bidirectional(self, kernel_on_cycle):
        assert kernel_on_cycle.routing.bidirectional
        assert kernel_on_cycle.routing.is_symmetric()

    def test_explicit_separating_set(self):
        graph = generators.cycle_graph(10)
        result = kernel_routing(graph, separating_set={0, 5})
        assert sorted(result.concentrator) == [0, 5]

    def test_explicit_separating_set_validation(self):
        graph = generators.cycle_graph(10)
        with pytest.raises(ConstructionError):
            kernel_routing(graph, separating_set={0, 1})  # does not separate
        with pytest.raises(ConstructionError):
            kernel_routing(graph, separating_set={3})  # too small for t+1=2

    def test_negative_t_rejected(self):
        with pytest.raises(ConstructionError):
            kernel_routing(generators.cycle_graph(6), t=-1)

    def test_t_larger_than_connectivity_rejected(self):
        graph = generators.cycle_graph(8)
        with pytest.raises(ConstructionError):
            kernel_routing(graph, t=3)


class TestKernelTolerance:
    def test_theorem4_exhaustive_on_cycle(self):
        """Theorem 4: (4, floor(t/2))-tolerant; for t=2 graphs that is 1 fault."""
        graph = synthetic.kernel_test_graph(t=2)
        result = kernel_routing(graph, t=2)
        report = check_tolerance(
            graph,
            result.routing,
            diameter_bound=4,
            max_faults=1,
            fault_sets=all_fault_sets(graph.nodes(), 1),
        )
        assert report.holds

    def test_theorem3_exhaustive_on_cycle(self):
        """Theorem 3: (2t, t)-tolerant; verified exhaustively for t=1 on C_10."""
        graph = generators.cycle_graph(10)
        result = kernel_routing(graph)
        report = check_tolerance(
            graph,
            result.routing,
            diameter_bound=max(2 * result.t, 4),
            max_faults=result.t,
            fault_sets=all_fault_sets(graph.nodes(), result.t),
        )
        assert report.holds
        assert report.exhaustive is False  # explicit fault sets supplied

    def test_theorem3_on_kernel_graph(self, kernel_on_kernel_graph):
        graph = kernel_on_kernel_graph.graph
        report = check_tolerance(
            graph,
            kernel_on_kernel_graph.routing,
            diameter_bound=2 * kernel_on_kernel_graph.t,
            max_faults=kernel_on_kernel_graph.t,
            exhaustive_limit=3000,
        )
        assert report.holds

    def test_verify_construction_default_guarantee(self, kernel_on_kernel_graph):
        report = verify_construction(kernel_on_kernel_graph, exhaustive_limit=2000)
        assert report.holds

    def test_fault_free_diameter_small(self, kernel_on_cycle):
        assert (
            surviving_diameter(kernel_on_cycle.graph, kernel_on_cycle.routing, ())
            <= 4
        )

    def test_hypercube_kernel(self):
        graph = generators.hypercube_graph(3)
        result = kernel_routing(graph)
        report = verify_construction(result, exhaustive_limit=200)
        assert report.holds
        assert result.t == 2


class TestKernelGuarantees:
    def test_guarantee_pair(self):
        guarantees = kernel_guarantees(3)
        assert guarantees[0].diameter_bound == 6
        assert guarantees[0].max_faults == 3
        assert guarantees[1].diameter_bound == 4
        assert guarantees[1].max_faults == 1

    def test_small_t_floor(self):
        guarantees = kernel_guarantees(1)
        assert guarantees[0].diameter_bound == 4  # max(2t, 4)
        assert guarantees[1].max_faults == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            kernel_guarantees(-1)

    def test_details_record_theorem3(self, kernel_on_cycle):
        theorem3 = kernel_on_cycle.details["theorem3_guarantee"]
        assert theorem3.max_faults == kernel_on_cycle.t


class TestConstructionFlowWork:
    """The kernel family compiles each flow network once and sweeps Even's pairs once."""

    @pytest.mark.parametrize(
        "spec",
        [
            "circulant:n=24,offsets=1+2/kernel",
            "hypercube:d=4/kernel+clique",
            "hypercube:d=4/multi-kernel",
            "hypercube:d=4/multi-single-tree",
            "hypercube:d=4/multi-full",
            "petersen/auto",
        ],
    )
    def test_one_compiled_network_per_graph_and_variant(self, spec, monkeypatch):
        compiled = []  # holds the graphs too, so no id is reused
        original = flow.SplitNetwork.__init__

        def counting_init(self, graph, edge_capacity):
            compiled.append((graph, edge_capacity))
            original(self, graph, edge_capacity)

        monkeypatch.setattr(flow.SplitNetwork, "__init__", counting_init)
        scenario = parse_scenario(spec)
        graph = scenario.build_graph()
        build_routing(graph, strategy=scenario.strategy, t=scenario.t)
        assert compiled
        keys = [(id(compiled_for), capacity) for compiled_for, capacity in compiled]
        assert len(keys) == len(set(keys))
        # A second build on the same graph reuses both networks.
        del compiled[:]
        build_routing(graph, strategy=scenario.strategy, t=scenario.t)
        assert compiled == []

    @staticmethod
    def _build_counting_flows(spec, monkeypatch):
        calls = []
        original = flow._dinic

        def counting_dinic(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(flow, "_dinic", counting_dinic)
        _, result = parse_scenario(spec).build()
        return result, len(calls)

    def test_certify_dense_routing_runs_184_max_flows(self, monkeypatch):
        # circulant(96; 1, 2, 3): 95 Even pairs swept once for both t and
        # M (a separate connectivity sweep would add 95 more), plus one
        # flow per tree routing not covered by direct edges (89).
        result, flows = self._build_counting_flows(
            "circulant:n=96,offsets=1+2+3/kernel", monkeypatch
        )
        assert result.t == 5
        assert flows == 184

    def test_auto_build_sweeps_even_pairs_once(self, monkeypatch):
        # auto resolves t first, then falls back to the kernel: 30 Even
        # pairs swept once, since the kernel's M is the separator that
        # sweep cached (sweeping them again would add 30 more), plus 25
        # tree-routing flows.
        result, flows = self._build_counting_flows(
            "random-regular:degree=4,n=30,seed=0/auto", monkeypatch
        )
        assert (result.scheme, result.t) == ("kernel", 3)
        assert flows == 55

    def test_default_t_equals_connectivity_minus_one(self):
        for graph in (
            generators.cycle_graph(9),
            generators.hypercube_graph(4),
            generators.petersen_graph(),
            synthetic.kernel_test_graph(2),
        ):
            assert kernel_routing(graph).t == connectivity_parameter(graph)
