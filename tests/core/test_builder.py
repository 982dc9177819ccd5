"""Unit tests for the build_routing facade and strategy selection."""

import pytest

from repro.core import (
    AUTO_ORDER,
    STRATEGIES,
    applicable_strategies,
    available_strategies,
    build_routing,
    verify_construction,
)
from repro.exceptions import ConstructionError
from repro.graphs import generators, synthetic
from repro.scenarios import parse_scenario


class TestStrategyRegistry:
    def test_available_strategies(self):
        names = available_strategies()
        assert "auto" in names
        assert "kernel" in names
        assert "tricircular" in names
        assert "bipolar-uni" in names

    def test_auto_order_subset_of_strategies(self):
        assert set(AUTO_ORDER) <= set(STRATEGIES)

    def test_auto_order_prefers_stronger_bounds(self):
        assert AUTO_ORDER.index("tricircular") < AUTO_ORDER.index("circular")
        assert AUTO_ORDER.index("bipolar-uni") < AUTO_ORDER.index("kernel")


class TestExplicitStrategies:
    def test_kernel_by_name(self):
        result = build_routing(generators.cycle_graph(10), strategy="kernel")
        assert result.scheme == "kernel"

    def test_circular_by_name(self):
        result = build_routing(generators.cycle_graph(12), strategy="circular")
        assert result.scheme == "circular"

    def test_bipolar_by_name(self):
        graph, r1, r2 = synthetic.two_trees_graph(t=1)
        result = build_routing(graph, strategy="bipolar-uni", roots=(r1, r2))
        assert result.scheme == "bipolar-uni"

    def test_multirouting_by_name(self):
        result = build_routing(generators.circulant_graph(8, [1, 2]), strategy="multi-full")
        assert result.scheme == "multi-full"

    def test_clique_by_name(self):
        result = build_routing(generators.cycle_graph(10), strategy="kernel+clique")
        assert result.scheme == "kernel+clique"

    def test_tricircular_small_by_name(self):
        graph, flowers = synthetic.flower_graph(t=1, k=9)
        result = build_routing(
            graph, strategy="tricircular-small", t=1, concentrator=flowers
        )
        assert result.scheme == "tricircular-small"

    def test_unknown_strategy(self):
        with pytest.raises(ConstructionError):
            build_routing(generators.cycle_graph(8), strategy="teleportation")

    def test_strategy_requirement_failure_propagates(self):
        with pytest.raises(Exception):
            build_routing(generators.hypercube_graph(3), strategy="bipolar-uni")


class TestAutoSelection:
    def test_small_cycle_prefers_bipolar(self):
        # C_12 has the two-trees property but no 15-node neighbourhood set.
        result = build_routing(generators.cycle_graph(12))
        assert result.scheme == "bipolar-uni"
        assert verify_construction(result, exhaustive_limit=150).holds

    def test_long_cycle_gets_tricircular(self):
        # C_45 fits the full 6t+9 = 15 neighbourhood set.
        result = build_routing(generators.cycle_graph(45))
        assert result.scheme == "tricircular"

    def test_hypercube_falls_back_to_kernel(self):
        # Q_3: no two-trees property (girth 4) and no large neighbourhood set.
        result = build_routing(generators.hypercube_graph(3))
        assert result.scheme == "kernel"

    def test_complete_graph_fails_everything(self):
        with pytest.raises(ConstructionError):
            build_routing(generators.complete_graph(5))

    def test_explicit_t_passed_through(self):
        result = build_routing(generators.cycle_graph(12), strategy="kernel", t=1)
        assert result.t == 1


class TestApplicableStrategies:
    def test_cycle12(self):
        strategies = applicable_strategies(generators.cycle_graph(12))
        assert "bipolar-uni" in strategies
        assert "circular" in strategies
        assert "kernel" in strategies
        assert "tricircular" not in strategies

    def test_cycle45(self):
        strategies = applicable_strategies(generators.cycle_graph(45))
        assert strategies[0] == "tricircular"

    def test_hypercube(self):
        strategies = applicable_strategies(generators.hypercube_graph(3))
        assert "bipolar-uni" not in strategies
        assert "kernel" in strategies

    def test_ordering_matches_auto_order(self):
        strategies = applicable_strategies(generators.cycle_graph(45))
        positions = [AUTO_ORDER.index(name) for name in strategies]
        assert positions == sorted(positions)


KERNEL_FAMILY = ["kernel", "kernel+clique", "multi-kernel", "multi-single-tree"]

_TOO_SMALL = "separating set has 2 nodes; at least 4 required"

#: (scenario, strategy, exception type, exact message).  ``repro grid
#: --skip-inapplicable`` stores ``str(exc)`` in its ``inapplicable`` rows, so
#: these messages are stored bytes.
REFUSALS = [
    *[
        (
            "gnp:n=30,p=0.1,seed=0",
            strategy,
            ValueError,
            "graph is disconnected; the model requires connectivity >= 1",
        )
        for strategy in KERNEL_FAMILY
    ],
    *[
        ("complete:n=6", strategy, ValueError, "complete graphs have no separating set")
        for strategy in KERNEL_FAMILY
    ],
    *[
        (
            "path:n=2",
            strategy,
            ValueError,
            "graphs with fewer than 3 nodes have no separating set",
        )
        for strategy in KERNEL_FAMILY
    ],
    (
        "cycle:n=8/t=3",
        "kernel",
        ConstructionError,
        "minimum separator has 2 nodes (< t + 1 = 4); the graph is not "
        "(t + 1)-connected for the requested t",
    ),
    ("cycle:n=8/t=3", "kernel+clique", ConstructionError, _TOO_SMALL),
    ("cycle:n=8/t=3", "multi-kernel", ConstructionError, _TOO_SMALL),
    ("cycle:n=8/t=3", "multi-single-tree", ConstructionError, _TOO_SMALL),
]


class TestKernelFamilyRefusals:
    @pytest.mark.parametrize("spec, strategy, kind, message", REFUSALS)
    def test_refusal_type_and_message_are_pinned(self, spec, strategy, kind, message):
        graph_spec, _, rest = spec.partition("/")
        scenario = parse_scenario(f"{graph_spec}/{strategy}" + (f"/{rest}" if rest else ""))
        with pytest.raises(Exception) as caught:
            scenario.build()
        assert type(caught.value) is kind
        assert str(caught.value) == message
