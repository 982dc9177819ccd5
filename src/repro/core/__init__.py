"""Core library: the paper's routing constructions and their analysis tools."""

from repro.core.routing import MultiRouting, Routing
from repro.core.construction import ConstructionResult, Guarantee
from repro.core.tree_routing import (
    tree_routing,
    tree_routing_to_neighborhood,
    verify_tree_routing,
)
from repro.core.concentrators import (
    greedy_neighborhood_set,
    lemma15_lower_bound,
    neighborhood_set,
    required_neighborhood_set_size,
    two_trees_concentrator,
    two_trees_concentrator_for_roots,
)
from repro.core.route_index import EvalCursor, RouteIndex
from repro.core.surviving import (
    broadcast_round_bound,
    route_survives,
    routes_affected_by,
    surviving_diameter,
    surviving_diameter_at_most,
    surviving_distance,
    surviving_eccentricities,
    surviving_route_graph,
)
from repro.core.kernel import kernel_guarantees, kernel_routing
from repro.core.circular import circular_component_range, circular_routing
from repro.core.tricircular import tricircular_routing
from repro.core.bipolar import bidirectional_bipolar_routing, unidirectional_bipolar_routing
from repro.core.multirouting import (
    full_multirouting,
    kernel_multirouting,
    single_tree_multirouting,
)
from repro.core.augmentation import added_edge_cost, clique_augmented_kernel_routing
from repro.core.tolerance import (
    ToleranceReport,
    check_tolerance,
    verify_construction,
)
from repro.core.verification import (
    check_bidirectional_bipolar_properties,
    check_bipolar_properties,
    check_circ_properties,
    check_routing_model,
    check_tcirc_property,
)
from repro.core.builder import (
    AUTO_ORDER,
    STRATEGIES,
    applicable_strategies,
    available_strategies,
    build_routing,
)
from repro.core.statistics import (
    RoutingStatistics,
    concentrator_load_share,
    node_loads,
    per_node_table_sizes,
    route_lengths,
    route_stretches,
    routing_statistics,
)
from repro.core.components import (
    DegradationPoint,
    component_diameters,
    graceful_degradation_profile,
    surviving_components,
    worst_component_diameter,
)

__all__ = [
    "MultiRouting",
    "Routing",
    "ConstructionResult",
    "Guarantee",
    "tree_routing",
    "tree_routing_to_neighborhood",
    "verify_tree_routing",
    "greedy_neighborhood_set",
    "lemma15_lower_bound",
    "neighborhood_set",
    "required_neighborhood_set_size",
    "two_trees_concentrator",
    "two_trees_concentrator_for_roots",
    "EvalCursor",
    "RouteIndex",
    "broadcast_round_bound",
    "route_survives",
    "routes_affected_by",
    "surviving_diameter",
    "surviving_diameter_at_most",
    "surviving_distance",
    "surviving_eccentricities",
    "surviving_route_graph",
    "kernel_guarantees",
    "kernel_routing",
    "circular_component_range",
    "circular_routing",
    "tricircular_routing",
    "bidirectional_bipolar_routing",
    "unidirectional_bipolar_routing",
    "full_multirouting",
    "kernel_multirouting",
    "single_tree_multirouting",
    "added_edge_cost",
    "clique_augmented_kernel_routing",
    "ToleranceReport",
    "check_tolerance",
    "verify_construction",
    "check_bidirectional_bipolar_properties",
    "check_bipolar_properties",
    "check_circ_properties",
    "check_routing_model",
    "check_tcirc_property",
    "AUTO_ORDER",
    "STRATEGIES",
    "applicable_strategies",
    "available_strategies",
    "build_routing",
    "RoutingStatistics",
    "concentrator_load_share",
    "node_loads",
    "per_node_table_sizes",
    "route_lengths",
    "route_stretches",
    "routing_statistics",
    "DegradationPoint",
    "component_diameters",
    "graceful_degradation_profile",
    "surviving_components",
    "worst_component_diameter",
]
