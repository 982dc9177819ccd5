"""Registry of named, parameterised graph families.

Before this module existed, every layer that needed to go from a *name* to a
*graph* re-improvised the mapping: the CLI kept its own ``GRAPH_FACTORIES``
dict of positional-argument lambdas, :data:`repro.graphs.generators
.NAMED_SMALL_GRAPHS` kept a second registry of parameterless factories, and
benchmarks hand-rolled a third.  The scenario subsystem needs one canonical
answer, so this module provides it:

* :class:`GraphFamily` — a named family with typed, defaulted parameters and
  a deterministic builder;
* :data:`GRAPH_FAMILIES` — the registry covering every generator in
  :mod:`repro.graphs.generators` and :mod:`repro.graphs.synthetic`;
* :func:`parse_graph_spec` / :func:`canonical_graph_spec` — the single
  parser/formatter for ``family:arg,...`` specifications.

Specification grammar
---------------------
A graph spec is ``name`` or ``name:arg1,arg2,...``.  Arguments may be given
positionally (``hypercube:4``, in declared parameter order) or by name
(``hypercube:d=4``); integer-list parameters use ``+`` between elements in
named form (``circulant:n=24,offsets=1+2``) or consume the remaining
positional arguments (``circulant:24,1,2``).  The canonical form — what
:func:`canonical_graph_spec` emits and scenario strings embed — is fully
named with every parameter present: ``hypercube:d=4``,
``circulant:n=24,offsets=1+2``.  Parsing is strict (unknown families,
unknown or repeated parameters and malformed values raise ``ValueError``)
and building is deterministic: the same canonical spec always produces the
same graph, bit for bit, on any interpreter run.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.graphs import generators, synthetic
from repro.graphs.graph import Graph

#: Parameter kinds understood by the parser.
_KINDS = ("int", "float", "ints")


@dataclasses.dataclass(frozen=True)
class Param:
    """One typed, defaulted parameter of a graph family."""

    name: str
    kind: str  # "int" | "float" | "ints"
    default: object

    def parse(self, text: str) -> object:
        """Parse one token (named form) into this parameter's value."""
        try:
            if self.kind == "int":
                return int(text)
            if self.kind == "float":
                return float(text)
            if self.kind == "ints":
                items = [int(item) for item in text.split("+") if item != ""]
                if not items:
                    raise ValueError("empty integer list")
                return tuple(items)
        except ValueError:
            raise ValueError(
                f"parameter {self.name!r} expects {self.kind}, got {text!r}"
            ) from None
        raise ValueError(f"unknown parameter kind {self.kind!r}")

    def format(self, value: object) -> str:
        """Render a value in the canonical (named) form."""
        if self.kind == "ints":
            return "+".join(str(int(item)) for item in value)  # type: ignore[arg-type]
        if self.kind == "float":
            return format(float(value), "g")  # type: ignore[arg-type]
        return str(int(value))  # type: ignore[arg-type]


@dataclasses.dataclass(frozen=True)
class GraphFamily:
    """A named graph family: builder + typed parameters + documentation.

    ``builder`` is called with the parameter values positionally, in declared
    order; ``unwrap`` post-processes builders that return more than the graph
    (e.g. :func:`repro.graphs.synthetic.flower_graph` returns ``(graph,
    flowers)``).
    """

    name: str
    builder: Callable[..., object]
    params: Tuple[Param, ...] = ()
    description: str = ""
    unwrap: Optional[Callable[[object], Graph]] = None

    def defaults(self) -> Dict[str, object]:
        """Return the parameter defaults as a fresh dict."""
        return {param.name: param.default for param in self.params}

    def parse_arguments(self, tokens: Sequence[str]) -> Dict[str, object]:
        """Parse spec argument tokens (positional and/or named) into values.

        Positional tokens bind to parameters in declared order; a trailing
        ``ints`` parameter consumes every remaining positional token.  Named
        tokens (``key=value``) may follow positionals but not precede them.
        """
        values = self.defaults()
        by_name = {param.name: param for param in self.params}
        positional_index = 0
        seen_named = False
        assigned = set()
        for token in tokens:
            token = token.strip()
            if not token:
                continue
            if "=" in token:
                seen_named = True
                key, _, raw = token.partition("=")
                key = key.strip()
                param = by_name.get(key)
                if param is None:
                    raise ValueError(
                        f"family {self.name!r} has no parameter {key!r}; "
                        f"parameters: {[p.name for p in self.params]}"
                    )
                if param.name in assigned:
                    raise ValueError(
                        f"parameter {key!r} given more than once for {self.name!r}"
                    )
                values[param.name] = param.parse(raw.strip())
                assigned.add(param.name)
                continue
            if seen_named:
                raise ValueError(
                    f"positional argument {token!r} after named arguments "
                    f"in spec for {self.name!r}"
                )
            if positional_index >= len(self.params):
                raise ValueError(
                    f"too many arguments for family {self.name!r} "
                    f"(takes {len(self.params)})"
                )
            param = self.params[positional_index]
            if param.kind == "ints":
                # A trailing integer-list parameter absorbs the rest.
                items = values.setdefault(f"__absorb_{param.name}", [])  # type: ignore[arg-type]
                items.append(int(token))  # type: ignore[union-attr]
                assigned.add(param.name)
            else:
                values[param.name] = param.parse(token)
                assigned.add(param.name)
                positional_index += 1
        for param in self.params:
            absorbed = values.pop(f"__absorb_{param.name}", None)
            if absorbed:
                values[param.name] = tuple(absorbed)
        return values

    def build(self, **overrides: object) -> Graph:
        """Build the family's graph with defaults overridden by ``overrides``."""
        values = self.defaults()
        for key, value in overrides.items():
            if key not in values:
                raise ValueError(
                    f"family {self.name!r} has no parameter {key!r}"
                )
            values[key] = value
        result = self.builder(*[values[param.name] for param in self.params])
        if self.unwrap is not None:
            result = self.unwrap(result)
        if not isinstance(result, Graph):
            raise TypeError(
                f"builder for family {self.name!r} did not produce a Graph"
            )
        return result

    def canonical(self, values: Optional[Dict[str, object]] = None) -> str:
        """Return the canonical spec string for the given parameter values."""
        merged = self.defaults()
        if values:
            merged.update(values)
        if not self.params:
            return self.name
        rendered = ",".join(
            f"{param.name}={param.format(merged[param.name])}"
            for param in self.params
        )
        return f"{self.name}:{rendered}"

    def example(self) -> str:
        """Return the canonical spec at the family defaults (for help text)."""
        return self.canonical()


#: The registry: family name -> :class:`GraphFamily`.
GRAPH_FAMILIES: Dict[str, GraphFamily] = {}


def register_family(family: GraphFamily) -> GraphFamily:
    """Register ``family`` (rejecting duplicate names) and return it."""
    if family.name in GRAPH_FAMILIES:
        raise ValueError(f"graph family {family.name!r} is already registered")
    for param in family.params:
        if param.kind not in _KINDS:
            raise ValueError(
                f"family {family.name!r} parameter {param.name!r} has "
                f"unknown kind {param.kind!r}"
            )
    GRAPH_FAMILIES[family.name] = family
    return family


def family_by_name(name: str) -> GraphFamily:
    """Look up a family, raising a helpful ``ValueError`` when unknown."""
    family = GRAPH_FAMILIES.get(name)
    if family is None:
        raise ValueError(
            f"unknown graph family {name!r}; available: {sorted(GRAPH_FAMILIES)}"
        )
    return family


def split_graph_spec(spec: str) -> Tuple[GraphFamily, Dict[str, object]]:
    """Parse ``name:args`` into ``(family, parameter values)``."""
    name, _, argument_text = spec.partition(":")
    family = family_by_name(name.strip().lower())
    tokens = [item for item in argument_text.split(",")]
    try:
        values = family.parse_arguments(tokens)
    except (ValueError, TypeError) as exc:
        raise ValueError(
            f"invalid arguments for graph family {family.name!r}: {exc}"
        ) from exc
    return family, values


def parse_graph_spec(spec: str) -> Graph:
    """Parse a ``name:arg1,arg2`` graph specification and build the graph."""
    family, values = split_graph_spec(spec)
    try:
        return family.build(**values)
    except (ValueError, TypeError) as exc:
        raise ValueError(
            f"invalid arguments for graph family {family.name!r}: {exc}"
        ) from exc


def canonical_graph_spec(spec: str) -> str:
    """Normalise any accepted spec into its canonical fully-named form."""
    family, values = split_graph_spec(spec)
    return family.canonical(values)


def _first(result: object) -> Graph:
    """Unwrap builders that return ``(graph, structure)`` tuples."""
    return result[0]  # type: ignore[index]


def _register_all() -> None:
    families = [
        GraphFamily(
            "cycle", generators.cycle_graph, (Param("n", "int", 12),
            ), "cycle C_n (connectivity 2)"),
        GraphFamily(
            "path", generators.path_graph, (Param("n", "int", 12),
            ), "path P_n"),
        GraphFamily(
            "complete", generators.complete_graph, (Param("n", "int", 6),
            ), "complete graph K_n"),
        GraphFamily(
            "complete-bipartite", generators.complete_bipartite_graph,
            (Param("a", "int", 3), Param("b", "int", 3)),
            "complete bipartite K_{a,b}"),
        GraphFamily(
            "star", generators.star_graph, (Param("n", "int", 5),
            ), "star with n leaves"),
        GraphFamily(
            "wheel", generators.wheel_graph, (Param("n", "int", 6),
            ), "wheel: rim of n nodes plus a hub"),
        GraphFamily(
            "grid", generators.grid_graph,
            (Param("rows", "int", 4), Param("cols", "int", 4)),
            "rows x cols planar grid"),
        GraphFamily(
            "torus", generators.torus_graph,
            (Param("rows", "int", 4), Param("cols", "int", 4)),
            "rows x cols torus (4-regular)"),
        GraphFamily(
            "hypercube", generators.hypercube_graph, (Param("d", "int", 3),
            ), "d-dimensional hypercube Q_d (d-connected)"),
        GraphFamily(
            "ccc", generators.cube_connected_cycles_graph, (Param("d", "int", 3),
            ), "cube-connected cycles CCC_d (3-regular)"),
        GraphFamily(
            "butterfly", generators.butterfly_graph, (Param("d", "int", 3),
            ), "wrapped butterfly of dimension d"),
        GraphFamily(
            "debruijn", generators.de_bruijn_graph,
            (Param("base", "int", 2), Param("d", "int", 3)),
            "undirected de Bruijn graph B(base, d)"),
        GraphFamily(
            "shuffle-exchange", generators.shuffle_exchange_graph,
            (Param("d", "int", 3),),
            "shuffle-exchange network on 2^d nodes"),
        GraphFamily(
            "circulant", generators.circulant_graph,
            (Param("n", "int", 12), Param("offsets", "ints", (1, 2))),
            "circulant C_n(offsets); C_n(1..k) is 2k-connected"),
        GraphFamily(
            "harary", generators.harary_graph,
            (Param("k", "int", 3), Param("n", "int", 10)),
            "Harary graph H_{k,n} (k-connected, minimal edges)"),
        GraphFamily(
            "petersen", generators.petersen_graph, (),
            "the Petersen graph (3-regular, 3-connected)"),
        GraphFamily(
            "barbell", generators.barbell_graph,
            (Param("clique", "int", 4), Param("path", "int", 2)),
            "two cliques joined by a path"),
        GraphFamily(
            "tree", generators.tree_graph,
            (Param("branching", "int", 2), Param("depth", "int", 3)),
            "complete branching-ary tree"),
        GraphFamily(
            "gnp", generators.gnp_random_graph,
            (Param("n", "int", 30), Param("p", "float", 0.1),
             Param("seed", "int", 0)),
            "Erdos-Renyi G(n, p) sample (seeded)"),
        GraphFamily(
            "random-regular", generators.random_regular_graph,
            (Param("degree", "int", 3), Param("n", "int", 12),
             Param("seed", "int", 0)),
            "random degree-regular simple graph (seeded)"),
        GraphFamily(
            "random-connected", generators.random_connected_graph,
            (Param("n", "int", 12), Param("p", "float", 0.1),
             Param("seed", "int", 0)),
            "random spanning tree plus extra edges (seeded)"),
        GraphFamily(
            "random-k-connected", generators.random_k_connected_graph,
            (Param("n", "int", 12), Param("k", "int", 3),
             Param("p", "float", 0.05), Param("seed", "int", 0)),
            "randomised Harary base, verified >= k-connected (seeded)"),
        GraphFamily(
            "flower", synthetic.flower_graph,
            (Param("t", "int", 1), Param("k", "int", 5)),
            "(t+1)-connected gadget with a designated k-flower "
            "neighbourhood set", unwrap=_first),
        GraphFamily(
            "two-trees", synthetic.two_trees_graph, (Param("t", "int", 1),),
            "(t+1)-connected gadget with designated two-trees roots",
            unwrap=_first),
        GraphFamily(
            "kernel-test", synthetic.kernel_test_graph, (Param("t", "int", 1),),
            "two circulant islands joined by a (t+1)-node bridge separator"),
    ]
    for family in families:
        register_family(family)


_register_all()
