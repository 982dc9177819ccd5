"""Compiled routing artifacts: flat next-hop tables in a versioned container.

The sweep pipeline treats a routing as something to *evaluate*; the serving
layer treats it as something to *look up*.  :func:`compile_routing_artifact`
lowers a built :class:`~repro.core.routing.Routing` (or
:class:`~repro.core.routing.MultiRouting`) into a :class:`RoutingArtifact` —
an immutable bundle of flat arrays keyed by the same ``0..n-1`` node
relabelling the :class:`~repro.core.route_index.RouteIndex` bitset kernel
uses:

* ``next_hop`` — one ``int32`` per ordered pair (``s * n + d``): the id of
  the first hop of ``rho(s, d)``, or ``-1`` where the pair carries no route.
  A batch of point queries is then a single gather into this table.
* ``route_offsets`` / ``route_nodes`` — every route laid out end to end,
  with one offset per pair, so a full-route query is two offset reads and a
  slice (for multiroutings this is the primary route; the parallel routes
  live in the ``multi_*`` sections below).
* the packed evaluation state exported by
  :meth:`~repro.core.route_index.RouteIndex.export_state` — base adjacency
  and predecessor rows plus per-node kill masks (or per-pair route masks) —
  so the serving engine rebuilds a full evaluation index (cursors, batched
  kernels, every backend) without the graph or routing objects.

On disk an artifact is a single file: an 8-byte magic, a JSON header
(format version, the source routing's canonical
:meth:`~repro.core.routing.Routing.fingerprint`, node labels, section
directory, payload checksum) and the raw little-endian array payload.
:func:`load_artifact` refuses loudly — :class:`~repro.exceptions
.ArtifactError` — on unknown magic, a format-version mismatch, a payload
that fails its checksum (tampering, torn writes) and, when the caller
supplies the expected value, a routing-fingerprint mismatch.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from array import array
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core.route_index import EVAL_BACKEND_BITSET, RouteIndex
from repro.core.routing import MultiRouting, Routing
from repro.exceptions import ArtifactError
from repro.graphs.graph import Graph
from repro.serialization import decode_node, encode_node

Node = Hashable
AnyRouting = Union[Routing, MultiRouting]

#: Magic prefix of every artifact file.
ARTIFACT_MAGIC = b"REPROART"

#: Bumped whenever the container layout or a section's meaning changes; a
#: reader only accepts exactly its own version (artifacts are cheap to
#: recompile, silent misreads are not).
ARTIFACT_FORMAT_VERSION = 1

_I4, _I8 = "<i4", "<i8"
_MASK = "mask"

#: Section order is part of the format: payload bytes are concatenated in
#: exactly this order and the checksum covers them as laid out.
_SECTION_ORDER = (
    "next_hop",
    "route_offsets",
    "route_nodes",
    "base_rows",
    "base_preds",
    "kill_counts",
    "kill_sids",
    "kill_masks",
    "pair_list",
    "pair_route_counts",
    "pair_route_masks",
    "multi_route_offsets",
    "multi_route_nodes",
)


def _int_array(typecode: str, values: Sequence[int]) -> array:
    arr = array(typecode, values)
    if arr.itemsize != {"i": 4, "q": 8}[typecode]:  # pragma: no cover
        raise ArtifactError(
            f"platform array({typecode!r}) width {arr.itemsize} is not the "
            "artifact's fixed width; cannot compile a portable artifact"
        )
    return arr


def _array_bytes(arr: array) -> bytes:
    if sys.byteorder == "big":  # pragma: no cover - little-endian on disk
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def _bytes_array(typecode: str, data: bytes) -> array:
    arr = array(typecode)
    arr.frombytes(data)
    if sys.byteorder == "big":  # pragma: no cover - little-endian on disk
        arr.byteswap()
    return arr


def _masks_bytes(masks: Sequence[int], width: int) -> bytes:
    return b"".join(mask.to_bytes(width, "little") for mask in masks)


def _bytes_masks(data: bytes, width: int) -> List[int]:
    if width == 0:
        return []
    return [
        int.from_bytes(data[pos : pos + width], "little")
        for pos in range(0, len(data), width)
    ]


class RoutingArtifact:
    """An immutable compiled routing: flat lookup tables + evaluation state.

    Instances come from :func:`compile_routing_artifact` (fresh compilation)
    or :func:`load_artifact` (disk).  The artifact owns no graph and no
    routing object — only arrays — which is exactly what lets a serving
    process load and answer queries for a routing it never built.
    """

    def __init__(
        self,
        *,
        fingerprint: str,
        nodes: Tuple[Node, ...],
        multi: bool,
        scheme: str,
        routing_name: str,
        next_hop: array,
        route_offsets: array,
        route_nodes: array,
        base_rows: List[int],
        base_preds: List[int],
        kill_rows: Optional[List[Dict[int, int]]] = None,
        pair_list: Optional[List[Tuple[int, int]]] = None,
        pair_route_counts: Optional[List[int]] = None,
        pair_route_masks: Optional[List[int]] = None,
        multi_route_offsets: Optional[array] = None,
        multi_route_nodes: Optional[array] = None,
    ) -> None:
        self.fingerprint = fingerprint
        self.nodes = nodes
        self.n = len(nodes)
        self.multi = multi
        self.scheme = scheme
        self.routing_name = routing_name
        self.next_hop = next_hop
        self.route_offsets = route_offsets
        self.route_nodes = route_nodes
        self.base_rows = base_rows
        self.base_preds = base_preds
        self.kill_rows = kill_rows
        self.pair_list = pair_list
        self.pair_route_counts = pair_route_counts
        self.pair_route_masks = pair_route_masks
        self.multi_route_offsets = multi_route_offsets
        self.multi_route_nodes = multi_route_nodes
        self.id_of: Dict[Node, int] = {
            node: position for position, node in enumerate(nodes)
        }
        self._mask_width = (self.n + 63) // 64 * 8

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def next_hop_id(self, sid: int, tid: int) -> int:
        """First-hop id of the primary route for ``(sid, tid)``, or ``-1``."""
        return self.next_hop[sid * self.n + tid]

    def route_ids(self, sid: int, tid: int) -> Tuple[int, ...]:
        """Primary route of ``(sid, tid)`` as node ids (empty if unrouted)."""
        pair = sid * self.n + tid
        start, stop = self.route_offsets[pair], self.route_offsets[pair + 1]
        return tuple(self.route_nodes[start:stop])

    def to_index(self, backend: Optional[str] = None) -> RouteIndex:
        """Rebuild the evaluation-only :class:`RouteIndex` for this artifact.

        ``backend`` (``"bitset"`` by default, also for ``None``, or
        ``"numpy"``) is chosen here, at serve time: the artifact itself is
        backend-neutral.  Serving does not apply the index's backend rule.
        """
        state: Dict[str, object] = {
            "nodes": self.nodes,
            "multi": self.multi,
            "base_rows": self.base_rows,
            "base_preds": self.base_preds,
        }
        if self.multi:
            pair_routes: Dict[Tuple[int, int], Tuple[int, ...]] = {}
            cursor = 0
            for pair, count in zip(self.pair_list, self.pair_route_counts):
                pair_routes[pair] = tuple(
                    self.pair_route_masks[cursor : cursor + count]
                )
                cursor += count
            state["pair_routes"] = pair_routes
        else:
            state["kill_rows"] = self.kill_rows
        return RouteIndex.from_state(
            state, backend=EVAL_BACKEND_BITSET if backend is None else backend
        )

    # ------------------------------------------------------------------
    # Disk format
    # ------------------------------------------------------------------
    def _sections(self) -> Dict[str, Tuple[bytes, str]]:
        width = self._mask_width
        sections: Dict[str, Tuple[bytes, str]] = {
            "next_hop": (_array_bytes(self.next_hop), _I4),
            "route_offsets": (_array_bytes(self.route_offsets), _I8),
            "route_nodes": (_array_bytes(self.route_nodes), _I4),
            "base_rows": (_masks_bytes(self.base_rows, width), _MASK),
            "base_preds": (_masks_bytes(self.base_preds, width), _MASK),
        }
        if self.multi:
            flat_pairs: List[int] = []
            for sid, tid in self.pair_list:
                flat_pairs.append(sid)
                flat_pairs.append(tid)
            sections["pair_list"] = (
                _array_bytes(_int_array("i", flat_pairs)),
                _I4,
            )
            sections["pair_route_counts"] = (
                _array_bytes(_int_array("i", self.pair_route_counts)),
                _I4,
            )
            sections["pair_route_masks"] = (
                _masks_bytes(self.pair_route_masks, width),
                _MASK,
            )
            sections["multi_route_offsets"] = (
                _array_bytes(self.multi_route_offsets),
                _I8,
            )
            sections["multi_route_nodes"] = (
                _array_bytes(self.multi_route_nodes),
                _I4,
            )
        else:
            counts: List[int] = []
            sids: List[int] = []
            masks: List[int] = []
            for kill in self.kill_rows:
                counts.append(len(kill))
                for sid, mask in kill.items():
                    sids.append(sid)
                    masks.append(mask)
            sections["kill_counts"] = (
                _array_bytes(_int_array("i", counts)),
                _I4,
            )
            sections["kill_sids"] = (_array_bytes(_int_array("i", sids)), _I4)
            sections["kill_masks"] = (_masks_bytes(masks, width), _MASK)
        return sections

    def save(self, path: str) -> None:
        """Write the artifact to ``path`` (atomically, via a temp sibling)."""
        sections = self._sections()
        directory: Dict[str, List[object]] = {}
        payload_parts: List[bytes] = []
        offset = 0
        for name in _SECTION_ORDER:
            if name not in sections:
                continue
            data, dtype = sections[name]
            directory[name] = [offset, len(data), dtype]
            payload_parts.append(data)
            offset += len(data)
        payload = b"".join(payload_parts)
        header = {
            "format": ARTIFACT_FORMAT_VERSION,
            "kind": "routing-artifact",
            "fingerprint": self.fingerprint,
            "scheme": self.scheme,
            "routing_name": self.routing_name,
            "multi": self.multi,
            "n": self.n,
            "mask_bytes": self._mask_width,
            "nodes": [encode_node(node) for node in self.nodes],
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "sections": directory,
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        blob = (
            ARTIFACT_MAGIC
            + len(header_bytes).to_bytes(4, "big")
            + header_bytes
            + payload
        )
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)

    def describe(self) -> str:
        """One-line human summary (used by ``repro compile`` / ``serve``)."""
        routed = sum(1 for hop in self.next_hop if hop >= 0)
        kind = "multirouting" if self.multi else "routing"
        return (
            f"compiled {kind} artifact: n={self.n}, {routed} routed pairs, "
            f"scheme={self.scheme or '?'}, fingerprint={self.fingerprint[:12]}…"
        )


def compile_routing_artifact(
    graph: Graph,
    routing: AnyRouting,
    *,
    scheme: str = "",
    index: Optional[RouteIndex] = None,
) -> RoutingArtifact:
    """Lower a built routing into a :class:`RoutingArtifact`.

    Builds (or reuses, via ``index``) the :class:`RouteIndex` for the pair,
    exports its evaluation state, and lays the route table out as flat
    next-hop / route arrays keyed by the index's ``0..n-1`` relabelling.
    The artifact is versioned on ``routing.fingerprint()``.
    """
    if index is None:
        index = RouteIndex(graph, routing)
    elif not index.matches(graph, routing):
        raise ArtifactError(
            "the supplied index was built for a different (graph, routing) pair"
        )
    state = index.export_state()
    nodes: Tuple[Node, ...] = tuple(state["nodes"])
    n = len(nodes)
    id_of = {node: position for position, node in enumerate(nodes)}
    multi = isinstance(routing, MultiRouting)

    next_hop = _int_array("i", [-1] * (n * n))
    routes_by_pair: Dict[int, Tuple[int, ...]] = {}
    pair_list: List[Tuple[int, int]] = []
    pair_route_counts: List[int] = []
    pair_route_masks: List[int] = []
    multi_offsets: List[int] = [0]
    multi_nodes: List[int] = []
    if multi:
        # Pair order must match the index's ``pair_routes`` insertion order:
        # the per-route masks are identified positionally.
        for (sid, tid), masks in state["pair_routes"].items():
            paths = routing.get_routes(nodes[sid], nodes[tid])
            pair_list.append((sid, tid))
            pair_route_counts.append(len(masks))
            pair_route_masks.extend(masks)
            for path in paths:
                path_ids = tuple(id_of[node] for node in path)
                multi_nodes.extend(path_ids)
                multi_offsets.append(len(multi_nodes))
            primary = tuple(id_of[node] for node in paths[0])
            routes_by_pair[sid * n + tid] = primary
            next_hop[sid * n + tid] = primary[1]
    else:
        for (source, target), path in routing.items():
            sid, tid = id_of[source], id_of[target]
            path_ids = tuple(id_of[node] for node in path)
            routes_by_pair[sid * n + tid] = path_ids
            next_hop[sid * n + tid] = path_ids[1]

    route_offsets = _int_array("q", [0] * (n * n + 1))
    route_nodes: List[int] = []
    for pair in range(n * n):
        path_ids = routes_by_pair.get(pair)
        if path_ids:
            route_nodes.extend(path_ids)
        route_offsets[pair + 1] = len(route_nodes)

    fingerprint = routing.fingerprint()
    kwargs: Dict[str, object] = {}
    if multi:
        kwargs.update(
            pair_list=pair_list,
            pair_route_counts=pair_route_counts,
            pair_route_masks=pair_route_masks,
            multi_route_offsets=_int_array("q", multi_offsets),
            multi_route_nodes=_int_array("i", multi_nodes),
        )
    else:
        kwargs.update(kill_rows=state["kill_rows"])
    return RoutingArtifact(
        fingerprint=fingerprint,
        nodes=nodes,
        multi=multi,
        scheme=scheme,
        routing_name=routing.name or "",
        next_hop=next_hop,
        route_offsets=route_offsets,
        route_nodes=_int_array("i", route_nodes),
        base_rows=list(state["base_rows"]),
        base_preds=list(state["base_preds"]),
        **kwargs,
    )


def load_artifact(
    path: str, expect_fingerprint: Optional[str] = None
) -> RoutingArtifact:
    """Load (and verify) an artifact written by :meth:`RoutingArtifact.save`.

    Verification is unconditional for structure — magic, format version,
    section directory bounds and the payload SHA-256 — and opt-in for
    provenance: with ``expect_fingerprint`` the header's routing fingerprint
    must match exactly (``repro serve`` passes the fingerprint of a freshly
    rebuilt construction here).  Every failure raises
    :class:`~repro.exceptions.ArtifactError`.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path!r}: {exc}") from exc
    if len(blob) < len(ARTIFACT_MAGIC) + 4 or not blob.startswith(ARTIFACT_MAGIC):
        raise ArtifactError(
            f"{path!r} is not a routing artifact (bad magic); expected a file "
            "written by RoutingArtifact.save"
        )
    header_start = len(ARTIFACT_MAGIC) + 4
    header_len = int.from_bytes(blob[len(ARTIFACT_MAGIC) : header_start], "big")
    if header_start + header_len > len(blob):
        raise ArtifactError(f"artifact {path!r} is truncated (header)")
    try:
        header = json.loads(blob[header_start : header_start + header_len])
    except ValueError as exc:
        raise ArtifactError(f"artifact {path!r} has a corrupt header") from exc
    version = header.get("format")
    if version != ARTIFACT_FORMAT_VERSION:
        raise ArtifactError(
            f"artifact {path!r} has format version {version!r}; this build "
            f"reads exactly version {ARTIFACT_FORMAT_VERSION} — recompile the "
            "artifact with `repro compile`"
        )
    if header.get("kind") != "routing-artifact":
        raise ArtifactError(f"artifact {path!r} has kind {header.get('kind')!r}")
    payload = blob[header_start + header_len :]
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise ArtifactError(
            f"artifact {path!r} failed its payload checksum (tampered or torn "
            f"write): header says {header.get('payload_sha256')!r}, payload "
            f"hashes to {digest!r}"
        )
    fingerprint = header.get("fingerprint", "")
    if expect_fingerprint is not None and fingerprint != expect_fingerprint:
        raise ArtifactError(
            f"artifact {path!r} was compiled from a routing with fingerprint "
            f"{fingerprint[:16]}…, but the expected construction fingerprints "
            f"to {expect_fingerprint[:16]}… — the artifact does not serve "
            "this routing; recompile it with `repro compile`"
        )

    directory = header.get("sections", {})

    def section(name: str) -> bytes:
        entry = directory.get(name)
        if entry is None:
            raise ArtifactError(f"artifact {path!r} lacks section {name!r}")
        offset, nbytes, _dtype = entry
        if offset + nbytes > len(payload):
            raise ArtifactError(
                f"artifact {path!r} section {name!r} overruns the payload"
            )
        return payload[offset : offset + nbytes]

    nodes = tuple(decode_node(value) for value in header["nodes"])
    n = int(header["n"])
    if len(nodes) != n:
        raise ArtifactError(
            f"artifact {path!r} header n={n} disagrees with its "
            f"{len(nodes)} node labels"
        )
    width = int(header["mask_bytes"])
    multi = bool(header["multi"])
    kwargs: Dict[str, object] = {}
    if multi:
        flat_pairs = _bytes_array("i", section("pair_list"))
        kwargs["pair_list"] = [
            (flat_pairs[i], flat_pairs[i + 1])
            for i in range(0, len(flat_pairs), 2)
        ]
        kwargs["pair_route_counts"] = list(
            _bytes_array("i", section("pair_route_counts"))
        )
        kwargs["pair_route_masks"] = _bytes_masks(
            section("pair_route_masks"), width
        )
        kwargs["multi_route_offsets"] = _bytes_array(
            "q", section("multi_route_offsets")
        )
        kwargs["multi_route_nodes"] = _bytes_array(
            "i", section("multi_route_nodes")
        )
    else:
        counts = _bytes_array("i", section("kill_counts"))
        sids = _bytes_array("i", section("kill_sids"))
        masks = _bytes_masks(section("kill_masks"), width)
        kill_rows: List[Dict[int, int]] = []
        cursor = 0
        for count in counts:
            kill_rows.append(
                {
                    sids[position]: masks[position]
                    for position in range(cursor, cursor + count)
                }
            )
            cursor += count
        kwargs["kill_rows"] = kill_rows
    return RoutingArtifact(
        fingerprint=fingerprint,
        nodes=nodes,
        multi=multi,
        scheme=header.get("scheme", ""),
        routing_name=header.get("routing_name", ""),
        next_hop=_bytes_array("i", section("next_hop")),
        route_offsets=_bytes_array("q", section("route_offsets")),
        route_nodes=_bytes_array("i", section("route_nodes")),
        base_rows=_bytes_masks(section("base_rows"), width),
        base_preds=_bytes_masks(section("base_preds"), width),
        **kwargs,
    )
