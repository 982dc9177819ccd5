"""Unit tests for the compiled routing artifact: format, checksums, refusal."""

import json
import os

import pytest

from repro.core import build_routing
from repro.core.route_index import RouteIndex
from repro.core.routing import MultiRouting
from repro.exceptions import ArtifactError
from repro.graphs import generators
from repro.serving import (
    ARTIFACT_FORMAT_VERSION,
    RoutingArtifact,
    ServingEngine,
    compile_routing_artifact,
    load_artifact,
)
from repro.serving.artifact import ARTIFACT_MAGIC


@pytest.fixture(scope="module")
def single_case():
    graph = generators.circulant_graph(14, [1, 2])
    result = build_routing(graph, strategy="kernel")
    artifact = compile_routing_artifact(graph, result.routing, scheme=result.scheme)
    return graph, result, artifact


@pytest.fixture(scope="module")
def multi_case():
    graph = generators.complete_graph(7)
    nodes = graph.nodes()
    routing = MultiRouting(graph)
    for source in nodes:
        for target in nodes:
            if source == target:
                continue
            routing.add_route(source, target, [source, target])
            detour = next(
                node for node in nodes if node not in (source, target)
            )
            routing.add_route(source, target, [source, detour, target])
    artifact = compile_routing_artifact(graph, routing)
    return graph, routing, artifact


class TestCompile:
    def test_flat_tables_match_routing(self, single_case):
        graph, result, artifact = single_case
        id_of = artifact.id_of
        for (source, target), path in result.routing.items():
            sid, tid = id_of[source], id_of[target]
            assert artifact.next_hop_id(sid, tid) == id_of[path[1]]
            assert artifact.route_ids(sid, tid) == tuple(
                id_of[node] for node in path
            )

    def test_unrouted_pairs_are_minus_one(self, single_case):
        graph, result, artifact = single_case
        n = artifact.n
        routed = sum(1 for hop in artifact.next_hop if hop >= 0)
        assert routed == len(result.routing)
        for sid in range(n):
            assert artifact.next_hop_id(sid, sid) == -1
            assert artifact.route_ids(sid, sid) == ()

    def test_fingerprint_is_the_routing_fingerprint(self, single_case):
        _graph, result, artifact = single_case
        assert artifact.fingerprint == result.routing.fingerprint()

    def test_multi_primary_route_in_flat_tables(self, multi_case):
        _graph, routing, artifact = multi_case
        id_of = artifact.id_of
        for source, target in routing.pairs():
            primary = routing.get_routes(source, target)[0]
            sid, tid = id_of[source], id_of[target]
            assert artifact.next_hop_id(sid, tid) == id_of[primary[1]]

    def test_compile_with_foreign_index_refused(self, single_case):
        graph, result, _artifact = single_case
        other_graph = generators.cycle_graph(6)
        other = build_routing(other_graph, strategy="kernel")
        foreign = RouteIndex(other_graph, other.routing)
        with pytest.raises(ArtifactError):
            compile_routing_artifact(graph, result.routing, index=foreign)

    def test_to_index_evaluates_like_the_original(self, single_case):
        graph, result, artifact = single_case
        original = RouteIndex(graph, result.routing)
        rebuilt = artifact.to_index()
        nodes = graph.nodes()
        for faults in ([], [nodes[0]], [nodes[1], nodes[5]]):
            assert rebuilt.surviving_diameter(
                faults
            ) == original.surviving_diameter(faults)


class TestDiskRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path, single_case):
        _graph, _result, artifact = single_case
        path = os.path.join(tmp_path, "a.repart")
        artifact.save(path)
        loaded = load_artifact(path)
        assert loaded.fingerprint == artifact.fingerprint
        assert loaded.nodes == artifact.nodes
        assert loaded.scheme == artifact.scheme
        assert list(loaded.next_hop) == list(artifact.next_hop)
        assert list(loaded.route_offsets) == list(artifact.route_offsets)
        assert list(loaded.route_nodes) == list(artifact.route_nodes)
        assert loaded.base_rows == artifact.base_rows
        assert loaded.base_preds == artifact.base_preds
        assert loaded.kill_rows == artifact.kill_rows

    def test_multi_round_trip(self, tmp_path, multi_case):
        graph, routing, artifact = multi_case
        path = os.path.join(tmp_path, "m.repart")
        artifact.save(path)
        loaded = load_artifact(path)
        assert loaded.multi
        assert loaded.pair_list == artifact.pair_list
        assert loaded.pair_route_counts == artifact.pair_route_counts
        assert loaded.pair_route_masks == artifact.pair_route_masks
        assert list(loaded.multi_route_nodes) == list(artifact.multi_route_nodes)
        original = RouteIndex(graph, routing)
        nodes = graph.nodes()
        assert loaded.to_index().surviving_diameter(
            [nodes[2]]
        ) == original.surviving_diameter([nodes[2]])

    def test_header_backend_fields_are_ignored(self, tmp_path, single_case):
        """Artifacts that still carry ``backend`` and ``density_threshold``
        header fields (as earlier writers laid them out, same format
        version) load and serve exactly like a fresh compile."""
        graph, result, artifact = single_case
        path = os.path.join(tmp_path, "older.repart")
        artifact.save(path)
        blob = open(path, "rb").read()
        start = len(ARTIFACT_MAGIC) + 4
        length = int.from_bytes(blob[len(ARTIFACT_MAGIC) : start], "big")
        header = json.loads(blob[start : start + length])
        assert "backend" not in header and "density_threshold" not in header
        header.update(backend="numpy", density_threshold=8)
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(
                ARTIFACT_MAGIC
                + len(header_bytes).to_bytes(4, "big")
                + header_bytes
                + blob[start + length :]
            )
        served = ServingEngine(
            load_artifact(path, expect_fingerprint=artifact.fingerprint)
        )
        fresh = ServingEngine(compile_routing_artifact(graph, result.routing))
        # The backend is chosen when serving, never by the artifact.
        assert served.index.backend == "bitset"
        nodes = graph.nodes()
        pairs = [(s, d) for s in nodes for d in nodes if s != d]
        for faults in ([], [nodes[0]], [nodes[1], nodes[5]]):
            served.set_faults(faults)
            fresh.set_faults(faults)
            assert served.surviving_diameter() == fresh.surviving_diameter()
            assert served.batch_next_hop(pairs) == fresh.batch_next_hop(pairs)

    def test_tuple_node_labels_survive(self, tmp_path):
        graph = generators.grid_graph(3, 3)  # tuple-labelled nodes
        result = build_routing(graph, strategy="kernel")
        artifact = compile_routing_artifact(graph, result.routing)
        path = os.path.join(tmp_path, "g.repart")
        artifact.save(path)
        loaded = load_artifact(path)
        assert loaded.nodes == artifact.nodes
        assert all(isinstance(node, tuple) for node in loaded.nodes)


class TestRefusal:
    def _saved(self, tmp_path, artifact):
        path = os.path.join(tmp_path, "a.repart")
        artifact.save(path)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read"):
            load_artifact(os.path.join(tmp_path, "nope.repart"))

    def test_bad_magic(self, tmp_path):
        path = os.path.join(tmp_path, "bad.repart")
        with open(path, "wb") as handle:
            handle.write(b"NOTANART" + b"\x00" * 64)
        with pytest.raises(ArtifactError, match="bad magic"):
            load_artifact(path)

    def test_truncated_header(self, tmp_path, single_case):
        _graph, _result, artifact = single_case
        path = self._saved(tmp_path, artifact)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(ARTIFACT_MAGIC) + 6])
        with pytest.raises(ArtifactError, match="truncated"):
            load_artifact(path)

    def test_payload_tamper_detected(self, tmp_path, single_case):
        _graph, _result, artifact = single_case
        path = self._saved(tmp_path, artifact)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF  # flip one payload byte
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum"):
            load_artifact(path)

    def test_format_version_mismatch(self, tmp_path, single_case):
        _graph, _result, artifact = single_case
        path = self._saved(tmp_path, artifact)
        blob = open(path, "rb").read()
        start = len(ARTIFACT_MAGIC) + 4
        length = int.from_bytes(blob[len(ARTIFACT_MAGIC) : start], "big")
        header = blob[start : start + length].replace(
            b'"format": %d' % ARTIFACT_FORMAT_VERSION,
            b'"format": %d' % (ARTIFACT_FORMAT_VERSION + 1),
        )
        assert header != blob[start : start + length]
        with open(path, "wb") as handle:
            handle.write(
                ARTIFACT_MAGIC
                + len(header).to_bytes(4, "big")
                + header
                + blob[start + length :]
            )
        with pytest.raises(ArtifactError, match="format version"):
            load_artifact(path)

    def test_fingerprint_mismatch_refused(self, tmp_path, single_case):
        _graph, _result, artifact = single_case
        path = self._saved(tmp_path, artifact)
        with pytest.raises(ArtifactError, match="fingerprint"):
            load_artifact(path, expect_fingerprint="0" * 64)

    def test_matching_fingerprint_accepted(self, tmp_path, single_case):
        _graph, _result, artifact = single_case
        path = self._saved(tmp_path, artifact)
        loaded = load_artifact(path, expect_fingerprint=artifact.fingerprint)
        assert isinstance(loaded, RoutingArtifact)
