"""Cluster shape / rank placement tests."""

import pytest

from repro.des.process import Scheduler
from repro.models.cpu import (
    PAPER_CLUSTER,
    TWO_NODE_CLUSTER,
    ClusterSpec,
    parse_cluster_spec,
)
from repro.models.network import ethernet_10g
from repro.simmpi.topology import ClusterRuntime


def test_paper_cluster_shape():
    assert PAPER_CLUSTER.nodes == 8
    assert PAPER_CLUSTER.cores_per_node == 8
    assert PAPER_CLUSTER.total_cores == 64


def test_block_placement_64_ranks():
    # 64 ranks / 8 nodes: ranks 0-7 on node 0, 8-15 on node 1, ...
    assert PAPER_CLUSTER.node_of(0, 64) == 0
    assert PAPER_CLUSTER.node_of(7, 64) == 0
    assert PAPER_CLUSTER.node_of(8, 64) == 1
    assert PAPER_CLUSTER.node_of(63, 64) == 7


def test_block_placement_16_ranks_8_nodes():
    # The paper's 16 rank/8 node setting: 2 ranks per node.
    nodes = [PAPER_CLUSTER.node_of(r, 16) for r in range(16)]
    assert nodes == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7]


def test_block_placement_4_ranks_8_nodes():
    # 4 rank/4 node setting (one rank per node on the first 4 nodes).
    nodes = [PAPER_CLUSTER.node_of(r, 4) for r in range(4)]
    assert nodes == [0, 1, 2, 3]


def test_block_placement_uneven():
    spec = ClusterSpec(nodes=3, cores_per_node=4)
    nodes = [spec.node_of(r, 7) for r in range(7)]
    # 7 ranks over 3 nodes: 3 + 2 + 2.
    assert nodes == [0, 0, 0, 1, 1, 2, 2]


def test_roundrobin_placement():
    nodes = [PAPER_CLUSTER.node_of(r, 16, "roundrobin") for r in range(16)]
    assert nodes == [r % 8 for r in range(16)]


def test_runtime_core_allocators_follow_the_placement():
    # ClusterRuntime places each rank once; every node's allocator
    # holds one resident core per rank placed there, the rest helpers
    cases = [
        (PAPER_CLUSTER, 64, "block", [8] * 8),
        (ClusterSpec(nodes=3, cores_per_node=4), 7, "block", [3, 2, 2]),
        (PAPER_CLUSTER, 4, "block", [1, 1, 1, 1, 0, 0, 0, 0]),
        (PAPER_CLUSTER, 16, "roundrobin", [2] * 8),
    ]
    for spec, nranks, placement, residents in cases:
        runtime = ClusterRuntime(Scheduler(), spec, ethernet_10g(), nranks,
                                 placement=placement)
        placed = [spec.node_of(r, nranks, placement) for r in range(nranks)]
        assert [placed.count(i) for i in range(spec.nodes)] == residents
        assert [node.alloc.resident_ranks for node in runtime.nodes] \
            == residents
        assert [node.alloc.helpers for node in runtime.nodes] \
            == [spec.cores_per_node - n for n in residents]
        assert [runtime.node_of(r).index for r in range(nranks)] == placed


def test_oversubscription_rejected():
    with pytest.raises(ValueError, match="oversubscribe"):
        PAPER_CLUSTER.validate_ranks(65)


def test_validation():
    with pytest.raises(ValueError):
        ClusterSpec(nodes=0, cores_per_node=8)
    with pytest.raises(ValueError):
        PAPER_CLUSTER.node_of(64, 64)
    with pytest.raises(ValueError):
        PAPER_CLUSTER.node_of(0, 0)
    with pytest.raises(ValueError):
        PAPER_CLUSTER.node_of(0, 16, "random")


# ------------------------------------------------------- parse_cluster_spec

def test_parse_cluster_spec_round_trips_with_token():
    for spec in ("8x8", "2x8", "1024x8", "4x2"):
        cluster = parse_cluster_spec(spec)
        assert cluster.token() == spec
        assert parse_cluster_spec(cluster.token()) == cluster


def test_parse_cluster_spec_matches_the_named_constants():
    assert parse_cluster_spec("8x8") == PAPER_CLUSTER
    assert parse_cluster_spec("2x8") == TWO_NODE_CLUSTER


@pytest.mark.parametrize("bad", ["8", "x8", "8x", "ax8", "8xb", "8*8", "",
                                 "2x8:ib"])
def test_parse_cluster_spec_rejects_malformed(bad):
    with pytest.raises(ValueError, match="NODESxCORES|integer"):
        parse_cluster_spec(bad)


def test_parse_cluster_spec_rejects_bad_shapes():
    with pytest.raises(ValueError):
        parse_cluster_spec("0x8")
    with pytest.raises(ValueError):
        parse_cluster_spec("8x0")
