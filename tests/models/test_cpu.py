"""Cluster shape / rank placement tests, plus the shared wave formula."""

import math

import pytest

from repro.models.cpu import (
    PAPER_CLUSTER,
    TWO_NODE_CLUSTER,
    ClusterSpec,
    parse_cluster_spec,
    pipeline_waves,
)


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


def test_ranks_on_node():
    assert PAPER_CLUSTER.ranks_on_node(1, 64) == list(range(8, 16))
    assert TWO_NODE_CLUSTER.ranks_on_node(1, 2) == [1]


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


def test_pipeline_waves_values():
    assert pipeline_waves(1, 4) == 1
    assert pipeline_waves(4, 4) == 1
    assert pipeline_waves(5, 4) == 2
    assert pipeline_waves(16, 7) == 3
    assert pipeline_waves(9, 1) == 9


def test_pipeline_waves_rejects_bad_args():
    with pytest.raises(ValueError):
        pipeline_waves(0, 4)
    with pytest.raises(ValueError):
        pipeline_waves(4, 0)


def test_wave_formula_shared():
    # The pipeline planner (repro.encmpi.pipeline.plan_pipeline) and the
    # fluid collectives (repro.simmpi.collectives.fluid) both count
    # waves through pipeline_waves; this pins the planner to it: its
    # wave count equals the shared formula for every geometry it
    # pipelines, and degenerates to one wave exactly when it refuses
    # to pipeline (one core, or nothing to chunk).
    from repro.encmpi.pipeline import plan_pipeline
    from repro.models.cryptolib import get_profile

    profile = get_profile("boringssl")
    kib = 1024
    for size in (4 * kib, 64 * kib, 100 * kib, 256 * kib, 1024 * kib,
                 1024 * kib + 1, 4096 * kib):
        for cores in (1, 2, 3, 7, 8):
            for chunk in (64 * kib, 128 * kib, 256 * kib):
                plan = plan_pipeline(profile, size, cores, chunk_bytes=chunk)
                if size > chunk and cores > 1:
                    nchunks = math.ceil(size / chunk)
                    assert plan.nchunks == nchunks
                    assert plan.waves == pipeline_waves(nchunks, cores)
                else:
                    assert plan.waves == 1


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
