"""The scale experiment and its fluid collective model.

The experiment evaluates the closed-form model at every point, so
these tests build the full 4096-rank artifact, as committed in
``results/scale.*``.
"""

import json

import pytest

from repro.experiments import scale as scale_mod
from repro.experiments.registry import get_experiment
from repro.experiments.report import artifact_dict
from repro.models.cryptolib import PROFILED_LIBRARIES, profile_for_network
from repro.models.fluid import fluid_alltoall_phases
from repro.models.network import get_network


def test_registry_entry_is_fast_tier_with_the_scale_cluster():
    exp = get_experiment("scale")
    assert exp.cost == "fast"
    assert exp.runner is scale_mod.scale
    assert scale_mod.SCALE_CLUSTER.token() == "1024x8"


def test_scale_artifact_reduced_tier_is_deterministic():
    exp = get_experiment("scale")
    first = json.dumps(artifact_dict(exp, scale_mod.scale()), sort_keys=True)
    second = json.dumps(artifact_dict(exp, scale_mod.scale()), sort_keys=True)
    assert first == second
    doc = json.loads(first)
    assert doc["kind"] == "figure"
    labels = [s["label"] for s in doc["series"]]
    assert labels[0] == "baseline"
    for lib in PROFILED_LIBRARIES:
        assert f"{lib}/serial" in labels
        assert f"{lib}/cryptmpi" in labels
    # ordering the paper's story rests on, at every rank point:
    # encryption costs something, and the cryptmpi plan claws part of
    # it back
    by_label = {s["label"]: dict((x, y) for x, y in s["points"])
                for s in doc["series"]}
    assert sorted(by_label["baseline"]) == list(scale_mod.RANK_POINTS)
    for n in scale_mod.RANK_POINTS:
        base = by_label["baseline"][n]
        for lib in PROFILED_LIBRARIES:
            serial = by_label[f"{lib}/serial"][n]
            pipelined = by_label[f"{lib}/cryptmpi"][n]
            assert base <= pipelined < serial, (lib, n)


# ---------------------------------------------------------- fluid phases

def test_fluid_phases_validation():
    cluster = scale_mod.SCALE_CLUSTER
    net = get_network("ethernet")
    with pytest.raises(ValueError, match=">= 2 ranks"):
        fluid_alltoall_phases(1, 1024, cluster=cluster, network=net)
    with pytest.raises(ValueError, match="msg_bytes"):
        fluid_alltoall_phases(4, 0, cluster=cluster, network=net)
    with pytest.raises(ValueError, match="exceed"):
        fluid_alltoall_phases(
            cluster.total_cores + 1, 1024, cluster=cluster, network=net
        )


def test_fluid_crypto_scales_with_rank_count():
    """Serial sealing is one wave per peer: doubling N doubles the seal
    phase exactly (same per-chunk cost, closed form)."""
    cluster = scale_mod.SCALE_CLUSTER
    net = get_network("ethernet")
    profile = profile_for_network("boringssl", "ethernet")
    small = fluid_alltoall_phases(
        1024, 4096, cluster=cluster, network=net, profile=profile)
    large = fluid_alltoall_phases(
        2048, 4096, cluster=cluster, network=net, profile=profile)
    seal_small = small.cpu_send_seconds
    seal_large = large.cpu_send_seconds
    assert seal_large > seal_small
    assert large.total_seconds > small.total_seconds


def test_fluid_pipelined_never_slower_than_serial():
    cluster = scale_mod.SCALE_CLUSTER
    net = get_network("ethernet")
    profile = profile_for_network("libsodium", "ethernet")
    for nranks in (64, 1024, 4096):
        serial = fluid_alltoall_phases(
            nranks, 16384, cluster=cluster, network=net, profile=profile)
        piped = fluid_alltoall_phases(
            nranks, 16384, cluster=cluster, network=net, profile=profile,
            pipelined=True)
        assert piped.total_seconds <= serial.total_seconds
