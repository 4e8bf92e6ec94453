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
from repro.models.cryptolib import profile_for_network
from repro.models.fluid import fluid_alltoall_phases
from repro.models.network import get_network


def test_registry_entry_is_fast_tier_with_the_scale_cluster():
    exp = get_experiment("scale")
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
    # OpenSSL has BoringSSL's calibration, so it has no curve of its own
    assert labels == ["baseline", "boringssl", "libsodium", "cryptopp"]
    # the ordering the paper's story rests on, at every rank point:
    # encryption costs something, and the libraries keep the enc-dec
    # ranking of Fig. 2
    by_label = {s["label"]: dict((x, y) for x, y in s["points"])
                for s in doc["series"]}
    assert sorted(by_label["baseline"]) == list(scale_mod.RANK_POINTS)
    for n in scale_mod.RANK_POINTS:
        curve = [by_label[label][n] for label in labels]
        assert all(a < b for a, b in zip(curve, curve[1:])), (n, curve)


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
    """Each rank seals one block per peer on its own core: doubling N
    doubles the seals (same per-block cost, closed form)."""
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
