"""NAS proxy tests (scaled-down clusters for speed; the full 64-rank
paper-scale runs are Tables IV/VIII, whose committed artifacts
``tests/integration/test_artifact_shapes.py`` checks against the paper
and ``make check-artifacts`` regenerates)."""

import pytest

from repro.models.cpu import ClusterSpec
from repro.workloads.nas import NAS_BENCHMARKS, get_benchmark, run_nas
from repro.workloads.nas.common import PAPER_BASELINE_SECONDS
from repro.workloads.nas.topology_utils import (
    coords2d,
    coords3d,
    grid2d,
    grid3d,
    rank2d,
    rank3d,
)

SMALL = ClusterSpec(nodes=2, cores_per_node=4)


def test_all_benchmarks_registered():
    # The paper's seven plus EP (which the paper omits for having ~no
    # communication; we include it to complete the suite).
    assert NAS_BENCHMARKS() == ["bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"]


def test_get_benchmark_validates():
    assert get_benchmark("CG").name == "cg"
    with pytest.raises(ValueError):
        get_benchmark("dc")  # NPB3 data-cube is out of scope


def test_paper_baselines_cover_the_reported_suite():
    reported = set(NAS_BENCHMARKS()) - {"ep"}
    for net in ("ethernet", "infiniband"):
        assert set(PAPER_BASELINE_SECONDS[net]) == reported


def test_ep_has_negligible_encryption_overhead():
    """The reason the paper omits EP, demonstrated."""
    base = run_nas("ep", nranks=8, cluster=SMALL)
    enc = run_nas("ep", nranks=8, cluster=SMALL, library="cryptopp")
    assert enc.total_seconds - base.total_seconds < 1e-3  # < 1 ms


@pytest.mark.parametrize("name", ["cg", "ft", "is", "mg", "lu", "bt", "sp"])
def test_skeletons_run_at_small_scale(name):
    res = run_nas(name, nranks=8, cluster=SMALL)
    assert res.total_seconds > 0
    assert res.comm_seconds > 0
    assert res.iterations == get_benchmark(name).iterations


@pytest.mark.parametrize("name", ["cg", "ft"])
def test_encrypted_slower_than_baseline_small_scale(name):
    base = run_nas(name, nranks=8, cluster=SMALL)
    enc = run_nas(name, nranks=8, cluster=SMALL, library="cryptopp")
    assert enc.total_seconds > base.total_seconds


def test_library_ranking_small_scale():
    times = {
        lib: run_nas("ft", nranks=8, cluster=SMALL, library=lib).total_seconds
        for lib in ("boringssl", "libsodium", "cryptopp")
    }
    assert times["boringssl"] < times["libsodium"] < times["cryptopp"]


def test_payload_kinds():
    assert get_benchmark("cg").payload_kind == "contiguous"
    assert get_benchmark("bt").payload_kind == "strided"
    assert get_benchmark("bt").crypto_slowdown() > get_benchmark("cg").crypto_slowdown()


def test_grid_helpers():
    assert grid2d(64) == (8, 8)
    assert grid2d(16) == (4, 4)
    assert grid2d(8) == (2, 4)
    assert grid3d(64) == (4, 4, 4)
    assert grid3d(8) == (2, 2, 2)
    r, c = grid2d(12)
    assert r * c == 12
    with pytest.raises(ValueError):
        grid2d(0)
    with pytest.raises(ValueError):
        grid3d(0)


def test_coords_roundtrip():
    for rank in range(24):
        i, j = coords2d(rank, 4, 6)
        assert rank2d(i, j, 4, 6) == rank
    for rank in range(24):
        x, y, z = coords3d(rank, 2, 3, 4)
        assert rank3d(x, y, z, 2, 3, 4) == rank


def test_rank_wrapping():
    assert rank2d(-1, 0, 4, 6) == rank2d(3, 0, 4, 6)
    assert rank3d(2, 0, 0, 2, 3, 4) == rank3d(0, 0, 0, 2, 3, 4)
