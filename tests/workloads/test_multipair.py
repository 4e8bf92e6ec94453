"""Multi-pair workload tests against the paper's Figs. 4-6 / 11-13 shapes."""

import pytest

from repro.util.units import KiB, MiB
from repro.workloads.multipair import multipair_aggregate_throughput


def test_small_messages_scale_linearly_with_pairs():
    """Fig. 4 shape: baseline 1B throughput keeps increasing with pairs."""
    t1 = multipair_aggregate_throughput(1, 1, network="ethernet")
    t4 = multipair_aggregate_throughput(1, 4, network="ethernet")
    assert t4 > 3.0 * t1


def test_medium_messages_saturate_early():
    """Fig. 5 shape: baseline 16KB throughput saturates by ~2 pairs."""
    t2 = multipair_aggregate_throughput(16 * KiB, 2, network="ethernet")
    t8 = multipair_aggregate_throughput(16 * KiB, 8, network="ethernet")
    assert t8 < 1.25 * t2  # nearly flat past 2 pairs


def test_encrypted_catches_up_with_pairs_16kb():
    """§V-A: at 8 pairs even CryptoPP reaches the baseline for 16KB."""
    base = multipair_aggregate_throughput(16 * KiB, 8, network="ethernet")
    cpp = multipair_aggregate_throughput(
        16 * KiB, 8, network="ethernet", library="cryptopp"
    )
    assert cpp > 0.90 * base


def test_single_pair_large_is_crypto_bound():
    """§V-A: with one pair, CryptoPP cannot keep up with the 2MB stream
    (its single-thread enc rate ~546 MB/s caps the flow)."""
    base = multipair_aggregate_throughput(2 * MiB, 1, network="ethernet")
    cpp = multipair_aggregate_throughput(
        2 * MiB, 1, network="ethernet", library="cryptopp"
    )
    assert cpp < 0.6 * base


def test_infiniband_16kb_gap_remains_at_8_pairs():
    """§V-B: on IB, BoringSSL reaches only ~82% of baseline at 8 pairs
    for 16KB messages (the fabric outruns 8 crypto cores)."""
    base = multipair_aggregate_throughput(16 * KiB, 8, network="infiniband")
    boring = multipair_aggregate_throughput(
        16 * KiB, 8, network="infiniband", library="boringssl"
    )
    assert 0.6 * base < boring < 0.97 * base


def test_infiniband_small_message_contention_drop():
    """Fig. 11: IB baseline 1B aggregate drops (or stalls) from 4 to 8
    pairs due to NIC contention."""
    t4 = multipair_aggregate_throughput(1, 4, network="infiniband")
    t8 = multipair_aggregate_throughput(1, 8, network="infiniband")
    assert t8 < 1.35 * t4  # far from the 2x of contention-free scaling


def test_validation():
    with pytest.raises(ValueError):
        multipair_aggregate_throughput(1, 0)
    with pytest.raises(ValueError):
        multipair_aggregate_throughput(1, 9)
    with pytest.raises(ValueError):
        multipair_aggregate_throughput(0, 1)
