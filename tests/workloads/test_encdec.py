"""Encryption-decryption microbenchmark tests."""

import pytest

from repro.util.units import KiB, MiB
from repro.workloads.encdec import measured_encdec_curve, modeled_encdec_curve


def test_modeled_curve_hits_paper_anchors():
    curve = modeled_encdec_curve("boringssl", "gcc")
    # Framing costs make the *benchmark* value sit just below the bulk
    # curve anchors; within 2%.
    assert curve[2 * MiB] / 1e6 == pytest.approx(1381, rel=0.02)
    assert curve[16 * KiB] / 1e6 == pytest.approx(1332, rel=0.2)


def test_modeled_curves_preserve_library_ranking():
    b = modeled_encdec_curve("boringssl")
    l = modeled_encdec_curve("libsodium")
    c = modeled_encdec_curve("cryptopp")
    for size in (256, 16 * KiB, 2 * MiB):
        assert b[size] > l[size] >= c[size]


def test_modeled_curve_rises_then_saturates():
    curve = modeled_encdec_curve("boringssl")
    assert curve[16] < curve[16 * KiB]
    assert curve[16 * KiB] == pytest.approx(curve[256 * KiB], rel=0.2)


def test_measured_curve_runs_on_this_host():
    """A quick real AES-GCM measurement: just three sizes, sanity only."""
    results = measured_encdec_curve(
        sizes=(256, 16 * KiB), target_seconds=0.005, min_iters=2
    )
    assert set(results) == {256, 16 * KiB}
    for stats in results.values():
        assert stats.mean > 1e6  # >1 MB/s enc+dec on any modern CPU
        assert stats.n >= 5
    # Throughput grows with size (per-call overhead amortizes).
    assert results[16 * KiB].mean > results[256].mean


def test_encdec_measured_real_aesgcm():
    """Honest hardware datapoint: real OpenSSL-backed AES-GCM-256."""
    results = measured_encdec_curve(
        sizes=(256, 16 * KiB, 1 * MiB), target_seconds=0.02
    )
    # Shape property shared with Fig. 2: throughput grows with size and
    # saturates; absolute values are hardware-specific.
    assert results[16 * KiB].mean > results[256].mean
    assert results[1 * MiB].mean > results[256].mean
