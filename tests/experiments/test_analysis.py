"""Tests for the overhead decomposition behind the ``analyze`` command
(its agreement with the simulator is pinned in tests/models/test_predict.py)."""

import pytest

from repro.models.predict import crossover_size, explain_pingpong
from repro.util.units import MiB


def test_headline_decompositions_match_paper():
    eth = explain_pingpong("ethernet", "boringssl", 2 * MiB)
    assert eth.overhead_percent == pytest.approx(78.3, abs=8)
    ib = explain_pingpong("infiniband", "boringssl", 2 * MiB)
    assert ib.overhead_percent == pytest.approx(215.2, abs=15)
    # Crypto dominates on IB (>2/3 of total), not on Ethernet (<1/2).
    assert ib.crypto_share > 0.6
    assert eth.crypto_share < 0.5


def test_encrypt_equals_decrypt():
    b = explain_pingpong("ethernet", "cryptopp", 1 * MiB)
    assert b.encrypt_seconds == b.decrypt_seconds
    assert b.total_seconds > b.baseline_seconds


def test_render_readable():
    out = explain_pingpong("infiniband", "boringssl", 2 * MiB).render()
    assert "2MB over infiniband" in out
    assert "+2" in out  # ~215% overhead appears
    assert "crypto" in out


def test_crossover_sizes_ordered_by_library_and_network():
    """Faster crypto and slower networks tolerate larger messages
    before the 10% overhead line."""
    eth_boring = crossover_size("ethernet", "boringssl")
    eth_cpp = crossover_size("ethernet", "cryptopp")
    ib_boring = crossover_size("infiniband", "boringssl")
    assert eth_boring >= eth_cpp
    assert eth_boring >= ib_boring
    assert eth_boring >= 1024  # small messages are cheap on Ethernet


def test_validation():
    with pytest.raises(ValueError):
        explain_pingpong("ethernet", "boringssl", 0)
    with pytest.raises(ValueError):
        crossover_size("ethernet", "boringssl", overhead_target=0)
