"""Unit tests of the prediction engine's fit primitives, plus the
calibration round-trip: fitting twice from the same anchors must give a
byte-identical model, pinned against a committed golden digest."""

import json
import math
from pathlib import Path

import pytest

from repro.models.network import FabricSpec
from repro.models.predict import (
    GOLDEN_FIXTURE,
    PairShareCurve,
    PiecewiseAffine,
    Segment,
    _affine,
    anchor_cells,
    calibrate,
    fit_monotone,
)

REPO = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------- _affine

def test_affine_exact_line():
    a, b = _affine([(0.0, 1.0), (2.0, 5.0)])
    assert a == pytest.approx(1.0)
    assert b == pytest.approx(2.0)


def test_affine_single_point_is_flat():
    assert _affine([(8.0, 3.0)]) == (3.0, 0.0)


def test_affine_negative_slope_clamped():
    # A decreasing point cloud must not fit a decreasing cost curve.
    a, b = _affine([(1.0, 5.0), (2.0, 3.0), (3.0, 1.0)])
    assert b == 0.0
    assert a == pytest.approx(3.0)  # falls back to the mean


# --------------------------------------------------------- PiecewiseAffine

def test_piecewise_needs_a_segment():
    with pytest.raises(ValueError):
        PiecewiseAffine(())


def test_piecewise_rejects_negative_size():
    curve = PiecewiseAffine((Segment(hi=math.inf, a=1.0, b=0.0),))
    with pytest.raises(ValueError):
        curve(-1)


def test_piecewise_floors_enforce_monotonicity():
    # The second segment would dip below the first at its left edge;
    # the running-max floor must hold the curve at the boundary value.
    curve = PiecewiseAffine((
        Segment(hi=100.0, a=0.0, b=1.0),   # reaches 100 at the knee
        Segment(hi=math.inf, a=10.0, b=0.1),  # would answer 20 at 100
    ))
    assert curve(100.0) == pytest.approx(100.0)
    assert curve(150.0) == pytest.approx(100.0)  # still floored
    assert curve(1000.0) == pytest.approx(110.0)  # segment takes over


def test_fit_monotone_is_nondecreasing():
    pts = [(float(s), 1e-6 * s + 5e-5) for s in
           (256, 1024, 4096, 16384, 65536, 262144)]
    curve = fit_monotone(pts, knees=(1024.0, 16384.0))
    sizes = [2 ** k for k in range(6, 22)]
    values = [curve(s) for s in sizes]
    assert values == sorted(values)


def test_fit_monotone_rejects_empty():
    with pytest.raises(ValueError):
        fit_monotone([], knees=(1024.0,))


# ----------------------------------------------------------- PairShareCurve

def test_pair_share_must_start_at_one():
    with pytest.raises(ValueError):
        PairShareCurve(((2, 0.9),))


def test_pair_share_rejects_zero_pairs():
    curve = PairShareCurve(((1, 1.0), (4, 0.5)))
    with pytest.raises(ValueError):
        curve.share(0)


def test_pair_share_nonincreasing_and_capped():
    curve = PairShareCurve(((1, 1.0), (2, 0.8), (4, 0.5), (8, 0.25)))
    shares = [curve.share(p) for p in range(1, 17)]
    for lo, hi in zip(shares[1:], shares):
        assert lo <= hi + 1e-12
    # beyond the last anchor the aggregate is capped: p * f(p) constant
    assert 12 * curve.share(12) == pytest.approx(8 * 0.25)


# ------------------------------------------------------- chunk penalty interp

def test_chunk_penalty_interpolation(prediction_model):
    kib = 1024
    pts = prediction_model.cryptmpi_penalty["ethernet"]
    # at and below the reference chunk the surcharge vanishes
    assert prediction_model._chunk_penalty("ethernet", 64 * kib) == (0.0, 0.0)
    assert prediction_model._chunk_penalty("ethernet", 4 * kib) == (0.0, 0.0)
    # at a fitted point the surcharge is the fitted value
    c1, d0, d1 = pts[1]
    assert prediction_model._chunk_penalty("ethernet", c1) == \
        pytest.approx((d0, d1))
    # halfway between two fitted points it is the midpoint
    c0, a0, b0 = pts[0]
    mid = (c0 + c1) // 2
    got = prediction_model._chunk_penalty("ethernet", mid)
    w = (mid - c0) / (c1 - c0)
    assert got == pytest.approx((a0 + w * (d0 - a0), b0 + w * (d1 - b0)))
    # beyond the last point extrapolation never goes negative
    beyond = prediction_model._chunk_penalty("ethernet", 64 * 1024 * kib)
    assert beyond[0] >= 0.0 and beyond[1] >= 0.0


# --------------------------------------------------- calibration round-trip

def test_calibration_round_trip_byte_identical(prediction_model):
    # Re-fitting from the same anchor simulations must reproduce every
    # coefficient exactly — token() is the full repr-precision dump.
    again = calibrate(cache_dir="results/cache", force=True)
    assert again.token() == prediction_model.token()
    assert again.digest() == prediction_model.digest()


def test_model_digest_matches_golden_fixture(prediction_model):
    doc = json.loads((REPO / GOLDEN_FIXTURE).read_text())
    assert prediction_model.anchor_count == doc["anchor_cells"]
    assert prediction_model.digest() == doc["digest"]


def test_anchor_cells_are_deterministic():
    cells = anchor_cells()
    assert len(cells) == len(anchor_cells())
    assert [c.spec() for c in cells] == [c.spec() for c in anchor_cells()]
    # fit cells and holdouts are disjoint roles
    assert {c.role for c in cells} == {"fit", "holdout"}


# ------------------------------------------------------- calibrated domain

DOMAIN = "calibrated for the noise-free fabrics ethernet, infiniband"


@pytest.mark.parametrize("fabric, base", [
    ("ethernet", "ethernet"),
    ("eth", "ethernet"),
    (FabricSpec(base="ethernet"), "ethernet"),
    ("infiniband:seed=7", "infiniband"),
])
def test_predict_answers_for_clean_calibrated_fabrics(prediction_model,
                                                      fabric, base):
    got = prediction_model.predict(library="openssl", fabric=fabric,
                                   size=64 * 1024)
    assert got == prediction_model.predict(library="openssl", fabric=base,
                                           size=64 * 1024)


@pytest.mark.parametrize("fabric, reason", [
    ("ethernet:jitter=20%", "has jitter, wobble or loss"),
    (FabricSpec(base="infiniband", wobble=0.1), "has jitter, wobble or loss"),
    ("ethernet:loss=1%", "has jitter, wobble or loss"),
    ("wan", "model not calibrated for fabric 'wan'"),
    ("token-ring", "unknown fabric 'token-ring'"),
])
def test_predict_refuses_fabrics_outside_the_calibrated_domain(
        prediction_model, fabric, reason):
    with pytest.raises(ValueError, match=reason) as info:
        prediction_model.predict(library="openssl", fabric=fabric,
                                 size=64 * 1024)
    assert DOMAIN in str(info.value)
