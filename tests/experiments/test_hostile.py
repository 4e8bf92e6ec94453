"""The hostile experiment: capped-rep determinism and artifact shape."""

import json

import pytest

from repro.experiments import hostile as hostile_mod
from repro.experiments.registry import get_experiment
from repro.experiments.report import artifact_dict


@pytest.fixture()
def capped_reps(monkeypatch):
    monkeypatch.setattr(hostile_mod, "REPS", 2)


def test_registered_with_its_runner():
    exp = get_experiment("hostile")
    assert exp.runner is hostile_mod.hostile


def test_exhausted_retries_fail_rather_than_fall_back_to_plaintext():
    assert hostile_mod.POLICY.escalation == "fail"


def test_hostile_is_byte_deterministic(capped_reps):
    exp = get_experiment("hostile")
    a = artifact_dict(exp, hostile_mod.hostile())
    b = artifact_dict(exp, hostile_mod.hostile())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_hostile_table_covers_the_grid(capped_reps):
    art = hostile_mod.hostile()
    labels = [row[0] for row in art.body.rows]
    # 2 fabrics x 2 loss rates ping-pong cells, 2 multipair cells,
    # 2 fabrics x 2 channel counts mtlatency cells
    assert len(labels) == 4 + 2 + 4
    assert sum(lab.startswith("pp ") for lab in labels) == 4
    assert sum(lab.startswith("mp ") for lab in labels) == 2
    assert sum(lab.startswith("mt ") for lab in labels) == 4
    for fabric in ("wan", "iot"):
        assert any(fabric in lab for lab in labels)
    assert set(art.headlines) == {"mt_iot_ch1_ms", "mt_iot_ch4_ms"}
