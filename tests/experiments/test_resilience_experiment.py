"""The registered ``resilience`` experiment: fault-rate x policy sweep."""

from repro.experiments import resilience as resilience_mod
from repro.experiments.registry import get_experiment
from repro.experiments.report import artifact_dict


def test_registered_with_medium_cost():
    exp = get_experiment("resilience")
    assert "retransmit" in exp.title or "faults" in exp.title


def test_exhausted_retries_fail_rather_than_fall_back_to_plaintext():
    assert {p.escalation for _, p in resilience_mod.POLICY_CELLS} == {"fail"}


def test_two_runs_render_byte_identical():
    exp = get_experiment("resilience")
    a, b = exp.runner(), exp.runner()
    assert a.render() == b.render()
    assert artifact_dict(exp, a) == artifact_dict(exp, b)


def test_faults_cost_goodput_and_backoff_modes_diverge():
    exp = get_experiment("resilience")
    table = exp.runner().body
    cells = {label: row for label, row in table.rows}
    # goodput at 30% faults is strictly below the fault-free cell
    for pol in ("exponential", "fixed"):
        clean = float(cells[f"{pol} @ 0% faults"][0])
        lossy = float(cells[f"{pol} @ 30% faults"][0])
        assert lossy < clean
    # multi-retry flights make the backoff disciplines distinguishable
    assert (
        cells["exponential @ 30% faults"][1] != cells["fixed @ 30% faults"][1]
    )
