"""CLI tests for the ``trace`` subcommand and the goldens fixture flow."""

import json

import pytest

from repro.experiments.cli import main


def test_trace_prints_summary(capsys):
    assert main(["trace", "pingpong"]) == 0
    out = capsys.readouterr().out
    assert "events:" in out
    assert "transport" in out
    assert "per-rank counters" in out


def test_trace_writes_jsonl(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    assert main(["trace", "pingpong", "--output", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    events = [json.loads(line) for line in lines]
    assert events[0]["kind"] == "job_start"
    assert events[-1]["kind"] == "job_end"
    assert all("t" in e and "layer" in e for e in events)


def test_trace_writes_chrome_format(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert (
        main(["trace", "enc_multipair", "--format", "chrome",
              "--output", str(path)]) == 0
    )
    doc = json.loads(path.read_text())
    evs = doc["traceEvents"]
    assert any(e["ph"] == "X" and e["cat"] == "aead" for e in evs)
    assert any(e["ph"] == "B" for e in evs)


def test_trace_write_goldens_round_trips(tmp_path, capsys):
    from repro.experiments import goldens

    path = tmp_path / "golden_traces.json"
    assert main(["trace", "--write-goldens", str(path)]) == 0
    doc = goldens.load_fixture(str(path))
    assert set(doc["runs"]) == set(goldens.GOLDEN_RUNS)
    # regenerating produces the identical document (determinism, again)
    assert goldens.generate_fixture() == doc


def test_trace_prints_summary_then_route_view(capsys):
    assert main(["trace", "enc_multipair"]) == 0
    out = capsys.readouterr().out
    # the event summary, then the per-route view folded from the stream
    assert out.index("per-rank counters") < out.index("messages:") \
        < out.index("heaviest routes")


def test_trace_without_workload_errors(capsys):
    assert main(["trace"]) == 2
    assert "workload" in capsys.readouterr().err


def test_bench_check_tracing_requires_baseline(capsys):
    assert main(["bench", "--check-tracing"]) == 2
    assert "--baseline" in capsys.readouterr().err


def test_check_tracing_overhead_logic(tmp_path):
    """Drive the checker against a synthetic baseline: absurdly large
    baseline times pass, absurdly small ones fail."""
    from repro.experiments import bench

    def fake_baseline(seconds):
        return {
            "schema": bench.SCHEMA,
            "mode": "smoke",
            "benches": {name: {"seconds": seconds}
                        for name in bench.TRACING_SENSITIVE},
        }

    ok, report = bench.check_tracing_overhead(
        fake_baseline(1e9), mode="smoke", reps=1
    )
    assert ok and "PASS" in report
    ok, report = bench.check_tracing_overhead(
        fake_baseline(1e-9), mode="smoke", reps=1
    )
    assert not ok and "FAIL" in report
    with pytest.raises(ValueError, match="mode"):
        bench.check_tracing_overhead(fake_baseline(1.0), mode="full", reps=1)
