"""Rendering tests for the ASCII table/figure output."""

import pytest

from repro.util.tables import Figure, Table


def test_table_renders_aligned():
    t = Table("demo", ["1B", "2MB"])
    t.add_row("Unencrypted", [0.05, 1038.0])
    t.add_row("BoringSSL", [0.045, 592.25])
    out = t.render()
    lines = out.splitlines()
    assert lines[0] == "demo"
    assert "Unencrypted" in out
    assert "1,038.00" in out
    assert "0.045" in out
    # all body lines equally wide
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1


def test_table_rejects_wrong_cell_count():
    t = Table("demo", ["a", "b"])
    with pytest.raises(ValueError):
        t.add_row("x", [1.0])


def test_table_notes():
    t = Table("demo", ["a"])
    t.add_row("x", [1])
    t.add_note("calibrated")
    assert "note: calibrated" in t.render()


def test_figure_renders_series_and_sparklines():
    f = Figure("tput", "size", "MB/s", log_y=True)
    f.add_series("base", [(1024, 17.0), (2097152, 1038.0)])
    f.add_series("enc", [(1024, 16.1), (2097152, 592.0)])
    out = f.render()
    assert "tput" in out
    assert "1KB" in out and "2MB" in out
    assert "|" in out  # sparkline present
    assert "base" in out and "enc" in out


def test_figure_empty_series_rejected():
    f = Figure("x", "a", "b")
    with pytest.raises(ValueError):
        f.add_series("empty", [])


def test_figure_pair_count_axis():
    f = Figure("pairs", "pairs", "MB/s")
    f.add_series("base", [(1, 1.0), (2, 2.0), (8, 8.0)])
    out = f.render()
    assert "| 1 |" in out or " 1 " in out
