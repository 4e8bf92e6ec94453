"""Experiment registry and artifact tests."""

import pytest

from repro.experiments import paperdata
from repro.experiments.registry import (
    EXPERIMENTS,
    get_experiment,
    list_experiments,
    select,
)
from repro.experiments.report import Artifact
from repro.util.tables import Table


def test_every_paper_artifact_is_registered():
    """The paper's evaluation has Tables I-VIII and Figs. 2-15; all must
    have a regenerator."""
    expected = {f"table{i}" for i in range(1, 9)} | {
        f"fig{i}" for i in range(2, 16)
    }
    assert expected <= set(EXPERIMENTS)
    # Extras beyond the paper are allowed (scalability grid).
    assert "scalability" in EXPERIMENTS


def test_get_experiment():
    exp = get_experiment("TABLE1")
    assert exp.paper_ref == "Table I"
    with pytest.raises(ValueError):
        get_experiment("table99")


def test_select_takes_all_and_ids_only():
    registry_order = [e.id for e in list_experiments()]
    assert [e.id for e in select(["all"])] == registry_order
    # the retired cost-tier tokens; selection folds case, so these are
    # the same tokens in any spelling
    for retired in ("fast", "Medium", "SLOW", "Not-Slow"):
        with pytest.raises(ValueError, match="unknown experiment"):
            select([retired])


def test_select_dedupes_and_keeps_first_position():
    # an explicit id before "all" keeps its position; "all" fills the rest
    ids = [e.id for e in select(["fig6", "all"])]
    assert ids[0] == "fig6"
    assert ids.count("fig6") == 1
    assert set(ids) == set(EXPERIMENTS)
    # duplicates collapse
    assert [e.id for e in select(["fig2", "FIG2", "fig2"])] == ["fig2"]


def test_select_is_case_insensitive_and_validates():
    assert [e.id for e in select(["TABLE1"])] == ["table1"]
    assert [e.id for e in select(["ALL"])] == [e.id for e in select(["all"])]
    with pytest.raises(ValueError, match="unknown experiment"):
        select(["fig2", "nope"])
    assert select([]) == []


def test_artifact_render_includes_headlines_and_notes():
    t = Table("demo", ["a"])
    t.add_row("row", [1.0])
    art = Artifact("x", "demo title", t, notes=["be careful"],
                   headlines={"metric": (1.5, 2.0), "nopaper": (3.0, None)})
    out = art.render()
    assert "demo title" in out
    assert "metric: 1.50 (paper 2.00)" in out
    assert "nopaper: 3.00 (paper n/a)" in out
    assert "note: be careful" in out


def test_paperdata_consistency():
    # NAS tables cover all 7 benchmarks in all rows.
    for table in (paperdata.TABLE4_NAS_ETH_S, paperdata.TABLE8_NAS_IB_S):
        for row, vals in table.items():
            assert set(vals) == set(paperdata.NAS_NAMES), row
    # Headline overheads follow from the table totals (paper footnote 2).
    for net, table in (("ethernet", paperdata.TABLE4_NAS_ETH_S),
                       ("infiniband", paperdata.TABLE8_NAS_IB_S)):
        base = sum(table["baseline"].values())
        for lib in paperdata.LIBS:
            ovh = (sum(table[lib].values()) - base) / base * 100
            assert ovh == pytest.approx(
                paperdata.NAS_OVERHEAD_HEADLINE[net][lib], abs=0.05
            ), (net, lib)


def test_paper_collective_tables_ordered_by_library():
    """In every paper collective table, more crypto -> more time."""
    for table in (paperdata.TABLE2_BCAST_ETH_US, paperdata.TABLE3_ALLTOALL_ETH_US,
                  paperdata.TABLE6_BCAST_IB_US, paperdata.TABLE7_ALLTOALL_IB_US):
        for size in table["baseline"]:
            assert table["baseline"][size] < table["boringssl"][size]
            # BoringSSL <= Libsodium <= CryptoPP holds except one small
            # -message cell the paper itself flags as noise.
            if size >= 16 * 1024:
                assert table["boringssl"][size] < table["libsodium"][size]
                assert table["libsodium"][size] < table["cryptopp"][size]
