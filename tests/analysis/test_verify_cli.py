"""The ``verify`` / ``conformance`` subcommands and ``lint --fix``."""

import json

import pytest

from repro.analysis.cli import main

MISMATCH = """\
# verify-sizes: 2


def step(ctx):
    if ctx.rank == 0:
        ctx.comm.send(b"x", 1, tag=5)
    else:
        data, _st = ctx.comm.recv(0, 6)
"""

CLEAN = """\
# verify-sizes: 2
TAG_DATA = 7


def step(ctx):
    if ctx.rank == 0:
        ctx.comm.send(b"x", 1, tag=TAG_DATA)
    else:
        data, _st = ctx.comm.recv(0, TAG_DATA)
"""

FIXABLE = """\
import random


def step(ctx):
    if ctx.rank == 0:
        ctx.comm.send(b"x", 1, tag=21)
        jitter = random.random()
    else:
        data, _st = ctx.comm.recv(0, 21)
"""


@pytest.fixture()
def tree(tmp_path):
    (tmp_path / "mismatch.py").write_text(MISMATCH)
    (tmp_path / "clean.py").write_text(CLEAN)
    return tmp_path


# ------------------------------------------------------------- verify

def test_verify_clean_exits_zero(tree, capsys):
    assert main(["verify", str(tree / "clean.py")]) == 0
    assert "clean: no findings" in capsys.readouterr().out


def test_verify_mismatch_exits_one(tree, capsys):
    assert main(["verify", str(tree / "mismatch.py")]) == 1
    out = capsys.readouterr().out
    assert "MPI101" in out and "MPI102" in out


def test_verify_json(tree, capsys):
    assert main(["verify", "--json", str(tree / "mismatch.py")]) == 1
    doc = json.loads(capsys.readouterr().out)
    rules = {f["rule"] for f in doc["findings"]}
    assert "MPI101" in rules
    assert doc["programs"] >= 1


def test_verify_bad_sizes_usage_error(tree, capsys):
    assert main(["verify", "--sizes", "banana",
                 str(tree / "clean.py")]) == 2
    assert main(["verify", "--sizes", "1",
                 str(tree / "clean.py")]) == 2


@pytest.mark.parametrize("command, flag", [
    ("lint", "--baseline"),
    ("verify", "--baseline"),
    ("verify", "--write-baseline"),
])
def test_baseline_flags_are_unrecognized(command, flag, tree, capsys):
    # every finding fails the run; there is no baseline to forgive one
    with pytest.raises(SystemExit) as exc:
        main([command, flag, str(tree / "F"), str(tree / "clean.py")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# --------------------------------------------------------- lint --fix

def test_lint_fix_rewrites_then_relints_clean(tree, capsys):
    target = tree / "fixable.py"
    target.write_text(FIXABLE)
    assert main(["lint", str(target)]) == 1
    capsys.readouterr()
    assert main(["lint", "--fix", str(target)]) == 0
    out = capsys.readouterr().out
    assert "fixed" in out and "clean: no findings" in out
    fixed = target.read_text()
    assert "TAG_AUTO_21" in fixed
    assert "random.Random(ctx.rank).random()" in fixed
    # a second --fix run is a no-op
    assert main(["lint", "--fix", str(target)]) == 0
    assert target.read_text() == fixed


# -------------------------------------------------------- conformance

def test_conformance_unknown_golden_usage_error(capsys):
    assert main(["conformance", "definitely-not-a-golden"]) == 2
    assert "(goldens: bcast, enc_multipair, pingpong)" \
        in capsys.readouterr().err


def test_conformance_pingpong_ok(capsys):
    assert main(["conformance", "pingpong"]) == 0
    out = capsys.readouterr().out
    assert "conformance pingpong" in out and "[ok]" in out


def test_conformance_json(capsys):
    assert main(["conformance", "--json", "pingpong"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["goldens"][0]["name"] == "pingpong"
    assert doc["goldens"][0]["unexplained_dynamic"] == []


# -------------------------------------------------------------- rules

def test_rules_lists_verifier_scope(capsys):
    assert main(["rules"]) == 0
    out = capsys.readouterr().out
    assert "MPI104" in out and "/verify]" in out
    assert "MPI001" in out and "/lint]" in out
