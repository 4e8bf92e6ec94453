"""The ``# lint-ok`` suppression grammar."""

import textwrap

from repro.analysis.linter import lint_source


def ids(source: str) -> list[str]:
    return [f.rule for f in lint_source(textwrap.dedent(source), "<fx>")]


BASE = """
    def step(ctx):
        ctx.comm.send(b"x", 1, 42)
"""


def test_unsuppressed_baseline_fires():
    assert ids(BASE) == ["MPI002"]


def test_same_line_suppression():
    assert ids("""
        def step(ctx):
            ctx.comm.send(b"x", 1, 42)  # lint-ok: MPI002
    """) == []


def test_preceding_comment_line_suppression():
    assert ids("""
        def step(ctx):
            # lint-ok: MPI002
            ctx.comm.send(b"x", 1, 42)
    """) == []


def test_bare_lint_ok_suppresses_everything_on_the_line():
    assert ids("""
        import random

        def step(ctx):
            ctx.comm.send(b"x", 1, random.randint(0, 42))  # lint-ok
    """) == []


def test_multiple_ids_comma_separated():
    assert ids("""
        import random

        def step(ctx):
            # lint-ok: MPI002, DET002
            ctx.comm.send(b"x", 1, random.randint(0, 42))
    """) == []


def test_wrong_id_does_not_suppress():
    assert ids("""
        def step(ctx):
            ctx.comm.send(b"x", 1, 42)  # lint-ok: DET001
    """) == ["MPI002"]


def test_file_level_suppression():
    assert ids("""
        # lint-ok-file: MPI002

        def step(ctx):
            ctx.comm.send(b"x", 1, 42)
            ctx.comm.send(b"y", 1, 43)
    """) == []


def test_file_level_only_covers_named_ids():
    assert ids("""
        # lint-ok-file: MPI002
        import time

        def step(ctx):
            ctx.comm.send(b"x", 1, 42)
            return time.time()
    """) == ["DET001"]


def test_trailing_justification_after_dash():
    assert ids("""
        def step(ctx):
            ctx.comm.send(b"x", 1, 42)  # lint-ok: MPI002 — probe channel
    """) == []


def test_suppression_does_not_leak_to_other_lines():
    assert ids("""
        def step(ctx):
            ctx.comm.send(b"x", 1, 42)  # lint-ok: MPI002
            ctx.comm.send(b"y", 1, 43)
    """) == ["MPI002"]


# ---------------------------------------------------- edge cases

def test_decorated_function_preceding_comment():
    # the suppression comment rides the call line, not the decorator
    assert ids("""
        import functools

        def wrap(fn):
            return fn

        @wrap
        def step(ctx):
            # lint-ok: MPI002
            ctx.comm.send(b"x", 1, 42)
    """) == []


def test_comment_above_decorator_does_not_reach_body():
    assert ids("""
        def wrap(fn):
            return fn

        # lint-ok: MPI002
        @wrap
        def step(ctx):
            ctx.comm.send(b"x", 1, 42)
    """) == ["MPI002"]


def test_mixed_known_and_unknown_ids():
    # an unknown id in the list neither errors nor disables the known one
    assert ids("""
        def step(ctx):
            ctx.comm.send(b"x", 1, 42)  # lint-ok: MPI002, NOPE999
    """) == []


def test_unknown_id_alone_suppresses_nothing():
    assert ids("""
        def step(ctx):
            ctx.comm.send(b"x", 1, 42)  # lint-ok: NOPE999
    """) == ["MPI002"]


# ------------------------------- verifier rules share the grammar

def verify_ids(source: str) -> list[str]:
    from repro.analysis.dataflow import verify_source

    result = verify_source(textwrap.dedent(source), "<fx>", sizes=(2,))
    return sorted({f.rule for f in result.findings})


MISMATCH = """
    # verify-sizes: 2

    def step(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"x", 1, tag=5)
        else:
            data, _st = ctx.comm.recv(0, 6)
"""


def test_verifier_finding_unsuppressed_baseline():
    found = verify_ids(MISMATCH)
    assert "MPI101" in found


def test_line_suppression_covers_verifier_rules():
    assert verify_ids("""
        # verify-sizes: 2

        def step(ctx):
            if ctx.rank == 0:
                ctx.comm.send(b"x", 1, tag=5)  # lint-ok: MPI101
            else:
                data, _st = ctx.comm.recv(0, 6)  # lint-ok: MPI102
    """) == []


def test_file_level_suppression_covers_verifier_rules():
    assert verify_ids("""
        # lint-ok-file: MPI101, MPI102
        # verify-sizes: 2

        def step(ctx):
            if ctx.rank == 0:
                ctx.comm.send(b"x", 1, tag=5)
            else:
                data, _st = ctx.comm.recv(0, 6)
    """) == []


def test_file_level_crypto_taint_suppression():
    assert verify_ids("""
        # lint-ok-file: CRY101

        def step(ctx):
            key = b"k" * 32
            print("debug", key)
    """) == []
    assert verify_ids("""
        def step(ctx):
            key = b"k" * 32
            print("debug", key)
    """) == ["CRY101"]
