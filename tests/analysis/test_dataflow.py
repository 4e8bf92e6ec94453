"""The flow-sensitive verifier: seeded-mutation detection and
soundness posture.

Each mutation test plants one specific bug in an otherwise-clean rank
program and asserts the verifier reports exactly the expected rule —
the acceptance gate of the static-analysis PR: a verifier that stays
silent on known-bad programs proves nothing by staying silent on good
ones.
"""

import textwrap

from repro.analysis.dataflow import verify_source


def findings(source: str, *, sizes=(2,)):
    result = verify_source(textwrap.dedent(source), "<fx>", sizes=sizes)
    return result.findings


def rule_ids(source: str, *, sizes=(2,)) -> list[str]:
    return sorted({f.rule for f in findings(source, sizes=sizes)})


# ------------------------------------------------------------ clean

CLEAN_EXCHANGE = """
    # verify-sizes: 2
    TAG = 5

    def step(ctx):
        if ctx.rank == 0:
            ctx.comm.send(b"x" * 64, 1, tag=TAG)
            data, _st = ctx.comm.recv(1, TAG)
        else:
            data, _st = ctx.comm.recv(0, TAG)
            ctx.comm.send(b"y" * 64, 0, tag=TAG)
"""


def test_clean_exchange_verifies_clean():
    assert rule_ids(CLEAN_EXCHANGE) == []


def test_clean_ring_verifies_at_both_sizes():
    assert rule_ids("""
        def step(ctx):
            right = (ctx.rank + 1) % ctx.size
            left = (ctx.rank - 1) % ctx.size
            ctx.comm.isend(b"h" * 32, right, 7)
            data, _st = ctx.comm.recv(left, 7)
    """, sizes=(2, 4)) == []


# -------------------------------------------------- seeded mutations

def test_swapped_recv_tag_detected():
    # receiver listens on tag 6 for a tag-5 send: the send is never
    # received and the recv never completes
    found = rule_ids("""
        # verify-sizes: 2

        def step(ctx):
            if ctx.rank == 0:
                ctx.comm.send(b"x", 1, tag=5)
            else:
                data, _st = ctx.comm.recv(0, 6)
    """)
    assert "MPI101" in found and "MPI102" in found


def test_wrong_peer_detected():
    found = rule_ids("""
        def step(ctx):
            if ctx.rank == 0:
                ctx.comm.send(b"x", 1, tag=5)
                ctx.comm.send(b"x", 1, tag=5)
            elif ctx.rank == 1:
                data, _st = ctx.comm.recv(0, 5)
            else:
                data, _st = ctx.comm.recv(0, 5)
    """, sizes=(4,))
    assert "MPI102" in found  # ranks 2,3 wait for sends that never come


def test_reordered_collective_detected():
    found = findings("""
        def step(ctx):
            if ctx.rank == 0:
                ctx.comm.barrier()
                ctx.comm.allgather(ctx.rank)
            else:
                ctx.comm.allgather(ctx.rank)
                ctx.comm.barrier()
    """)
    assert {f.rule for f in found} == {"MPI103"}


def test_recv_before_send_cycle_named_like_sanitizer():
    found = findings("""
        # verify-sizes: 2

        def step(ctx):
            peer = 1 - ctx.rank
            data, _st = ctx.comm.recv(peer, 5)
            ctx.comm.send(b"x", peer, tag=5)
    """)
    assert "MPI104" in {f.rule for f in found}
    cycle = next(f for f in found if f.rule == "MPI104")
    # same naming scheme as the runtime sanitizer's DeadlockDiagnosis
    assert "static wait-for cycle rank 0 -> rank 1 -> rank 0" \
        in cycle.message
    assert "rank 0 waiting on recv(from rank 1" in cycle.message


def test_reserved_tag_range_detected():
    found = rule_ids("""
        # verify-sizes: 2

        def step(ctx):
            tag = 1 << 21
            if ctx.rank == 0:
                ctx.comm.send(b"x", 1, tag=tag)
            else:
                data, _st = ctx.comm.recv(0, tag)
    """)
    assert "MPI105" in found


# ------------------------------------------------- soundness posture

def test_unknown_branch_degrades_not_diagnoses():
    # an unresolvable condition must degrade to "incomplete", never
    # fabricate a deadlock/match finding
    assert rule_ids("""
        import os

        def step(ctx):
            if os.environ.get("MODE") == "chatty":
                ctx.comm.send(b"x", (ctx.rank + 1) % ctx.size, tag=5)
            ctx.comm.barrier()
    """) == []


def test_explicit_raise_marks_inapplicable():
    assert rule_ids("""
        def step(ctx):
            if ctx.size != 3:
                raise ValueError("needs exactly 3 ranks")
            ctx.comm.send(b"x", (ctx.rank + 1) % 3, tag=5)
    """, sizes=(2, 4)) == []


def test_verify_sizes_pragma_pins_world_sizes():
    # without the pragma this 2-rank program strands ranks 2..3 at n=4
    two_rank = """
        def step(ctx):
            if ctx.rank == 0:
                ctx.comm.send(b"x", 1, tag=5)
            elif ctx.rank == 1:
                data, _st = ctx.comm.recv(0, 5)
    """
    assert rule_ids(two_rank, sizes=(2,)) == []
    pinned = "# verify-sizes: 2\n" + textwrap.dedent(two_rank)
    assert rule_ids(pinned, sizes=(2, 4)) == []


def test_syntax_error_reports_e999():
    assert rule_ids("def step(ctx:\n    pass\n") == ["E999"]


def test_symbolic_peer_reported_in_finding():
    # the per-rank concrete runs are fitted back to a rank expression
    # for reporting
    found = findings("""
        def step(ctx):
            ctx.comm.isend(b"x", (ctx.rank + 1) % ctx.size, 5)
            # no matching recv anywhere
    """, sizes=(4,))
    assert any(f.rule == "MPI101" and "rank" in f.message
               for f in found)


def test_findings_deduplicated_across_sizes():
    found = findings("""
        def step(ctx):
            if ctx.rank == 0:
                ctx.comm.send(b"x", 1, tag=5)
            else:
                data, _st = ctx.comm.recv(0, 6)
    """, sizes=(2,))
    mpi101 = [f for f in found if f.rule == "MPI101"]
    assert len(mpi101) == len({(f.path, f.line) for f in mpi101})


def test_nas_skeletons_verify_with_complete_graphs():
    """A NAS skeleton is an ordinary ``ctx`` generator program: the
    verifier extracts its operations, prints no note for it, and finds
    a planted tag mismatch without any NAS-specific model."""
    import inspect

    from repro.workloads.nas import cg, lu, mg

    for module in (cg, lu, mg):
        result = verify_source(inspect.getsource(module), module.__file__)
        assert result.findings == [] and result.notes == [], module.__name__
        assert result.graphs
        for graph in result.graphs:
            assert not graph.incomplete
            assert next(graph.all_ops(), None) is not None
    clean = inspect.getsource(cg)
    planted = clean.replace("TAG_ROW_REDUCE, TAG_ROW_REDUCE)",
                            "TAG_ROW_REDUCE, TAG_TRANSPOSE)")
    assert planted != clean
    rules = {f.rule for f in verify_source(planted, cg.__file__).findings}
    assert "MPI101" in rules
