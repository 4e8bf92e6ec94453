"""Rule-by-rule fixtures: each rule gets a bad twin that fires exactly
its id and a good twin that is clean.

The fixtures are deliberately minimal rank programs (a function taking
``ctx`` is rank scope), so a rule regression shows up as either a
missing id on the bad twin or a phantom id on the good twin.
"""

import textwrap

from repro.analysis.findings import all_rules
from repro.analysis.linter import lint_source


def ids(source: str) -> list[str]:
    src = textwrap.dedent(source)
    return sorted({f.rule for f in lint_source(src, "<fixture>")})


def findings(source: str):
    return lint_source(textwrap.dedent(source), "<fixture>")


# ---------------------------------------------------------------- MPI001

BAD_HEAD_TO_HEAD = """
    TAG = 5

    def exchange(ctx):
        peer = 1 - ctx.rank
        if ctx.rank == 0:
            data, _ = ctx.comm.recv(peer, TAG)
            ctx.comm.send(b"x", peer, TAG)
        else:
            data, _ = ctx.comm.recv(peer, TAG)
            ctx.comm.send(b"x", peer, TAG)
        return data
"""

GOOD_HEAD_TO_HEAD = """
    TAG = 5

    def exchange(ctx):
        peer = 1 - ctx.rank
        if ctx.rank == 0:
            ctx.comm.send(b"x", peer, TAG)
            data, _ = ctx.comm.recv(peer, TAG)
        else:
            data, _ = ctx.comm.recv(peer, TAG)
            ctx.comm.send(b"x", peer, TAG)
        return data
"""


def test_mpi001_recv_recv_fires():
    assert ids(BAD_HEAD_TO_HEAD) == ["MPI001"]


def test_mpi001_send_send_fires():
    assert ids(BAD_HEAD_TO_HEAD.replace("recv(peer, TAG)",
                                        "send(b'x', peer, TAG)")
               ) == ["MPI001"]


def test_mpi001_staggered_is_clean():
    assert ids(GOOD_HEAD_TO_HEAD) == []


def test_mpi001_early_return_idiom():
    # ``if cond: ...; return`` followed by the other branch's code is
    # the same head-to-head shape without an explicit else.
    assert ids("""
        TAG = 5

        def exchange(ctx):
            peer = 1 - ctx.rank
            if ctx.rank == 0:
                data, _ = ctx.comm.recv(peer, TAG)
                ctx.comm.send(b"x", peer, TAG)
                return data
            data, _ = ctx.comm.recv(peer, TAG)
            ctx.comm.send(b"x", peer, TAG)
            return data
    """) == ["MPI001"]


def test_mpi001_severity_and_hint():
    (f,) = findings(BAD_HEAD_TO_HEAD)
    assert f.severity == "error"
    assert f.hint


# ---------------------------------------------------------------- MPI002

def test_mpi002_magic_tag_fires():
    assert ids("""
        def step(ctx):
            ctx.comm.send(b"x", 1, 42)
    """) == ["MPI002"]


def test_mpi002_named_constant_is_clean():
    assert ids("""
        TAG_DATA = 42

        def step(ctx):
            ctx.comm.send(b"x", 1, TAG_DATA)
    """) == []


def test_mpi002_tag_zero_is_clean():
    assert ids("""
        def step(ctx):
            ctx.comm.send(b"x", 1, 0)
    """) == []


# ---------------------------------------------------------------- MPI003

def test_mpi003_collision_fires():
    assert ids("""
        TAG_A = 7
        TAG_B = 7

        def step(ctx):
            ctx.comm.send(b"x", 1, TAG_A)
            ctx.comm.send(b"y", 1, TAG_B)
    """) == ["MPI003"]


def test_mpi003_distinct_values_clean():
    assert ids("""
        TAG_A = 7
        TAG_B = 8

        def step(ctx):
            ctx.comm.send(b"x", 1, TAG_A)
            ctx.comm.send(b"y", 1, TAG_B)
    """) == []


# ---------------------------------------------------------------- MPI004

def test_mpi004_rank_gated_collective_fires():
    assert ids("""
        def step(ctx):
            if ctx.rank == 0:
                ctx.comm.bcast(b"x", 0)
    """) == ["MPI004"]


def test_mpi004_unconditional_collective_clean():
    assert ids("""
        def step(ctx):
            data = b"x" if ctx.rank == 0 else None
            ctx.comm.bcast(data, 0, nbytes=1)
    """) == []


def test_mpi004_matched_in_both_branches_clean():
    assert ids("""
        def step(ctx):
            if ctx.rank == 0:
                ctx.comm.bcast(b"x", 0)
            else:
                ctx.comm.bcast(None, 0, nbytes=1)
    """) == []


# ---------------------------------------------------------------- DET001

def test_det001_wall_clock_fires():
    assert ids("""
        import time

        def step(ctx):
            return time.perf_counter()
    """) == ["DET001"]


def test_det001_from_import_fires():
    assert ids("""
        from time import time

        def step(ctx):
            return time()
    """) == ["DET001"]


def test_det001_ctx_now_is_clean():
    assert ids("""
        def step(ctx):
            return ctx.now
    """) == []


def test_det001_host_side_code_is_clean():
    # wall clock outside rank scope is the harness's business
    assert ids("""
        import time

        def measure():
            return time.perf_counter()
    """) == []


# ---------------------------------------------------------------- DET002

def test_det002_global_random_fires():
    assert ids("""
        import random

        def step(ctx):
            return random.random()
    """) == ["DET002"]


def test_det002_seeded_generator_clean():
    assert ids("""
        import random

        def step(ctx):
            rng = random.Random(ctx.rank)
            return rng.random()
    """) == []


# ---------------------------------------------------------------- DET003

def test_det003_set_iteration_fires():
    assert ids("""
        def step(ctx):
            out = []
            for item in {1, 2, 3}:
                out.append(item)
            return out
    """) == ["DET003"]


def test_det003_merge_function_fires_without_ctx():
    assert ids("""
        def merge_results(parts):
            return [p for p in set(parts)]
    """) == ["DET003"]


def test_det003_sorted_iteration_clean():
    assert ids("""
        def step(ctx):
            return [item for item in sorted({1, 2, 3})]
    """) == []


# ---------------------------------------------------------------- DET004

FIT_PATH = "src/repro/models/predict.py"

CLOCK_IN_FIT = """
    import time

    def calibrate(cache_dir=None):
        started = time.perf_counter()
        return started
"""


def path_ids(source: str, path: str) -> list[str]:
    return sorted({f.rule for f in
                   lint_source(textwrap.dedent(source), path)})


def test_det004_wall_clock_in_fit_path_fires():
    assert path_ids(CLOCK_IN_FIT, FIT_PATH) == ["DET004"]


def test_det004_from_import_fires():
    assert path_ids("""
        from time import monotonic

        def fit_monotone(points):
            return monotonic()
    """, FIT_PATH) == ["DET004"]


def test_det004_datetime_now_fires():
    assert path_ids("""
        import datetime

        def stamp():
            return datetime.datetime.now()
    """, FIT_PATH) == ["DET004"]


def test_det004_outside_fit_path_clean():
    # the same source is fine anywhere else (host-side harness code may
    # time itself; DET001 still guards rank programs)
    assert path_ids(CLOCK_IN_FIT, "src/repro/experiments/cli.py") == []


def test_det004_fit_path_without_clock_clean():
    assert path_ids("""
        def calibrate(points):
            return sum(v for _, v in points)
    """, FIT_PATH) == []


# ---------------------------------------------------------------- CRY001

def test_cry001_constant_nonce_fires():
    assert ids("""
        NONCE = b"\\x00" * 12

        def protect(aead, data):
            return aead.seal(NONCE, data)
    """) == ["CRY001"]


def test_cry001_literal_nonce_fires():
    assert ids("""
        def protect(aead, data):
            return aead.seal(bytes(12), data)
    """) == ["CRY001"]


def test_cry001_reports_once_per_binding():
    found = findings("""
        def protect(aead, a, b):
            nonce = bytes(12)
            x = aead.seal(nonce, a)
            y = aead.seal(nonce, b)
            return x, y
    """)
    assert [f.rule for f in found] == ["CRY001"]


def test_cry001_fresh_nonce_clean():
    assert ids("""
        def protect(aead, nonces, data):
            return aead.seal(nonces.next(), data)
    """) == []


def test_cry001_ignores_file_open():
    # pathlib-style .open(path) must not be mistaken for AEAD open()
    assert ids("""
        def read(path):
            with path.open() as fh:
                return fh.read()
    """) == []


# ---------------------------------------------------------------- CRY002

def test_cry002_constant_sender_fires():
    assert ids("""
        from repro.crypto.nonces import CounterNonces

        def step(ctx):
            return CounterNonces(0)
    """) == ["CRY002"]


def test_cry002_make_nonce_source_fires():
    assert ids("""
        from repro.crypto.nonces import make_nonce_source

        def step(ctx):
            return make_nonce_source("counter", 0)
    """) == ["CRY002"]


def test_cry002_rank_sender_clean():
    assert ids("""
        from repro.crypto.nonces import CounterNonces, make_nonce_source

        def step(ctx):
            a = CounterNonces(ctx.rank)
            b = make_nonce_source("counter", ctx.rank)
            return a, b
    """) == []


# ---------------------------------------------------------------- CRY003

def test_cry003_key_constant_fires():
    assert ids("""
        SESSION_KEY = b"k" * 32
    """) == ["CRY003"]


def test_cry003_literal_ctor_key_fires():
    assert ids("""
        def make(backend):
            return get_aead(b"\\x01" * 32, backend)
    """) == ["CRY003"]


def test_cry003_short_constant_clean():
    # below AES-128 key size: not key material
    assert ids("""
        KEY_TAG = b"hdr"
    """) == []


def test_cry003_name_bound_key_clean_at_callsite():
    found = findings("""
        def make(key, backend):
            return get_aead(key, backend)
    """)
    assert found == []


# ----------------------------------------------------------------- misc

def test_syntax_error_becomes_finding():
    found = lint_source("def broken(:\n", "<fixture>")
    assert [f.rule for f in found] == ["E999"]
    assert found[0].severity == "error"


def test_every_rule_has_a_fixture_here():
    # module-scope (linter) rules are exercised in this file; the
    # program-scope verifier rules have their fixtures in
    # test_dataflow.py / test_taint.py
    covered = {"MPI001", "MPI002", "MPI003", "MPI004",
               "DET001", "DET002", "DET003", "DET004",
               "CRY001", "CRY002", "CRY003"}
    verifier = {"MPI101", "MPI102", "MPI103", "MPI104", "MPI105",
                "CRY101", "CRY102", "CRY103"}
    assert {r.id for r in all_rules() if r.scope == "module"} == covered
    assert {r.id for r in all_rules() if r.scope == "program"} \
        == verifier
