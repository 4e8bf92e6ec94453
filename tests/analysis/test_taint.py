"""Crypto-hygiene taint rules (CRY1xx) through the verifier."""

import textwrap

from repro.analysis.dataflow import verify_source


def rule_ids(source: str, *, sizes=(2,)) -> list[str]:
    result = verify_source(textwrap.dedent(source), "<fx>", sizes=sizes)
    return sorted({f.rule for f in result.findings})


# --------------------------------------------------- CRY101: key->sink

def test_key_to_print_detected():
    assert "CRY101" in rule_ids("""
        def step(ctx):
            key = b"k" * 32
            print("session key is", key)
    """)


def test_key_to_recorder_detected():
    assert "CRY101" in rule_ids("""
        def step(ctx):
            secret_key = b"k" * 32
            ctx.recorder.emit("debug", "keys", material=secret_key)
    """)


def test_key_length_logging_is_clean():
    # logging a value derived only by len() carries no taint
    assert rule_ids("""
        def step(ctx):
            key = b"k" * 32
            print("key length", len(key))
    """) == []


def test_public_key_name_exempt():
    assert rule_ids("""
        def step(ctx):
            public_key = b"p" * 32
            print("peer public key", public_key)
    """) == []


# ------------------------------------------- CRY102: secret->plain wire

def test_secret_to_plain_wire_detected():
    assert "CRY102" in rule_ids("""
        # verify-sizes: 2

        def step(ctx):
            secret = b"s" * 64
            if ctx.rank == 0:
                ctx.comm.send(secret, 1, tag=5)
            else:
                data, _st = ctx.comm.recv(0, 5)
    """)


def test_secret_over_encrypted_channel_clean():
    assert rule_ids("""
        # verify-sizes: 2

        def step(ctx):
            secret = b"s" * 64
            if ctx.rank == 0:
                ctx.enc.send(secret, 1, tag=5)
            else:
                data, _st = ctx.enc.recv(0, 5)
    """) == []


def test_nonsecret_plain_send_clean():
    assert rule_ids("""
        # verify-sizes: 2

        def step(ctx):
            payload = b"p" * 64
            if ctx.rank == 0:
                ctx.comm.send(payload, 1, tag=5)
            else:
                data, _st = ctx.comm.recv(0, 5)
    """) == []


# ------------------------------------------- CRY103: nonce uniqueness

def test_shared_counter_nonces_collide_across_ranks():
    assert "CRY103" in rule_ids("""
        from repro.crypto.aead import get_aead
        from repro.crypto.nonces import CounterNonces

        def step(ctx):
            aead = get_aead(b"k" * 32)
            nonces = CounterNonces(0)  # same stream on every rank
            frame = aead.seal(nonces.next(), b"x" * 64, b"")
    """)


def test_rank_prefixed_counter_nonces_clean():
    assert rule_ids("""
        from repro.crypto.aead import get_aead
        from repro.crypto.nonces import CounterNonces

        def step(ctx):
            aead = get_aead(b"k" * 32)
            nonces = CounterNonces(ctx.rank)
            frame = aead.seal(nonces.next(), b"x" * 64, b"")
    """) == []


def test_constant_nonce_in_loop_detected():
    assert "CRY103" in rule_ids("""
        from repro.crypto.aead import get_aead

        def step(ctx):
            aead = get_aead(b"k" * 32)
            for i in range(4):
                frame = aead.seal(bytes(12), b"x" * 64, b"")
    """)
