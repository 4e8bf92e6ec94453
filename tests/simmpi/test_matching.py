"""Unit tests for the matching engine and envelopes."""

import pytest

from repro.simmpi.matching import MatchingEngine
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, Envelope


def _env(src=0, dst=1, tag=0, comm_id=0, payload=b"x"):
    return Envelope(src=src, dst=dst, tag=tag, comm_id=comm_id, payload=payload)


def test_envelope_matching_rules():
    env = _env(src=3, tag=7)
    assert env.matches(3, 7)
    assert env.matches(ANY_SOURCE, 7)
    assert env.matches(3, ANY_TAG)
    assert env.matches(ANY_SOURCE, ANY_TAG)
    assert not env.matches(2, 7)
    assert not env.matches(3, 8)


def test_envelope_wire_bytes_defaults_to_payload():
    assert _env(payload=b"abc").wire_bytes == 3
    e = Envelope(src=0, dst=1, tag=0, comm_id=0, payload=b"abc", wire_bytes=31)
    assert e.wire_bytes == 31


def test_envelope_is_slotted_and_built_by_keyword():
    env = _env(payload=b"abcd")
    assert not hasattr(env, "__dict__")
    assert (env.payload_bytes, env.info) == (4, {})
    with pytest.raises(TypeError):
        Envelope(0, 1, 0, 0, b"x")


def test_posted_recv_matches_later_delivery():
    engine = MatchingEngine(1)
    hits = []
    engine.post_recv(0, 5, 0, hits.append)
    assert engine.pending_posted == 1
    engine.deliver(_env(tag=5))
    assert len(hits) == 1
    assert engine.pending_posted == 0


def test_unexpected_message_matches_later_post():
    engine = MatchingEngine(1)
    env = _env(tag=9)
    engine.deliver(env)
    assert engine.pending_unexpected == 1
    hits = []
    engine.post_recv(ANY_SOURCE, 9, 0, hits.append)
    assert hits == [env]
    assert engine.pending_unexpected == 0


def test_unexpected_fifo_order():
    engine = MatchingEngine(1)
    first, second = _env(payload=b"1"), _env(payload=b"2")
    engine.deliver(first)
    engine.deliver(second)
    hits = []
    engine.post_recv(ANY_SOURCE, ANY_TAG, 0, hits.append)
    engine.post_recv(ANY_SOURCE, ANY_TAG, 0, hits.append)
    assert hits == [first, second]


def test_posted_fifo_order():
    engine = MatchingEngine(1)
    hits = []
    engine.post_recv(ANY_SOURCE, ANY_TAG, 0, lambda e: hits.append(("a", e)))
    engine.post_recv(ANY_SOURCE, ANY_TAG, 0, lambda e: hits.append(("b", e)))
    engine.deliver(_env())
    assert [h[0] for h in hits] == ["a"]
    engine.deliver(_env())
    assert [h[0] for h in hits] == ["a", "b"]


def test_comm_id_isolation():
    engine = MatchingEngine(1)
    hits = []
    engine.post_recv(ANY_SOURCE, ANY_TAG, comm_id=1, on_match=hits.append)
    engine.deliver(_env(comm_id=0))
    assert not hits
    assert engine.pending_unexpected == 1
    engine.deliver(_env(comm_id=1))
    assert len(hits) == 1


def test_wrong_destination_rejected():
    engine = MatchingEngine(1)
    with pytest.raises(ValueError):
        engine.deliver(_env(dst=2))


def test_selective_recv_skips_nonmatching_unexpected():
    engine = MatchingEngine(1)
    engine.deliver(_env(src=2, tag=1, payload=b"wrong"))
    engine.deliver(_env(src=3, tag=2, payload=b"right"))
    hits = []
    engine.post_recv(3, 2, 0, hits.append)
    assert hits[0].payload == b"right"
    assert engine.pending_unexpected == 1
