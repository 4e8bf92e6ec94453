"""Direct unit tests for the zero-copy OpaquePayload frame."""

import pytest

from repro.simmpi.faults import _flip_bit
from repro.simmpi.message import OpaquePayload, as_bytes

NONCE = bytes(range(12))
TAG = bytes(16)


def _frame(body=b"payload"):
    return OpaquePayload(NONCE, body, TAG)


def test_length_counts_all_parts():
    f = _frame(b"abc")
    assert len(f) == 12 + 3 + 16


def test_to_bytes_concatenates():
    f = _frame(b"abc")
    assert f.to_bytes() == NONCE + b"abc" + TAG


def test_base_is_shared_not_copied():
    body = b"x" * 1024
    f = _frame(body)
    assert f.base is body  # the whole point: no copy


def test_slicing_matches_materialized_bytes():
    f = _frame(b"hello world")
    raw = f.to_bytes()
    assert f[0] == raw[0]
    assert f[12:-16] == b"hello world"
    assert f[-16:] == TAG


def test_equality_with_bytes_and_frames():
    f = _frame(b"same")
    g = _frame(b"same")
    h = _frame(b"diff")
    assert f == g
    assert f == NONCE + b"same" + TAG
    assert f != h
    assert (f == 42) is False or f.__eq__(42) is NotImplemented


def test_hash_consistent_with_equality():
    assert hash(_frame(b"k")) == hash(_frame(b"k"))


def test_nested_frames_materialize_recursively():
    inner = _frame(b"core")
    outer = OpaquePayload(b"", inner, b"")
    assert outer.to_bytes() == inner.to_bytes()
    assert len(outer) == len(inner)


def test_as_bytes_helper():
    f = _frame(b"abc")
    assert as_bytes(f) == f.to_bytes()
    assert as_bytes(b"plain") == b"plain"
    assert as_bytes(bytearray(b"ba")) == b"ba"
    assert isinstance(as_bytes(memoryview(b"mv")), bytes)


def test_repr_shows_size_not_content():
    f = _frame(b"secret")
    assert "secret" not in repr(f)
    assert str(len(f)) in repr(f)


# -- windows: a frame whose body is base[start:stop] -------------------------

BUFFER = bytes(range(64))


def _window(start, stop):
    return OpaquePayload(NONCE, BUFFER, TAG, start, stop)


def test_window_length_counts_only_the_window():
    assert len(_window(8, 24)) == 12 + 16 + 16
    assert len(_window(5, 5)) == 12 + 16


def test_window_length_is_fixed_when_built():
    f = OpaquePayload(NONCE, bytearray(BUFFER), TAG, 0, 10)
    f.base.extend(b"more")
    assert len(f) == 12 + 10 + 16


def test_window_to_bytes_materializes_only_the_window():
    assert _window(8, 24).to_bytes() == NONCE + BUFFER[8:24] + TAG


def test_window_body_is_a_view_not_a_copy():
    body = _window(8, 24).body
    assert isinstance(body, memoryview)
    assert body.obj is BUFFER
    assert bytes(body) == BUFFER[8:24]
    assert _window(0, len(BUFFER)).body is BUFFER


def test_default_window_is_the_whole_buffer():
    f = OpaquePayload(NONCE, BUFFER, TAG)
    assert (f.start, f.stop) == (0, len(BUFFER))
    assert f == _window(0, len(BUFFER))


def test_window_equality_and_hash_follow_the_window_bytes():
    same = OpaquePayload(NONCE, b"\xff" + BUFFER[8:24], TAG, 1, 17)
    assert _window(8, 24) == same
    assert hash(_window(8, 24)) == hash(same)
    assert _window(8, 24) == NONCE + BUFFER[8:24] + TAG
    assert _window(8, 24) != _window(9, 25)


@pytest.mark.parametrize("start, stop", [(-1, 4), (5, 4), (0, 65)])
def test_window_outside_the_buffer_is_rejected(start, stop):
    with pytest.raises(ValueError, match="outside a 64-byte buffer"):
        _window(start, stop)


def test_flip_bit_of_a_window_flips_the_window_bytes():
    f = _window(8, 24)
    bit = 8 * 12 + 3  # first byte of the window
    out = _flip_bit(f, bit)
    expected = bytearray(NONCE + BUFFER[8:24] + TAG)
    expected[12] ^= 1 << 3
    assert out == bytes(expected)
    assert BUFFER[8] == 8  # the shared buffer is untouched
