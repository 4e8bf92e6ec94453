"""The unified get_aead() call path and its instance cache; get_aead
is the only AEAD constructor the backends module exposes."""

import pytest

from repro.crypto import backends
from repro.crypto.aead import get_aead
from repro.crypto.errors import AuthenticationError

KEY = bytes(range(32))
NONCE = bytes(range(12))


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        backends.NotABackend
    # the pre-registry class names are gone: get_aead is the constructor
    for name in ("PureAEAD", "ChaChaAEAD", "OpenSSLAEAD"):
        with pytest.raises(AttributeError):
            getattr(backends, name)


def test_get_aead_caches_instances_per_key_and_backend():
    a = get_aead(KEY, "pure")
    b = get_aead(KEY, "pure")
    assert a is b, "same (backend, key) must share one instance"
    other = get_aead(bytes(32), "pure")
    assert other is not a
    # bytearray keys are normalized to bytes before the cache lookup
    assert get_aead(bytearray(KEY), "pure") is a


def test_cached_instance_is_stateless_across_users():
    """Two simulated 'ranks' sharing one cached AEAD must not interfere."""
    rank0 = get_aead(KEY, "pure")
    rank1 = get_aead(KEY, "pure")
    c0 = rank0.seal(NONCE, b"zero")
    c1 = rank1.seal(bytes(12), b"one")
    assert rank1.open(NONCE, c0) == b"zero"
    assert rank0.open(bytes(12), c1) == b"one"
    with pytest.raises(AuthenticationError):
        rank0.open(NONCE, c1)


@pytest.mark.skipif(not backends.HAVE_OPENSSL, reason="cryptography not installed")
@pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 256, 4096, 65536])
@pytest.mark.parametrize("aad", [b"", b"h", b"header-bytes" * 3])
def test_pure_and_openssl_byte_identical_across_aad_and_sizes(size, aad):
    """The GHASH-table cache and batched CTR must not change a single
    output byte: the pure backend stays interchangeable with OpenSSL."""
    plaintext = bytes((7 * i + 13) & 0xFF for i in range(size))
    pure = get_aead(KEY, "pure")
    ossl = get_aead(KEY, "openssl")
    framed = pure.seal(NONCE, plaintext, aad)
    assert framed == ossl.seal(NONCE, plaintext, aad)
    assert ossl.open(NONCE, framed, aad) == plaintext
    assert pure.open(NONCE, framed, aad) == plaintext
