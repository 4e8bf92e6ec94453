"""Cross-backend AEAD differential tests.

The simulator treats the AEAD backend as interchangeable byte-work
(`SecurityConfig.backend`): whichever implementation is available must
behave identically at the API boundary.  These tests pin that contract
pairwise: every backend round-trips every vector, the two AES-GCM
implementations (pure, openssl) produce byte-identical ciphertexts and
accept each other's output, and *all* backends reject the same tampered
inputs — a backend that silently accepted a forged message would turn a
host-configuration difference into a security hole.
"""

import random

import pytest

from repro.crypto.aead import NONCE_SIZE, TAG_SIZE, available_backends, get_aead
from repro.crypto.errors import AuthenticationError

KEY = bytes(range(32))
NONCE = bytes(range(NONCE_SIZE))

#: payload sizes around every block and lane boundary a whole-message
#: kernel slices at (16-byte AES blocks, 64-byte ChaCha20 blocks), up
#: to 64 KiB
SIZES = (0, 1, 15, 16, 17, 63, 64, 65, 255, 256, 257, 1023, 1024, 1025,
         16383, 16384, 16385, 64 * 1024)

#: (label, plaintext, aad) vectors spanning the interesting shapes
VECTORS = [
    ("empty", b"", b""),
    ("one-byte", b"\x00", b""),
    ("short", b"attack at dawn", b""),
    ("block-aligned", bytes(64), b""),
    ("odd-length", bytes(range(256)) * 3 + b"xyz", b""),
    ("with-aad", b"payload", b"header-aad"),
    ("aad-only", b"", b"just-aad"),
] + [
    pytest.param(f"{n}B", random.Random(n).randbytes(n), aad,
                 id=f"{n}B{'-aad' if aad else ''}")
    for n in SIZES
    for aad in (b"", b"src=0,tag=7")
]

BACKENDS = available_backends()
AES_BACKENDS = [b for b in BACKENDS if b in ("pure", "openssl")]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label,plaintext,aad", VECTORS)
def test_round_trip_every_backend(backend, label, plaintext, aad):
    aead = get_aead(KEY, backend)
    assert aead.open(NONCE, aead.seal(NONCE, plaintext, aad), aad) == plaintext


@pytest.mark.parametrize("label,plaintext,aad", VECTORS)
def test_aes_backends_produce_identical_ciphertext(label, plaintext, aad):
    """pure and openssl implement the same cipher; their output must be
    byte-identical, not just mutually decryptable."""
    if len(AES_BACKENDS) < 2:
        pytest.skip("only one AES-GCM backend available")
    sealed = {b: get_aead(KEY, b).seal(NONCE, plaintext, aad) for b in AES_BACKENDS}
    first = sealed[AES_BACKENDS[0]]
    assert all(ct == first for ct in sealed.values())


@pytest.mark.parametrize("sealer", ["pure", "openssl"])
@pytest.mark.parametrize("opener", ["pure", "openssl"])
def test_aes_backends_interoperate(sealer, opener):
    if sealer not in BACKENDS or opener not in BACKENDS:
        pytest.skip("backend unavailable")
    ct = get_aead(KEY, sealer).seal(NONCE, b"cross-impl", b"aad")
    assert get_aead(KEY, opener).open(NONCE, ct, b"aad") == b"cross-impl"


@pytest.mark.parametrize("label,plaintext,aad", VECTORS)
def test_chacha_matches_cryptography(label, plaintext, aad):
    """The from-scratch ChaCha20-Poly1305 equals OpenSSL's byte for byte."""
    pytest.importorskip("cryptography")
    from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

    expected = ChaCha20Poly1305(KEY).encrypt(NONCE, plaintext, aad or None)
    assert get_aead(KEY, "chacha").seal(NONCE, plaintext, aad) == expected


def test_chacha_output_differs_from_aes():
    """chacha is a different cipher — same frame shape, different bytes;
    an AES backend must reject its ciphertext outright."""
    ct_chacha = get_aead(KEY, "chacha").seal(NONCE, b"cipher-agile", b"")
    ct_aes = get_aead(KEY, "pure").seal(NONCE, b"cipher-agile", b"")
    assert len(ct_chacha) == len(ct_aes)
    assert ct_chacha != ct_aes
    with pytest.raises(AuthenticationError):
        get_aead(KEY, "pure").open(NONCE, ct_chacha)


@pytest.mark.parametrize("backend", BACKENDS)
def test_all_backends_reject_tampered_ciphertext(backend):
    aead = get_aead(KEY, backend)
    ct = bytearray(aead.seal(NONCE, b"integrity matters", b""))
    ct[3] ^= 0x40
    with pytest.raises(AuthenticationError):
        aead.open(NONCE, bytes(ct))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("index", [0, 16 * 1024 - 1])
def test_all_backends_reject_a_flip_at_either_end_of_16kib(backend, index):
    aead = get_aead(KEY, backend)
    ct = bytearray(aead.seal(NONCE, random.Random(7).randbytes(16 * 1024)))
    ct[index] ^= 0x80
    with pytest.raises(AuthenticationError):
        aead.open(NONCE, bytes(ct))


@pytest.mark.parametrize("backend", BACKENDS)
def test_all_backends_reject_flipped_tag_bit(backend):
    aead = get_aead(KEY, backend)
    ct = bytearray(aead.seal(NONCE, b"check the tag", b""))
    ct[-1] ^= 0x01
    with pytest.raises(AuthenticationError):
        aead.open(NONCE, bytes(ct))


@pytest.mark.parametrize("backend", BACKENDS)
def test_all_backends_reject_wrong_aad(backend):
    aead = get_aead(KEY, backend)
    ct = aead.seal(NONCE, b"bound to header", b"src=0,tag=7")
    with pytest.raises(AuthenticationError):
        aead.open(NONCE, ct, b"src=1,tag=7")
    with pytest.raises(AuthenticationError):
        aead.open(NONCE, ct, b"")


@pytest.mark.parametrize("backend", BACKENDS)
def test_all_backends_reject_truncated_tag(backend):
    aead = get_aead(KEY, backend)
    ct = aead.seal(NONCE, b"short tag", b"")
    with pytest.raises(AuthenticationError):
        aead.open(NONCE, ct[: -TAG_SIZE // 2])


@pytest.mark.parametrize("backend", BACKENDS)
def test_all_backends_reject_wrong_nonce(backend):
    aead = get_aead(KEY, backend)
    ct = aead.seal(NONCE, b"nonce binds", b"")
    other = bytes(NONCE_SIZE)
    assert other != NONCE
    with pytest.raises(AuthenticationError):
        aead.open(other, ct)
