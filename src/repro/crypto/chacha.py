"""From-scratch ChaCha20-Poly1305 AEAD (RFC 8439).

Why it is here: §III-B notes Libsodium "only supports AES-GCM with
256-bit keys" — but AES-GCM is not Libsodium's *native* cipher.  Its
preferred AEAD is ChaCha20-Poly1305, which needs no AES-NI hardware and
runs at a stable rate on any CPU.  The reproduction includes a full
implementation so the what-if ablation ("what would Libsodium's numbers
look like under its native cipher?") can be run with real cryptography
(see ``tests/integration/test_ablations.py``), and because a
second, structurally different AEAD is a good adversarial check of the
AEAD abstraction.

Performance: :func:`chacha20_keystream` computes every block of a
message (Poly1305's one-time key included) in one pass of lane-parallel
big-integer arithmetic, about 0.13 ms for 2 blocks and 1.4 ms for 257
(15 MB/s at 64 KiB), and Poly1305 absorbs whole 16-byte blocks read
with ``struct.iter_unpack`` (about 43 MB/s).  A seal plus open with
12 bytes of AAD takes about 0.27 ms at 64 B, 0.4 ms at 1 KiB and
3.6 ms at 16 KiB (CPython 3.11, 2-vCPU Xeon host).

Validated against the RFC 8439 test vectors in the test suite.
"""

from __future__ import annotations

import hmac
import struct

from repro.crypto.errors import AuthenticationError, CryptoError, KeyFormatError

KEY_SIZE = 32
NONCE_SIZE = 12
TAG_SIZE = 16

_MASK32 = 0xFFFFFFFF

#: "expand 32-byte k", the ChaCha constant words.
_SIGMA = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)

#: State-word indices (a, b, c, d) of one double round: four column
#: quarter rounds, then four diagonal ones (RFC 8439 §2.3).
_DOUBLE_ROUND = (
    (0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15),
    (0, 5, 10, 15), (1, 6, 11, 12), (2, 7, 8, 13), (3, 4, 9, 14),
)


def chacha20_keystream(key: bytes, counter: int, nonce: bytes,
                       blocks: int) -> bytes:
    """The ChaCha20 blocks for counters ``counter .. counter+blocks-1``,
    concatenated (RFC 8439 §2.3).

    Every block is computed at once.  State word *j* of all blocks lives
    in one Python int with a 64-bit lane per block: block *i* holds its
    word in bits ``64i .. 64i+31`` and keeps the 32 bits above zero as a
    guard, so a 32-bit add is an add plus a mask and a rotate is two
    shifts plus a mask, with no carry or shifted-out bit reaching the
    next lane.  The 20 rounds therefore cost the same number of
    big-integer operations for one block as for a thousand.
    """
    if len(key) != KEY_SIZE:
        raise KeyFormatError(f"ChaCha20 key must be 32 bytes, got {len(key)}")
    if len(nonce) != NONCE_SIZE:
        raise CryptoError(f"ChaCha20 nonce must be 12 bytes, got {len(nonce)}")
    if counter < 0 or counter + blocks > 2**32:
        raise CryptoError(
            f"block counter out of range: {blocks} blocks from {counter}"
        )
    lanes = int.from_bytes(b"\x01\x00\x00\x00\x00\x00\x00\x00" * blocks,
                           "little")
    m = _MASK32 * lanes
    state = [w * lanes for w in _SIGMA + struct.unpack("<8L", key)]
    state.append(int.from_bytes(
        struct.pack(f"<{blocks}Q", *range(counter, counter + blocks)),
        "little"))
    state += [w * lanes for w in struct.unpack("<3L", nonce)]
    x = state.copy()
    for _ in range(10):  # 20 rounds: 10 column+diagonal double rounds
        for a, b, c, d in _DOUBLE_ROUND:
            xa = (x[a] + x[b]) & m
            xd = x[d] ^ xa
            xd = ((xd << 16) | (xd >> 16)) & m
            xc = (x[c] + xd) & m
            xb = x[b] ^ xc
            xb = ((xb << 12) | (xb >> 20)) & m
            xa = (xa + xb) & m
            xd ^= xa
            xd = ((xd << 8) | (xd >> 24)) & m
            xc = (xc + xd) & m
            xb ^= xc
            x[a], x[b], x[c], x[d] = xa, ((xb << 7) | (xb >> 25)) & m, xc, xd
    # Serialize: word j of block i is bytes 64i+4j .. 64i+4j+3.  As
    # 4-byte items, a word's lanes are the even items of its
    # little-endian bytes, and they land every 16th item of the output.
    out = bytearray(64 * blocks)
    words = memoryview(out).cast("I")
    for j in range(16):
        lane_bytes = ((x[j] + state[j]) & m).to_bytes(8 * blocks, "little")
        words[j::16] = memoryview(lane_bytes).cast("I")[::2]
    return bytes(out)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """One 64-byte ChaCha20 block (RFC 8439 §2.3)."""
    return chacha20_keystream(key, counter, nonce, 1)


def _xor(data: bytes, keystream: bytes) -> bytes:
    """*data* XOR the first ``len(data)`` bytes of *keystream*."""
    n = len(data)
    x = int.from_bytes(data, "little") ^ int.from_bytes(keystream[:n], "little")
    return x.to_bytes(n, "little")


def chacha20_xor(key: bytes, counter: int, nonce: bytes, data: bytes) -> bytes:
    """Encrypt/decrypt *data* with the ChaCha20 keystream."""
    blocks = -(-len(data) // 64)
    return _xor(data, chacha20_keystream(key, counter, nonce, blocks))


# ---------------------------------------------------------------------------
# Poly1305 (RFC 8439 §2.5)
# ---------------------------------------------------------------------------

_P1305 = (1 << 130) - 5


def poly1305_mac(key: bytes, message: bytes) -> bytes:
    """Poly1305 one-time authenticator; *key* is the 32-byte (r, s) pair."""
    if len(key) != 32:
        raise KeyFormatError(f"Poly1305 key must be 32 bytes, got {len(key)}")
    r = int.from_bytes(key[:16], "little")
    r &= 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF  # clamp
    s = int.from_bytes(key[16:], "little")
    full = len(message) - len(message) % 16
    hibit = 1 << 128
    acc = 0
    for lo, hi in struct.iter_unpack("<QQ", memoryview(message)[:full]):
        acc = ((acc + (hi << 64 | lo | hibit)) * r) % _P1305
    if full < len(message):
        n = int.from_bytes(message[full:] + b"\x01", "little")
        acc = ((acc + n) * r) % _P1305
    acc = (acc + s) & ((1 << 128) - 1)
    return acc.to_bytes(16, "little")


def _pad16(data: bytes) -> bytes:
    if len(data) % 16 == 0:
        return b""
    return bytes(16 - len(data) % 16)


class ChaCha20Poly1305:
    """The RFC 8439 AEAD construction.

    >>> aead = ChaCha20Poly1305(bytes(32))
    >>> pt = aead.decrypt(bytes(12), aead.encrypt(bytes(12), b"hi"))
    >>> pt
    b'hi'
    """

    def __init__(self, key: bytes):
        if not isinstance(key, (bytes, bytearray, memoryview)):
            raise KeyFormatError(f"key must be bytes, got {type(key).__name__}")
        key = bytes(key)
        if len(key) != KEY_SIZE:
            raise KeyFormatError(
                f"ChaCha20-Poly1305 key must be 32 bytes, got {len(key)}"
            )
        self._key = key

    def _tag(self, otk: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        mac_data = (
            aad
            + _pad16(aad)
            + ciphertext
            + _pad16(ciphertext)
            + struct.pack("<QQ", len(aad), len(ciphertext))
        )
        return poly1305_mac(otk, mac_data)

    def _keystream(self, nonce: bytes, nbytes: int) -> bytes:
        """Block 0 (whose first 32 bytes are the Poly1305 key) followed
        by the keystream for *nbytes* of payload, in one kernel call."""
        return chacha20_keystream(self._key, 0, nonce, 1 + -(-nbytes // 64))

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Returns ciphertext || 16-byte tag (same layout as AES-GCM)."""
        ks = self._keystream(nonce, len(plaintext))
        ciphertext = _xor(plaintext, ks[64:])
        return ciphertext + self._tag(ks[:32], aad, ciphertext)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        if len(data) < TAG_SIZE:
            raise AuthenticationError("ciphertext shorter than the Poly1305 tag")
        ciphertext, tag = data[:-TAG_SIZE], data[-TAG_SIZE:]
        ks = self._keystream(nonce, len(ciphertext))
        if not hmac.compare_digest(self._tag(ks[:32], aad, ciphertext), tag):
            raise AuthenticationError(
                "Poly1305 tag mismatch: message tampered or wrong key/nonce"
            )
        return _xor(ciphertext, ks[64:])
