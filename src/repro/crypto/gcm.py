"""From-scratch AES-GCM (NIST SP 800-38D): GHASH + CTR + tagging.

AES-GCM is the encryption scheme the paper adopts for MPI messages
because it is the fastest standardized mode providing both privacy and
integrity (§III-A).  This module implements the full construction over
the from-scratch AES in :mod:`repro.crypto.aes`:

- GHASH over GF(2^128) with the polynomial x^128 + x^7 + x^2 + x + 1,
- the 32-bit inc function and CTR keystream generation (one batched
  AES call per message),
- 12-byte nonces (the paper's choice), 16-byte tags,
- associated data support (the paper's prototypes do not use AAD, but
  the standard — and the OpenSSL API — includes it, and our encrypted
  MPI layer authenticates the message header as AAD as an extension).

Performance: GHASH uses Shoup-style 8-bit tables — 16 per-key tables of
256 precomputed multiples of H, one per byte position — so absorbing a
block is 16 lookups and xors (unrolled over the bytes of Y ^ X_i, about
1 µs per block) instead of a 128-iteration shift-and-add loop.  The
tables are built once per key (and AEAD instances are cached per key by
:func:`repro.crypto.aead.get_aead`).  The CTR keystream and E_K(J0),
which masks the tag, come out of one :meth:`AES.encrypt_blocks` batch
over J0, inc32(J0), … and are applied with a single big-integer XOR.
A seal plus open with 12 bytes of AAD takes about 0.21 ms at 64 B,
0.7 ms at 1 KiB and 8 ms at 16 KiB (CPython 3.11, 2-vCPU Xeon host).

Validated against NIST SP 800-38D test vectors and cross-checked against
the OpenSSL implementation in the test suite.
"""

from __future__ import annotations

import hmac
import struct

from repro.crypto.aes import AES, BLOCK_SIZE, counter_blocks
from repro.crypto.errors import AuthenticationError, CryptoError

NONCE_SIZE = 12
TAG_SIZE = 16

#: GCM reduction constant: x^128 = x^7 + x^2 + x + 1 (big-endian bit order).
_R = 0xE1000000000000000000000000000000


def _gf128_mul(x: int, y: int) -> int:
    """Multiply two elements of GF(2^128) per SP 800-38D §6.3.

    Operands and result use the standard GCM bit convention: bit 0 of
    the block (the MSB of byte 0) is the coefficient of x^0.  Kept as
    the reference implementation (and for the general-nonce path's
    table construction); bulk GHASH goes through the 8-bit tables.
    """
    z = 0
    v = y
    for i in range(127, -1, -1):
        if (x >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _shift_right_byte(v: int) -> int:
    """Multiply a GF(2^128) element by x^8 (shift right 8 with reduction)."""
    for _ in range(8):
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return v


def _build_ghash_tables(h: int) -> list[list[int]]:
    """16 tables of 256 entries: ``tables[i][b]`` is the GF(2^128)
    product of H with the element whose byte *i* (MSB-first) equals *b*.

    GHASH of a block X against accumulator Y is then
    ``xor(tables[i][byte_i(X ^ Y)])`` — 16 lookups per block.
    """
    # Byte position 0 (most significant): bit 127 is the identity x^0,
    # so entry for the single bit 0x80 is H itself; each lower bit of
    # the byte multiplies by one more x.
    top = [0] * 256
    v = h
    bit = 0x80
    while bit:
        top[bit] = v
        v = _gf128_mul(v, 0x40000000000000000000000000000000)  # · x
        bit >>= 1
    for b in range(1, 256):
        if b & (b - 1):  # composite: xor of its bits (GF addition)
            top[b] = top[b & -b] ^ top[b & (b - 1)]
    tables = [top]
    for _ in range(15):
        prev = tables[-1]
        tables.append([_shift_right_byte(e) for e in prev])
    return tables


#: Cache of GHASH tables keyed by H — the simulator reuses a handful of
#: keys across thousands of messages, so table construction is one-time.
_GHASH_TABLE_CACHE: dict[int, list[list[int]]] = {}
_GHASH_TABLE_CACHE_MAX = 16


def _ghash_tables_for(h: int) -> list[list[int]]:
    tables = _GHASH_TABLE_CACHE.get(h)
    if tables is None:
        if len(_GHASH_TABLE_CACHE) >= _GHASH_TABLE_CACHE_MAX:
            _GHASH_TABLE_CACHE.pop(next(iter(_GHASH_TABLE_CACHE)))
        tables = _build_ghash_tables(h)
        _GHASH_TABLE_CACHE[h] = tables
    return tables


class _GHash:
    """Incremental GHASH_H over full blocks (keyed universal hash)."""

    __slots__ = ("_tables", "_y")

    def __init__(self, tables: list[list[int]]):
        self._tables = tables
        self._y = 0

    def update(self, data: bytes) -> None:
        """Absorb *data*, zero-padded on the right to a block multiple."""
        if len(data) % BLOCK_SIZE:
            data = bytes(data) + bytes(-len(data) % BLOCK_SIZE)
        (t0, t1, t2, t3, t4, t5, t6, t7,
         t8, t9, t10, t11, t12, t13, t14, t15) = self._tables
        y = self._y
        for hi, lo in struct.iter_unpack(">QQ", data):
            (b0, b1, b2, b3, b4, b5, b6, b7,
             b8, b9, b10, b11, b12, b13, b14, b15) = (
                y ^ (hi << 64 | lo)).to_bytes(BLOCK_SIZE, "big")
            y = (t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4] ^ t5[b5]
                 ^ t6[b6] ^ t7[b7] ^ t8[b8] ^ t9[b9] ^ t10[b10] ^ t11[b11]
                 ^ t12[b12] ^ t13[b13] ^ t14[b14] ^ t15[b15])
        self._y = y

    def digest_with_lengths(self, aad_bits: int, ct_bits: int) -> bytes:
        self.update(struct.pack(">QQ", aad_bits, ct_bits))
        return self._y.to_bytes(BLOCK_SIZE, "big")


def _inc32(block: bytes) -> bytes:
    """Increment the low 32 bits of a 16-byte counter block (inc_32).

    The specification's one-step form; :func:`counter_blocks` produces
    the same sequence for a whole message at once.
    """
    prefix, ctr = block[:12], int.from_bytes(block[12:], "big")
    return prefix + ((ctr + 1) & 0xFFFFFFFF).to_bytes(4, "big")


class AESGCM:
    """Pure-Python AES-GCM with the standard encrypt/decrypt API.

    >>> key = bytes(32)
    >>> gcm = AESGCM(key)
    >>> ct = gcm.encrypt(bytes(12), b"hello", b"")
    >>> gcm.decrypt(bytes(12), ct, b"")
    b'hello'
    """

    def __init__(self, key: bytes):
        self._aes = AES(key)
        self._h = int.from_bytes(self._aes.encrypt_block(bytes(BLOCK_SIZE)), "big")
        self._tables = _ghash_tables_for(self._h)

    # -- internals ---------------------------------------------------------

    def _j0(self, nonce: bytes) -> bytes:
        if len(nonce) == NONCE_SIZE:
            return nonce + b"\x00\x00\x00\x01"
        # The general path (len != 96 bits) GHASHes the nonce.  The paper
        # only uses 12-byte nonces; we support the standard fully.
        gh = _GHash(self._tables)
        gh.update(nonce)
        return gh.digest_with_lengths(0, len(nonce) * 8)

    def _keystream(self, nonce: bytes, nbytes: int) -> bytes:
        """E_K(J0) || E_K(inc32(J0)) || … covering *nbytes* of payload.

        One :meth:`AES.encrypt_blocks` batch: the first block masks the
        tag, the rest are the CTR keystream.
        """
        j0 = self._j0(nonce)
        blocks = 1 + -(-nbytes // BLOCK_SIZE)
        return self._aes.encrypt_blocks(
            counter_blocks(j0[:12], int.from_bytes(j0[12:], "big"), blocks))

    def _tag(self, ek_j0: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        gh = _GHash(self._tables)
        gh.update(aad)
        gh.update(ciphertext)
        return _xor(gh.digest_with_lengths(len(aad) * 8, len(ciphertext) * 8),
                    ek_j0)

    # -- public API ----------------------------------------------------------

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Return ciphertext || 16-byte tag (the layout the paper sends)."""
        if len(nonce) == 0:
            raise CryptoError("empty nonce")
        ks = self._keystream(nonce, len(plaintext))
        ciphertext = _xor(plaintext, ks[BLOCK_SIZE:])
        return ciphertext + self._tag(ks[:BLOCK_SIZE], aad, ciphertext)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and return the plaintext; raise on any tampering."""
        if len(data) < TAG_SIZE:
            raise AuthenticationError("ciphertext shorter than the GCM tag")
        ciphertext, tag = data[:-TAG_SIZE], data[-TAG_SIZE:]
        ks = self._keystream(nonce, len(ciphertext))
        if not hmac.compare_digest(self._tag(ks[:BLOCK_SIZE], aad, ciphertext), tag):
            raise AuthenticationError("GCM tag mismatch: message tampered or wrong key/nonce")
        return _xor(ciphertext, ks[BLOCK_SIZE:])


def _xor(data: bytes, keystream: bytes) -> bytes:
    """*data* XOR the first ``len(data)`` bytes of *keystream*."""
    n = len(data)
    x = int.from_bytes(data, "big") ^ int.from_bytes(keystream[:n], "big")
    return x.to_bytes(n, "big")
