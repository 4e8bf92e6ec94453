"""From-scratch AES block cipher (FIPS-197) for 128/192/256-bit keys.

This is the reproduction's own implementation of the blockcipher that
AES-GCM is built on (§III-A).  It is written for clarity and
verifiability rather than speed: the S-box is *derived* (multiplicative
inverse in GF(2^8) followed by the affine map) instead of pasted in, and
the round transformation follows the specification structure directly.
It is validated against the FIPS-197 appendix vectors and against the
OpenSSL-backed implementation in the test suite.

Performance note (CPython 3.11 on a 2-vCPU Xeon host):
:meth:`AES.encrypt_block` is the classic T-table formulation, about
26 µs per block (0.6 MB/s).  :meth:`AES.encrypt_blocks` byte-slices a
whole batch of blocks into four big integers, so the interpreter cost
is paid per round instead of per block: about 65 µs for 5 blocks,
0.27 ms for 65 and 2-3 ms for 1025 (1.2, 4 and 6 MB/s), still some
three orders of magnitude below AES-NI.  The simulator therefore
charges *modeled* time from the calibrated library profiles
(:mod:`repro.models.cryptolib`) and uses the OpenSSL backend for bulk
payload encryption when available; this module is the reference
implementation and the fallback.
"""

from __future__ import annotations

import struct

from repro.crypto.errors import KeyFormatError

BLOCK_SIZE = 16

#: Round counts per FIPS-197 Table 4 (keyed by key length in bytes).
_ROUNDS = {16: 10, 24: 12, 32: 14}


def _build_gf_tables() -> tuple[list[int], list[int]]:
    """Exp/log tables for GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply x by the generator 0x03 = x + 1
        x ^= (x << 1) ^ (0x1B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]
    return exp, log


_GF_EXP, _GF_LOG = _build_gf_tables()


def gf_mul(a: int, b: int) -> int:
    """Multiplication in GF(2^8) (exposed for GHASH tests and docs)."""
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


def _gf_inv(a: int) -> int:
    if a == 0:
        return 0
    return _GF_EXP[255 - _GF_LOG[a]]


def _build_sbox() -> tuple[bytes, bytes]:
    """Derive the AES S-box: GF(2^8) inversion + affine transformation."""
    sbox = bytearray(256)
    for value in range(256):
        inv = _gf_inv(value)
        # affine map: b'_i = b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6} ^ b_{i+7} ^ c_i
        result = 0
        for bit in range(8):
            b = (
                (inv >> bit)
                ^ (inv >> ((bit + 4) % 8))
                ^ (inv >> ((bit + 5) % 8))
                ^ (inv >> ((bit + 6) % 8))
                ^ (inv >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            result |= b << bit
        sbox[value] = result
    inv_sbox = bytearray(256)
    for i, v in enumerate(sbox):
        inv_sbox[v] = i
    return bytes(sbox), bytes(inv_sbox)


SBOX, INV_SBOX = _build_sbox()

# xtime tables for MixColumns (multiplication by 2 and 3) and the
# inverse-MixColumns constants 9, 11, 13, 14.
_MUL = {n: bytes(gf_mul(n, v) for v in range(256)) for n in (2, 3, 9, 11, 13, 14)}


def _build_t_tables() -> tuple[list[int], list[int], list[int], list[int]]:
    """Combined SubBytes+ShiftRows+MixColumns lookup tables.

    The classic software-AES formulation: one encryption round over a
    big-endian 32-bit column word becomes four table lookups and xors.
    ``T0`` carries the round contribution of the column's row-0 byte
    (multipliers 2,1,1,3 down the column), ``T1``..``T3`` are the same
    constants rotated for rows 1..3.
    """
    t0, t1, t2, t3 = [], [], [], []
    m2, m3 = _MUL[2], _MUL[3]
    for x in range(256):
        s = SBOX[x]
        s2, s3 = m2[s], m3[s]
        t0.append((s2 << 24) | (s << 16) | (s << 8) | s3)
        t1.append((s3 << 24) | (s2 << 16) | (s << 8) | s)
        t2.append((s << 24) | (s3 << 16) | (s2 << 8) | s)
        t3.append((s << 24) | (s << 16) | (s3 << 8) | s2)
    return t0, t1, t2, t3


_T0, _T1, _T2, _T3 = _build_t_tables()

#: SubBytes fused with MixColumns' multipliers, as ``bytes.translate``
#: tables for the byte-sliced path: ``_SBOX2[x] = 2·S(x)``,
#: ``_SBOX3[x] = 3·S(x)`` (``SBOX`` itself is the ×1 table).
_SBOX2 = SBOX.translate(_MUL[2])
_SBOX3 = SBOX.translate(_MUL[3])

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(gf_mul(_RCON[-1], 2))


def counter_blocks(prefix: bytes, start: int, count: int) -> bytes:
    """*count* CTR input blocks ``prefix || c`` for c = start, start+1, …

    The counter field is the 4 or 8 bytes after *prefix*, big-endian,
    and wraps modulo its width the way SP 800-38D's inc_32 wraps GCM's
    32-bit field.  The result feeds :meth:`AES.encrypt_blocks`.
    """
    width = BLOCK_SIZE - len(prefix)
    if width not in (4, 8):
        raise ValueError(f"counter field must be 4 or 8 bytes, got {width}")
    fmt = "I" if width == 4 else "Q"
    top = 1 << (8 * width)
    stop = start + count
    fields = struct.pack(f">{count}{fmt}", *range(start, min(stop, top)),
                         *range(max(0, stop - top)))
    out = bytearray((prefix + bytes(width)) * count)
    per_block = BLOCK_SIZE // width
    memoryview(out).cast(fmt)[per_block - 1 :: per_block] = (
        memoryview(fields).cast(fmt))
    return bytes(out)


class AES:
    """The raw AES block transformation, on one 16-byte block or on a
    batch of independent blocks.

    Higher-level modes compose these primitives: GCM, CTR and ECB batch
    every block of a message through :meth:`encrypt_blocks`, while CBC
    chains :meth:`encrypt_block`; see :mod:`repro.crypto.gcm` and
    :mod:`repro.crypto.modes`.
    """

    def __init__(self, key: bytes):
        if not isinstance(key, (bytes, bytearray, memoryview)):
            raise KeyFormatError(f"key must be bytes, got {type(key).__name__}")
        key = bytes(key)
        if len(key) not in _ROUNDS:
            raise KeyFormatError(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
            )
        self.key_size = len(key)
        self.rounds = _ROUNDS[len(key)]
        self._round_keys = self._expand_key(key)
        # Round-key words as big-endian 32-bit ints (word i = column i of
        # round i//4's key), consumed by the T-table encrypt path.
        self._rk_words = [
            (w[0] << 24) | (w[1] << 16) | (w[2] << 8) | w[3]
            for w in self._round_keys
        ]
        # Round keys split by state row (row r = byte r of each of the
        # four column words), one 32-bit int per row, for encrypt_blocks.
        self._rk_rows = [
            tuple(
                int.from_bytes(bytes(w[r] for w in self._round_keys[i : i + 4]), "big")
                for r in range(4)
            )
            for i in range(0, len(self._round_keys), 4)
        ]

    # -- key schedule ------------------------------------------------------

    def _expand_key(self, key: bytes) -> list[list[int]]:
        """FIPS-197 §5.2 key expansion, returned as 4-byte words."""
        nk = len(key) // 4
        words: list[list[int]] = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        total_words = 4 * (self.rounds + 1)
        for i in range(nk, total_words):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [SBOX[b] for b in temp]  # extra SubWord for AES-256
            words.append([a ^ b for a, b in zip(words[i - nk], temp)])
        return words

    def _round_key(self, round_index: int) -> list[int]:
        """Round key as a flat 16-byte list in column-major state order."""
        ws = self._round_keys[4 * round_index : 4 * round_index + 4]
        return [b for w in ws for b in w]

    # -- block transforms ----------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        """T-table encryption: 4 lookups + 4 xors per column per round.

        Produces exactly the FIPS-197 transformation (the tables fuse
        SubBytes, ShiftRows and MixColumns); validated against the
        appendix vectors and OpenSSL in the test suite.
        """
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be 16 bytes, got {len(block)}")
        rk = self._rk_words
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        sbox = SBOX
        c0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        c1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        c2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        c3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        k = 4
        for _ in range(1, self.rounds):
            n0 = (t0[c0 >> 24] ^ t1[(c1 >> 16) & 255] ^ t2[(c2 >> 8) & 255]
                  ^ t3[c3 & 255] ^ rk[k])
            n1 = (t0[c1 >> 24] ^ t1[(c2 >> 16) & 255] ^ t2[(c3 >> 8) & 255]
                  ^ t3[c0 & 255] ^ rk[k + 1])
            n2 = (t0[c2 >> 24] ^ t1[(c3 >> 16) & 255] ^ t2[(c0 >> 8) & 255]
                  ^ t3[c1 & 255] ^ rk[k + 2])
            n3 = (t0[c3 >> 24] ^ t1[(c0 >> 16) & 255] ^ t2[(c1 >> 8) & 255]
                  ^ t3[c2 & 255] ^ rk[k + 3])
            c0, c1, c2, c3 = n0, n1, n2, n3
            k += 4
        # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        o0 = ((sbox[c0 >> 24] << 24) | (sbox[(c1 >> 16) & 255] << 16)
              | (sbox[(c2 >> 8) & 255] << 8) | sbox[c3 & 255]) ^ rk[k]
        o1 = ((sbox[c1 >> 24] << 24) | (sbox[(c2 >> 16) & 255] << 16)
              | (sbox[(c3 >> 8) & 255] << 8) | sbox[c0 & 255]) ^ rk[k + 1]
        o2 = ((sbox[c2 >> 24] << 24) | (sbox[(c3 >> 16) & 255] << 16)
              | (sbox[(c0 >> 8) & 255] << 8) | sbox[c1 & 255]) ^ rk[k + 2]
        o3 = ((sbox[c3 >> 24] << 24) | (sbox[(c0 >> 16) & 255] << 16)
              | (sbox[(c1 >> 8) & 255] << 8) | sbox[c2 & 255]) ^ rk[k + 3]
        return (
            o0.to_bytes(4, "big") + o1.to_bytes(4, "big")
            + o2.to_bytes(4, "big") + o3.to_bytes(4, "big")
        )

    def encrypt_blocks(self, data: bytes) -> bytes:
        """Encrypt every 16-byte block of *data* at once (ECB on a batch).

        Byte-sliced over big integers: row *r* of every block's state
        (bytes r, r+4, r+8, r+12) is gathered by one strided slice into
        one int, four bytes per block.  ShiftRows is then a masked
        rotation of each 4-byte group, SubBytes fused with MixColumns'
        ×1/×2/×3 is three ``bytes.translate`` calls per row, and
        MixColumns is XOR across the four row ints, so a round costs the
        same few dozen big-integer operations for one block as for a
        thousand.  Equal to :meth:`encrypt_block` on each block.
        """
        n = len(data)
        if n % BLOCK_SIZE:
            raise ValueError(f"data must be whole 16-byte blocks, got {n} bytes")
        q = n // 4  # bytes per row int: one 4-byte group per block
        ones = int.from_bytes(b"\x00\x00\x00\x01" * (n // BLOCK_SIZE), "big")
        lo8, lo16, lo24 = 0xFF * ones, 0xFFFF * ones, 0xFFFFFF * ones
        hi8, hi16, hi24 = lo8 << 24, lo16 << 16, lo24 << 8
        frm = int.from_bytes
        s1, s2, s3 = SBOX, _SBOX2, _SBOX3
        rk = self._rk_rows
        k0, k1, k2, k3 = rk[0]
        r0 = frm(data[0::4], "big") ^ k0 * ones
        r1 = frm(data[1::4], "big") ^ k1 * ones
        r2 = frm(data[2::4], "big") ^ k2 * ones
        r3 = frm(data[3::4], "big") ^ k3 * ones
        last = self.rounds
        for rnd in range(1, last + 1):
            # ShiftRows: row r of every block rotates left by r bytes.
            b0 = r0.to_bytes(q, "big")
            b1 = (((r1 << 8) & hi24) | ((r1 >> 24) & lo8)).to_bytes(q, "big")
            b2 = (((r2 << 16) & hi16) | ((r2 >> 16) & lo16)).to_bytes(q, "big")
            b3 = (((r3 << 24) & hi8) | ((r3 >> 8) & lo24)).to_bytes(q, "big")
            k0, k1, k2, k3 = rk[rnd]
            a0, a1 = frm(b0.translate(s1), "big"), frm(b1.translate(s1), "big")
            a2, a3 = frm(b2.translate(s1), "big"), frm(b3.translate(s1), "big")
            if rnd == last:  # the final round has no MixColumns
                r0, r1 = a0 ^ k0 * ones, a1 ^ k1 * ones
                r2, r3 = a2 ^ k2 * ones, a3 ^ k3 * ones
                break
            # MixColumns: row r = 2·a_r ^ 3·a_(r+1) ^ a_(r+2) ^ a_(r+3).
            r0 = (frm(b0.translate(s2), "big") ^ frm(b1.translate(s3), "big")
                  ^ a2 ^ a3 ^ k0 * ones)
            r1 = (frm(b1.translate(s2), "big") ^ frm(b2.translate(s3), "big")
                  ^ a3 ^ a0 ^ k1 * ones)
            r2 = (frm(b2.translate(s2), "big") ^ frm(b3.translate(s3), "big")
                  ^ a0 ^ a1 ^ k2 * ones)
            r3 = (frm(b3.translate(s2), "big") ^ frm(b0.translate(s3), "big")
                  ^ a1 ^ a2 ^ k3 * ones)
        out = bytearray(n)
        for r, row in enumerate((r0, r1, r2, r3)):
            out[r::4] = row.to_bytes(q, "big")
        return bytes(out)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"block must be 16 bytes, got {len(block)}")
        state = [b ^ k for b, k in zip(block, self._round_key(self.rounds))]
        for rnd in range(self.rounds - 1, 0, -1):
            state = _inv_shift_rows(state)
            state = _inv_sub_bytes(state)
            state = [b ^ k for b, k in zip(state, self._round_key(rnd))]
            state = _inv_mix_columns(state)
        state = _inv_shift_rows(state)
        state = _inv_sub_bytes(state)
        state = [b ^ k for b, k in zip(state, self._round_key(0))]
        return bytes(state)


# The state is kept as a flat 16-list in the FIPS byte order, where byte
# i sits at row i % 4, column i // 4.


def _inv_sub_bytes(state: list[int]) -> list[int]:
    return [INV_SBOX[b] for b in state]


# InvShiftRows as a flat-index gather: row r of column c takes the byte
# ShiftRows moved there from column c - r.
_INV_SHIFT = [4 * ((c - r) % 4) + r for c in range(4) for r in range(4)]


def _inv_shift_rows(state: list[int]) -> list[int]:
    return [state[src] for src in _INV_SHIFT]


def _inv_mix_columns(state: list[int]) -> list[int]:
    m9, m11, m13, m14 = _MUL[9], _MUL[11], _MUL[13], _MUL[14]
    out = [0] * 16
    for c in range(0, 16, 4):
        a0, a1, a2, a3 = state[c : c + 4]
        out[c] = m14[a0] ^ m11[a1] ^ m13[a2] ^ m9[a3]
        out[c + 1] = m9[a0] ^ m14[a1] ^ m11[a2] ^ m13[a3]
        out[c + 2] = m13[a0] ^ m9[a1] ^ m14[a2] ^ m11[a3]
        out[c + 3] = m11[a0] ^ m13[a1] ^ m9[a2] ^ m14[a3]
    return out
