"""Classical block cipher modes: ECB, CBC, CTR (NIST SP 800-38A).

These are the constructions the paper's §II shows prior encrypted-MPI
systems relied on — and why that was wrong:

- **ECB** (ES-MPICH2 [1], C-MPICH [9]): deterministic per block, leaks
  plaintext structure, provides no integrity.
- **CBC** (+ hash-then-encrypt, [10]): provides privacy with random IVs
  but no integrity — ciphertexts are malleable (bit-flipping attacks),
  and encrypt-with-redundancy does not fix it (An & Bellare).
- **CTR**: privacy only, trivially malleable.

They are implemented here so the attack demonstrations in
:mod:`repro.crypto.attacks` (and the example scripts) can show the
failures concretely, next to AES-GCM which resists them.
"""

from __future__ import annotations

import os

from repro.crypto.aes import AES, BLOCK_SIZE, counter_blocks
from repro.crypto.errors import CryptoError


def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """PKCS#7 padding: always adds 1..block_size bytes."""
    if not 0 < block_size < 256:
        raise ValueError(f"bad block size {block_size}")
    pad = block_size - (len(data) % block_size)
    return data + bytes([pad]) * pad


def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    if not data or len(data) % block_size != 0:
        raise CryptoError("invalid padded length")
    pad = data[-1]
    if not 1 <= pad <= block_size or data[-pad:] != bytes([pad]) * pad:
        raise CryptoError("invalid PKCS#7 padding")
    return data[:-pad]


class ECB:
    """Electronic Codebook — the mode ES-MPICH2 used; insecure.

    Identical plaintext blocks encrypt to identical ciphertext blocks,
    so macroscopic structure survives encryption.  Provided only to
    demonstrate the flaw (see ``attacks.ecb_block_repetition``).
    """

    def __init__(self, key: bytes):
        self._aes = AES(key)

    def encrypt(self, plaintext: bytes) -> bytes:
        return self._aes.encrypt_blocks(pkcs7_pad(plaintext))

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) % BLOCK_SIZE:
            raise CryptoError("ECB ciphertext not a block multiple")
        data = b"".join(
            self._aes.decrypt_block(ciphertext[i : i + BLOCK_SIZE])
            for i in range(0, len(ciphertext), BLOCK_SIZE)
        )
        return pkcs7_unpad(data)


class CBC:
    """Cipher Block Chaining with a random IV.

    Provides privacy (with unpredictable IVs) but **no integrity**:
    flipping bit *i* of ciphertext block *n* flips bit *i* of plaintext
    block *n+1* predictably.  ``attacks.cbc_bitflip`` exploits exactly
    this.
    """

    def __init__(self, key: bytes):
        self._aes = AES(key)

    def encrypt(self, plaintext: bytes, iv: bytes | None = None) -> bytes:
        """Returns IV || ciphertext."""
        iv = os.urandom(BLOCK_SIZE) if iv is None else iv
        if len(iv) != BLOCK_SIZE:
            raise CryptoError(f"CBC IV must be {BLOCK_SIZE} bytes")
        data = pkcs7_pad(plaintext)
        out = bytearray(iv)
        prev = iv
        for i in range(0, len(data), BLOCK_SIZE):
            block = bytes(a ^ b for a, b in zip(data[i : i + BLOCK_SIZE], prev))
            prev = self._aes.encrypt_block(block)
            out += prev
        return bytes(out)

    def decrypt(self, data: bytes) -> bytes:
        if len(data) < 2 * BLOCK_SIZE or len(data) % BLOCK_SIZE:
            raise CryptoError("CBC data must be IV plus >=1 block")
        iv, ciphertext = data[:BLOCK_SIZE], data[BLOCK_SIZE:]
        out = bytearray()
        prev = iv
        for i in range(0, len(ciphertext), BLOCK_SIZE):
            block = ciphertext[i : i + BLOCK_SIZE]
            plain = self._aes.decrypt_block(block)
            out += bytes(a ^ b for a, b in zip(plain, prev))
            prev = block
        return pkcs7_unpad(bytes(out))


class CTR:
    """Counter mode: a stream cipher; privacy only, bit-level malleable."""

    def __init__(self, key: bytes):
        self._aes = AES(key)

    def _crypt(self, nonce: bytes, data: bytes) -> bytes:
        """*data* XOR the keystream E_K(nonce || 0), E_K(nonce || 1), …"""
        if len(nonce) != 8:
            raise CryptoError("CTR nonce must be 8 bytes")
        n = len(data)
        blocks = counter_blocks(nonce, 0, -(-n // BLOCK_SIZE))
        ks = self._aes.encrypt_blocks(blocks)[:n]
        x = int.from_bytes(data, "big") ^ int.from_bytes(ks, "big")
        return x.to_bytes(n, "big")

    def encrypt(self, plaintext: bytes, nonce: bytes | None = None) -> bytes:
        """Returns nonce || ciphertext (no padding needed)."""
        nonce = os.urandom(8) if nonce is None else nonce
        return nonce + self._crypt(nonce, plaintext)

    def decrypt(self, data: bytes) -> bytes:
        if len(data) < 8:
            raise CryptoError("CTR data shorter than nonce")
        return self._crypt(data[:8], data[8:])
