"""Concrete AEAD backends: OpenSSL (via ``cryptography``) and pure Python.

The ``openssl`` backend wraps the same AES-GCM implementation the
paper's OpenSSL-built prototype calls (EVP AES-GCM with AES-NI); the
``pure`` backend is the from-scratch implementation in
:mod:`repro.crypto.gcm`.  Both produce byte-identical ciphertexts — the
test suite asserts so — which is what lets the simulator use whichever
is available without changing behaviour.

Backends register themselves into :func:`repro.crypto.aead.get_aead`,
which is the only constructor: it resolves the backend name and
caches instances per key.
"""

from __future__ import annotations

from repro.crypto.aead import AEAD, register_backend
from repro.crypto.errors import AuthenticationError
from repro.crypto.gcm import AESGCM as _PureAESGCM

try:  # pragma: no cover - presence depends on the host
    from cryptography.exceptions import InvalidTag as _InvalidTag
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM as _OsslAESGCM

    HAVE_OPENSSL = True
except ImportError:  # pragma: no cover
    HAVE_OPENSSL = False


class _PureAEAD(AEAD):
    """From-scratch AES-GCM; slow but dependency-free and auditable."""

    name = "pure"

    def __init__(self, key: bytes):
        super().__init__(key)
        self._gcm = _PureAESGCM(self.key)

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        return self._gcm.encrypt(nonce, plaintext, aad)

    def open(self, nonce: bytes, ciphertext: bytes, aad: bytes = b"") -> bytes:
        return self._gcm.decrypt(nonce, ciphertext, aad)


register_backend("pure", _PureAEAD)


class _ChaChaAEAD(AEAD):
    """ChaCha20-Poly1305 (RFC 8439) — Libsodium's native AEAD.

    Same ``nonce || ct || tag`` frame shape as AES-GCM, so the encrypted
    MPI layer is cipher-agnostic; used by the what-if ablation.
    """

    name = "chacha"

    def __init__(self, key: bytes):
        super().__init__(key)
        if len(self.key) != 32:
            from repro.crypto.errors import KeyFormatError

            raise KeyFormatError("ChaCha20-Poly1305 requires a 256-bit key")
        from repro.crypto.chacha import ChaCha20Poly1305

        self._aead = ChaCha20Poly1305(self.key)

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        return self._aead.encrypt(nonce, plaintext, aad)

    def open(self, nonce: bytes, ciphertext: bytes, aad: bytes = b"") -> bytes:
        return self._aead.decrypt(nonce, ciphertext, aad)


register_backend("chacha", _ChaChaAEAD)


if HAVE_OPENSSL:

    class _OpenSSLAEAD(AEAD):
        """AES-GCM through OpenSSL's EVP layer (AES-NI accelerated)."""

        name = "openssl"

        def __init__(self, key: bytes):
            super().__init__(key)
            self._gcm = _OsslAESGCM(self.key)

        def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
            return self._gcm.encrypt(nonce, plaintext, aad or None)

        def open(self, nonce: bytes, ciphertext: bytes, aad: bytes = b"") -> bytes:
            try:
                return self._gcm.decrypt(nonce, ciphertext, aad or None)
            except _InvalidTag as exc:
                raise AuthenticationError(
                    "GCM tag mismatch: message tampered or wrong key/nonce"
                ) from exc

    register_backend("openssl", _OpenSSLAEAD)
