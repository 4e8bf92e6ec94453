"""Replay protection — closing the gap the paper sets aside.

§III footnote 1: "the adversary can still replace a ciphertext with a
prior one; this is known as a replay attack.  Here we do not consider
such attacks."  AES-GCM accepts any (nonce, ciphertext) pair it has
seen before, so recording and resending a valid message works against
the paper's prototypes.

:class:`ReplayGuard` fixes this the way AEAD transport protocols do
(TLS/DTLS, IPsec): the sender uses strictly increasing counter nonces
per (sender, receiver) channel, and the receiver tracks the highest
counter seen plus a sliding acceptance window for reordered messages.
A duplicate or too-old counter raises :class:`ReplayError`; a counter
joins the window only after its frame authenticates.
"""

from __future__ import annotations

from repro.crypto.errors import CryptoError


class ReplayError(CryptoError):
    """A message's sequence counter was already accepted (replay) or
    fell behind the acceptance window."""


class ReplayGuard:
    """IPsec-style sliding-window anti-replay check for one channel."""

    def __init__(self, window: int = 64):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._highest = -1
        self._seen_mask = 0  # bit i => (highest - i) accepted

    def screen(self, counter: int) -> None:
        """Raise :class:`ReplayError` unless *counter* is acceptable.

        Counters may arrive out of order within ``window`` of the
        highest accepted counter; anything older, or any duplicate, is
        rejected.  Nothing is recorded: a receiver screens a frame
        before decrypting it and passes the counter to :meth:`commit`
        only once the frame's tag has verified (RFC 4303 §3.4.3), so a
        forged or corrupted frame can neither burn a counter nor move
        the window.
        """
        if counter < 0:
            raise ReplayError(f"negative sequence counter {counter}")
        if counter > self._highest:
            return
        offset = self._highest - counter
        if offset >= self.window:
            raise ReplayError(
                f"counter {counter} older than the window "
                f"(highest={self._highest}, window={self.window})"
            )
        if self._seen_mask & (1 << offset):
            raise ReplayError(f"replayed counter {counter}")

    def commit(self, counter: int) -> None:
        """Record a screened *counter* as accepted."""
        if counter > self._highest:
            shift = counter - self._highest
            self._seen_mask = 1 if shift >= self.window else (
                ((self._seen_mask << shift) | 1) & ((1 << self.window) - 1)
            )
            self._highest = counter
        else:
            self._seen_mask |= 1 << (self._highest - counter)

    def check(self, counter: int) -> None:
        """Screen *counter* and, if acceptable, record it at once."""
        self.screen(counter)
        self.commit(counter)

    @property
    def highest(self) -> int:
        return self._highest


def counter_of_nonce(nonce: bytes) -> int:
    """Extract the message counter from a CounterNonces-style nonce
    (4-byte sender id || 8-byte counter)."""
    if len(nonce) != 12:
        raise ValueError(f"nonce must be 12 bytes, got {len(nonce)}")
    return int.from_bytes(nonce[4:], "big")
