"""Security configuration for encrypted MPI."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.crypto.keys import HARDCODED_KEY_128, HARDCODED_KEY_256
from repro.encmpi.plan import CryptoPlan, apply_default_plan
from repro.models.cryptolib import PROFILED_LIBRARIES

NONCE_STRATEGIES = ("random", "counter")


@dataclass(frozen=True)
class SecurityConfig:
    """Selects library, key, nonce discipline, and the crypto plan.

    The default mirrors the paper's setup: AES-GCM-256, random nonces,
    a key hardcoded at 'build time' (no distribution mechanism), every
    message sealed serially on the sending rank's core.

    How traffic is sealed is a :class:`~repro.encmpi.plan.CryptoPlan`
    passed as ``crypto=``; after construction ``config.crypto`` is
    always a resolved plan and ``config.library``/``config.crypto_mode``
    read its ``library``/``bytework`` fields.
    """

    library: str = "boringssl"
    key_bits: int = 256
    nonce_strategy: str = "random"
    key: bytes = b""
    #: authenticate the (source, tag) header as AAD — an extension over
    #: the paper, which authenticates only the payload
    bind_header: bool = False
    #: which registered AEAD backend performs the real byte work
    #: ("auto" = fastest available; see repro.crypto.aead.get_aead).
    #: The *library* field above selects the calibrated cost profile —
    #: the two are independent by design.
    backend: str = "auto"
    #: sliding-window anti-replay protection (repro.encmpi.replay).
    #: 0 disables the check (the paper's threat model, §III footnote 1),
    #: so a duplicated frame goes unscreened: the serial path delivers
    #: the stale copy as the next message, and a stale cryptmpi frame 0
    #: posts its siblings on its old message's tag and hangs;
    #: a positive value is the per-source acceptance window and requires
    #: nonce_strategy="counter" so the receiver can read the sequence
    #: counter out of the nonce.
    replay_window: int = 0
    #: the crypto discipline: serial (the paper) or cryptmpi pipelined
    #: (chunked seals on helper cores, overlapped with the wire)
    crypto: CryptoPlan | None = None

    def __post_init__(self) -> None:
        if self.library not in PROFILED_LIBRARIES:
            raise ValueError(
                f"unknown library {self.library!r}; choose from {PROFILED_LIBRARIES}"
            )
        if self.key_bits not in (128, 256):
            raise ValueError(f"key_bits must be 128 or 256, got {self.key_bits}")
        if self.library == "libsodium" and self.key_bits != 256:
            raise ValueError("Libsodium only supports AES-GCM-256 (§III-B)")
        if self.nonce_strategy not in NONCE_STRATEGIES:
            raise ValueError(f"unknown nonce strategy {self.nonce_strategy!r}")
        object.__setattr__(self, "crypto", self._resolve_plan())
        object.__setattr__(self, "library", self.crypto.library)
        if not self.key:
            default = (
                HARDCODED_KEY_256 if self.key_bits == 256 else HARDCODED_KEY_128
            )
            object.__setattr__(self, "key", default)
        if len(self.key) * 8 != self.key_bits:
            raise ValueError(
                f"key length {len(self.key)} bytes does not match "
                f"key_bits={self.key_bits}"
            )
        if self.replay_window < 0:
            raise ValueError(f"replay_window must be >= 0, got {self.replay_window}")
        if self.replay_window and self.nonce_strategy != "counter":
            raise ValueError(
                "replay protection requires nonce_strategy='counter' "
                "(random nonces carry no sequence counter)"
            )

    @property
    def crypto_mode(self) -> str:
        """How payload bytes are processed: the plan's bytework."""
        return self.crypto.bytework

    def _resolve_plan(self) -> CryptoPlan:
        """One CryptoPlan from the crypto=/library= pair."""
        plan = self.crypto
        if plan is not None and not isinstance(plan, CryptoPlan):
            raise TypeError(
                f"crypto must be a CryptoPlan or None, got {plan!r}"
            )
        if plan is None:
            return apply_default_plan(CryptoPlan(library=self.library))
        # Reconcile the two library spellings.  The plan wins when the
        # config-level field was left at its default; a config-level
        # override fills in a plan that left library at its default;
        # two explicit, different choices are ambiguous.
        if plan.library == self.library:
            return plan
        if self.library == "boringssl":
            return plan
        if plan.library == "boringssl":
            return replace(plan, library=self.library)
        raise ValueError(
            f"conflicting libraries: SecurityConfig(library="
            f"{self.library!r}) but crypto plan says {plan.library!r}"
        )

    def with_key(self, key: bytes) -> "SecurityConfig":
        """A copy of this config using *key* (e.g. from key exchange)."""
        return SecurityConfig(
            library=self.library,
            key_bits=len(key) * 8,
            nonce_strategy=self.nonce_strategy,
            key=key,
            bind_header=self.bind_header,
            backend=self.backend,
            replay_window=self.replay_window,
            crypto=self.crypto,
        )
