"""CryptoPlan: the typed crypto discipline of one encrypted job.

The paper's prototypes hardcode a single choice — every message is
sealed serially on the sending rank's core.  Its §V-C conclusion (and
the authors' follow-up, CryptMPI) is that this cannot keep up with the
fabric: large messages must be chunked and pipelined across helper
cores.  That turns "how to encrypt" into a *plan* with real knobs, so
the knobs live in one frozen value instead of loose keywords scattered
over :class:`~repro.encmpi.config.SecurityConfig`:

- ``library`` — whose calibrated cost profile is charged (the paper's
  §III choice: openssl/boringssl/libsodium/cryptopp);
- ``mode`` — ``"serial"`` (the paper: one seal per message on the
  rank's core) or ``"cryptmpi"`` (chunked seals scheduled on the node's
  helper cores, overlapped with the wire transfer);
- ``chunk_bytes`` / ``helper_cores`` — the cryptmpi pipeline geometry
  (``helper_cores=None`` uses every idle helper on the node);
- ``bytework`` — ``"real"`` performs the AEAD byte work, ``"modeled"``
  charges only virtual time.

``parse_crypto_plan("cryptmpi:chunk=256k,cores=3")`` is the string
form, in the shared spec grammar of :mod:`repro.util.specs`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.defaults import current_defaults
from repro.models.cryptolib import PROFILED_LIBRARIES
from repro.util.specs import INT_OR_AUTO, SIZE, Grammar, Spec, choice

#: CryptMPI's default pipeline unit (64 KiB in the paper's code for
#: point-to-point; 256 KiB amortizes the per-chunk +28 B and per-call
#: overhead better at the sizes where pipelining pays at all)
DEFAULT_CHUNK_BYTES = 256 * 1024

CRYPTO_PLAN_MODES = ("serial", "cryptmpi")

#: How payload bytes are processed:
#: - "real": every message is genuinely sealed/opened with AES-GCM
#:   (tamper detection included) by the fastest available backend —
#:   wall-clock cost proportional to traffic;
#: - "modeled": only virtual time is charged (the calibrated profile);
#:   payloads travel as-is inside the simulator.  Benchmarks use this so
#:   multi-gigabyte sweeps stay fast; correctness of the crypto path is
#:   covered by "real"-mode tests.
BYTEWORK_MODES = ("real", "modeled")


@dataclass(frozen=True)
class CryptoPlan(Spec):
    """Frozen description of how an encrypted job seals its traffic."""

    grammar = Grammar(
        "crypto",
        head=("crypto plan mode", "mode", choice(CRYPTO_PLAN_MODES)),
        keys={
            "chunk": ("chunk_bytes", SIZE),
            "cores": ("helper_cores", INT_OR_AUTO),
            "library": ("library", choice(PROFILED_LIBRARIES)),
            "bytework": ("bytework", choice(BYTEWORK_MODES)),
        },
    )

    library: str = "boringssl"
    mode: str = "serial"
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    #: cap on helper cores one operation may occupy; None = every idle
    #: helper on the node (a rank's own core never counts as a helper)
    helper_cores: int | None = None
    bytework: str = "real"

    def __post_init__(self) -> None:
        if self.library not in PROFILED_LIBRARIES:
            raise ValueError(
                f"unknown library {self.library!r}; choose from {PROFILED_LIBRARIES}"
            )
        if self.mode not in CRYPTO_PLAN_MODES:
            raise ValueError(
                f"crypto plan mode must be one of {CRYPTO_PLAN_MODES}, "
                f"got {self.mode!r}"
            )
        if self.chunk_bytes < 1:
            raise ValueError(f"chunk_bytes must be >= 1, got {self.chunk_bytes}")
        if self.helper_cores is not None and self.helper_cores < 0:
            raise ValueError(
                f"helper_cores must be >= 0 or None, got {self.helper_cores}"
            )
        if self.bytework not in BYTEWORK_MODES:
            raise ValueError(
                f"bytework must be one of {BYTEWORK_MODES}, got {self.bytework!r}"
            )

    @property
    def pipelined(self) -> bool:
        return self.mode == "cryptmpi"


def parse_crypto_plan(spec: str) -> CryptoPlan:
    """Parse ``"MODE[:key=value,...]"`` into a :class:`CryptoPlan`.

    ``MODE`` is ``serial`` or ``cryptmpi``; keys are ``chunk`` (a size,
    e.g. ``256k``), ``cores`` (an int or ``auto``), ``library`` and
    ``bytework`` (``real``/``modeled``)::

        parse_crypto_plan("cryptmpi:chunk=256k,cores=3")
    """
    return CryptoPlan.parse(spec)


def apply_default_plan(plan: CryptoPlan) -> CryptoPlan:
    """Overlay the process-wide default's pipeline geometry onto *plan*.

    The default (:mod:`repro.defaults`, set by ``--crypto`` on the
    run/campaign CLI) contributes only mode, chunk_bytes and
    helper_cores — each config keeps its own library and bytework,
    which are calibration choices of the workload, not of the campaign
    invocation.
    """
    default = current_defaults().crypto
    if default is None:
        return plan
    return replace(
        plan,
        mode=default.mode,
        chunk_bytes=default.chunk_bytes,
        helper_cores=default.helper_cores,
    )


def modeled_plan(library: str | None,
                 crypto: CryptoPlan | None = None) -> CryptoPlan | None:
    """The plan a simulator benchmark encrypts under; None (the plain
    baseline) when *library* is None.

    *crypto* sets the pipelining discipline; None adopts the
    process-wide default's geometry (:func:`apply_default_plan`).  The
    benchmark's own *library* and modeled byte work always override the
    plan's, so multi-gigabyte sweeps charge only virtual time.
    """
    if library is None:
        return None
    base = crypto if crypto is not None else apply_default_plan(CryptoPlan())
    return replace(base, library=library, bytework="modeled")
