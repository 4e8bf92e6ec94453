"""repro — reproduction of "An Empirical Study of Cryptographic Libraries
for MPI Communications" (IEEE CLUSTER 2019).

The package provides:

- :mod:`repro.crypto` — AEAD layer (real AES-GCM plus a from-scratch
  pure-Python AES/GCM), the insecure constructions of prior encrypted-MPI
  systems, and attack demonstrations;
- :mod:`repro.des` — deterministic discrete-event simulation substrate;
- :mod:`repro.models` — calibrated performance models (cryptographic
  library throughput profiles, 10 GbE / 40 Gb IB network models, cluster
  topology);
- :mod:`repro.simmpi` — a from-scratch MPI library running on the
  simulator (point-to-point + collectives);
- :mod:`repro.encmpi` — the paper's contribution: MPI with AES-GCM
  encrypted communication, plus the paper's future-work extensions;
- :mod:`repro.workloads` — ping-pong, OSU multi-pair, OSU collectives,
  encryption-decryption microbenchmark, NAS parallel benchmark proxies;
- :mod:`repro.experiments` — the harness regenerating every table and
  figure of the paper's evaluation.
"""

__version__ = "1.0.0"


def __getattr__(name):
    """Lazy top-level conveniences.

    The stable public surface is :mod:`repro.api` (``run_job``,
    ``sweep``, ``get_experiment`` and their result dataclasses), all
    re-exported here.  The pre-facade names (``run_program``,
    ``EncryptedComm``, ``SecurityConfig``) remain supported.

    Lazy so that ``import repro`` stays instant (the simulator and
    crypto stacks only load when touched).
    """
    if name in ("run_job", "sweep", "run_campaign", "get_experiment",
                "list_experiments", "JobResult", "SweepPoint"):
        from repro import api

        return getattr(api, name)
    if name == "get_aead":
        from repro.crypto.aead import get_aead

        return get_aead
    if name == "run_program":
        from repro.simmpi import run_program

        return run_program
    if name == "EncryptedComm":
        from repro.encmpi import EncryptedComm

        return EncryptedComm
    if name == "SecurityConfig":
        from repro.encmpi import SecurityConfig

        return SecurityConfig
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "__version__",
    # the stable facade (repro.api)
    "run_job",
    "sweep",
    "run_campaign",
    "get_experiment",
    "list_experiments",
    "JobResult",
    "SweepPoint",
    "get_aead",
    # pre-facade conveniences (kept stable)
    "run_program",
    "EncryptedComm",
    "SecurityConfig",
]
