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

The stable surface is the facade :mod:`repro.api` (``from repro import
api``).
"""

__version__ = "1.0.0"
