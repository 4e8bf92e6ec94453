"""Calibrated performance models.

The reproduction cannot run on the paper's testbed (8× Xeon E5-2620 v4
nodes with 10 GbE and 40 Gb IB QDR) nor link the four C cryptographic
libraries, so their *measured behaviour* — published in the paper's
figures, tables, and inline numbers — becomes model input:

- :mod:`repro.models.cryptolib` — per-library AES-GCM throughput
  profiles (the paper's Fig. 2 / Fig. 9 plus inline values),
- :mod:`repro.models.network` — extended-Hockney models of the two
  fabrics, calibrated against the unencrypted baselines,
- :mod:`repro.models.cpu` — node/core model of the testbed,
- :mod:`repro.models.calibration` — the digitized data itself, with
  provenance notes tying every anchor to a sentence or cell in the
  paper,
- :mod:`repro.models.predict` — the simulator's cost model in closed
  form: a benchmark cell answered without simulating it.

Everything *encrypted* that comes out of the simulator is a prediction
of these models, compared against the paper in EXPERIMENTS.md.
"""

from repro.models.cryptolib import CryptoLibraryProfile, get_profile, PROFILED_LIBRARIES
from repro.models.network import NetworkModel, ethernet_10g, infiniband_40g
from repro.models.cpu import ClusterSpec, PAPER_CLUSTER

__all__ = [
    "CryptoLibraryProfile",
    "get_profile",
    "PROFILED_LIBRARIES",
    "NetworkModel",
    "ethernet_10g",
    "infiniband_40g",
    "ClusterSpec",
    "PAPER_CLUSTER",
]
