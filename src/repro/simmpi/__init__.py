"""A from-scratch MPI library running on the discrete-event simulator.

The paper instruments MPICH-3.2.1 and MVAPICH2-2.3; this package is the
stand-in substrate: real message passing between rank programs (real
Python threads exchanging real bytes) with virtual-time costs taken
from the calibrated fabric models.

Public surface:

- :func:`repro.simmpi.world.run_program` — launch ``nranks`` copies of a
  rank program on a simulated cluster,
- :class:`repro.simmpi.comm.CommHandle` — the per-rank communicator API
  (``send/recv/isend/irecv/wait/waitall/sendrecv`` plus the collectives
  the paper instruments: ``bcast/allgather/alltoall/alltoallv`` and the
  extras NAS needs: ``gather/scatter/reduce/allreduce/barrier``),
- :data:`ANY_SOURCE` / :data:`ANY_TAG` wildcards.
"""

from repro.simmpi.message import ANY_SOURCE, ANY_TAG
from repro.simmpi.request import Request, Status
from repro.simmpi.world import RankContext, SimResult, run_program

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Request",
    "Status",
    "RankContext",
    "SimResult",
    "run_program",
]
