"""Collective algorithms over the point-to-point layer.

Algorithm selection mirrors MPICH-3.2 (whose defaults MVAPICH2 inherits
for these routines):

- ``bcast`` — binomial tree for small payloads, binomial scatter +
  ring allgather for large ones;
- ``allgather`` — recursive doubling for small power-of-two cases,
  ring otherwise;
- ``alltoall`` (and ``alltoallv``, the same function) — batched
  isend/irecv up to 32 KiB per pair, pairwise exchange above (MPICH's
  Bruck and throttled exchanges are not modeled);
- ``reduce`` — binomial tree;  ``allreduce`` — recursive doubling with
  a fold-in pre/post step for non-power-of-two sizes;
- ``barrier`` — dissemination.

All functions are called by every rank of the communicator (with
identical collective ordering, as MPI requires) and exchange plain
bytes; reduction ops combine two byte-strings.
"""

from repro.simmpi.collectives.bcast import bcast
from repro.simmpi.collectives.gather import gather, scatter
from repro.simmpi.collectives.allgather import allgather
from repro.simmpi.collectives.alltoall import alltoall, alltoallv
from repro.simmpi.collectives.reduce import allreduce, reduce
from repro.simmpi.collectives.reduce_scatter import reduce_scatter, scan
from repro.simmpi.collectives.barrier import barrier
from repro.simmpi.collectives.common import split_chunks

__all__ = [
    "bcast",
    "gather",
    "scatter",
    "allgather",
    "alltoall",
    "alltoallv",
    "reduce",
    "allreduce",
    "reduce_scatter",
    "scan",
    "barrier",
    "split_chunks",
]
