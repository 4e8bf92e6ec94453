"""Cluster shape: nodes, cores, and rank placement.

§V "System setup": 8 nodes, each an 8-core Intel Xeon E5-2620 v4
(2.10 GHz base) with 64 GB DDR4 — so the 64-rank/8-node NAS and
collective runs pin exactly one rank per core.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from dataclasses import dataclass

if TYPE_CHECKING:
    from repro.des.process import Scheduler, SimEvent


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of the simulated cluster: its node shape.

    The network a job uses comes from its ``network=`` argument.
    """

    nodes: int
    cores_per_node: int

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.cores_per_node < 1:
            raise ValueError(f"invalid cluster shape {self}")

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node

    def token(self) -> str:
        """Canonical ``"NODESxCORES"`` form (stable: the campaign
        digests cluster shapes through it)."""
        return f"{self.nodes}x{self.cores_per_node}"

    def validate_ranks(self, nranks: int) -> None:
        if nranks < 1:
            raise ValueError(f"need at least one rank, got {nranks}")
        if nranks > self.total_cores:
            raise ValueError(
                f"{nranks} ranks exceed {self.total_cores} cores "
                f"({self.nodes} nodes x {self.cores_per_node}); the paper "
                "never oversubscribes cores"
            )

    def node_of(self, rank: int, nranks: int, placement: str = "block") -> int:
        """Map a rank to its node.

        ``block`` fills nodes with consecutive ranks (MPICH/MVAPICH
        default for the paper's host files: ranks 0-7 on node 0, ...);
        ``roundrobin`` deals ranks out cyclically.  The paper's
        scalability settings (e.g. 16 rank/8 node) spread ranks evenly,
        which block placement with equal shares reproduces.
        """
        self.validate_ranks(nranks)
        if not 0 <= rank < nranks:
            raise ValueError(f"rank {rank} out of range for {nranks} ranks")
        if placement == "block":
            per_node, extra = divmod(nranks, self.nodes)
            if per_node == 0:
                # Fewer ranks than nodes: one rank per node.
                return rank
            # First `extra` nodes hold one extra rank.
            boundary = (per_node + 1) * extra
            if rank < boundary:
                return rank // (per_node + 1)
            return extra + (rank - boundary) // per_node
        if placement == "roundrobin":
            return rank % self.nodes
        raise ValueError(f"unknown placement {placement!r}")


class CoreAllocator:
    """Schedulable CPU cores of one node, charged in virtual time.

    Each node's cores split statically: one *resident* core per rank
    placed there (rank programs run on it — ``RankContext.compute``),
    the remainder are *helpers*.  Helper work — chunk seals/opens of the
    cryptmpi pipeline — is submitted here and served FIFO by a
    :class:`~repro.des.resources.WorkPool`: at most ``helpers`` items
    run concurrently, excess items queue in submission order, so the
    completion schedule (and therefore the trace digest) is
    deterministic.

    Every completed item emits a ``core_busy`` event on the ``cpu``
    trace layer (node, owning rank, work kind, bytes, virtual duration)
    when a recorder is attached — serial jobs submit nothing and their
    traces stay byte-identical to the pre-allocator goldens.
    """

    def __init__(
        self,
        scheduler: "Scheduler",
        node_index: int,
        cores_per_node: int,
        resident_ranks: int,
        recorder=None,
    ):
        from repro.des.resources import WorkPool

        if not 0 <= resident_ranks <= cores_per_node:
            raise ValueError(
                f"{resident_ranks} resident ranks on a {cores_per_node}-core node"
            )
        self.node_index = node_index
        self.cores_per_node = cores_per_node
        self.resident_ranks = resident_ranks
        #: helper cores: the node's cores not pinned to a rank
        self.helpers = cores_per_node - resident_ranks
        self.recorder = recorder
        self._pool = WorkPool(scheduler, self.helpers, f"node{node_index}.helpers")
        #: lifetime ledger (reported by tests and the cryptmpi experiment)
        self.jobs_run = 0
        self.busy_seconds = 0.0

    @property
    def busy(self) -> int:
        return self._pool.busy

    def submit(
        self,
        seconds: float,
        *,
        rank: int,
        work: str,
        nbytes: int = 0,
        chunk: int = -1,
        after: "SimEvent | None" = None,
    ) -> "SimEvent":
        """Charge *seconds* of helper-core time on behalf of *rank*.

        Returns the completion :class:`~repro.des.process.SimEvent`.
        *after* delays enqueueing until that event succeeds (the
        per-operation helper cap of the cryptmpi pipeline).  Raises
        ``RuntimeError`` when the node has no helpers — callers check
        :attr:`helpers` and fall back to computing on the rank's own
        core.
        """
        done = self._pool.submit(seconds, after=after)

        def _record(_ev) -> None:
            self.jobs_run += 1
            self.busy_seconds += seconds
            rec = self.recorder
            if rec is not None:
                rec.emit("cpu", "core_busy", rank, node=self.node_index,
                         work=work, bytes=nbytes, chunk=chunk, dur=seconds)

        done.callbacks.append(_record)
        return done


def parse_cluster_spec(spec: str) -> ClusterSpec:
    """Parse ``"NODESxCORES"`` into a :class:`ClusterSpec`.

    The string form of the cluster shape.  It is positional, so it
    keeps this parser instead of the ``key=value`` grammar of
    :mod:`repro.util.specs`::

        parse_cluster_spec("8x8")       # the paper's testbed
        parse_cluster_spec("2x8")       # two nodes of eight cores

    Round-trips with :meth:`ClusterSpec.token`.  Malformed shapes raise
    :class:`ValueError` describing the grammar.
    """
    nodes_s, sep, cores_s = spec.strip().partition("x")
    if not sep:
        raise ValueError(
            f"malformed cluster spec {spec!r} (need 'NODESxCORES', "
            "e.g. '8x8' or '2x8')"
        )
    try:
        nodes, cores = int(nodes_s), int(cores_s)
    except ValueError:
        raise ValueError(
            f"malformed cluster spec {spec!r}: nodes and cores must be "
            "integers (e.g. '8x8')"
        ) from None
    return ClusterSpec(nodes=nodes, cores_per_node=cores)


#: The paper's testbed.
PAPER_CLUSTER = ClusterSpec(nodes=8, cores_per_node=8)

#: Two-node slice used by ping-pong and the OSU multi-pair test.
TWO_NODE_CLUSTER = ClusterSpec(nodes=2, cores_per_node=8)
