"""Runtime cluster state: nodes, NICs, cores, and rank placement."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from typing import Any

from repro.des.flows import Capacity, FlowNetwork
from repro.des.process import Scheduler
from repro.des.resources import Resource
from repro.models.cpu import ClusterSpec, CoreAllocator
from repro.models.network import NetworkModel


@dataclass
class Node:
    """One simulated host: a NIC (egress + ingress) and a core pool."""

    index: int
    egress: Capacity
    ingress: Capacity
    nic_engine: Resource
    cores: Resource
    #: schedulable helper cores (repro.models.cpu.CoreAllocator): the
    #: node's cores not pinned to a resident rank, charged virtual time
    #: by the cryptmpi pipelined-encryption path
    alloc: CoreAllocator
    #: ranks currently injecting messages (drives the NIC contention model)
    active_senders: int = 0


@dataclass
class ClusterRuntime:
    """Simulated instantiation of a :class:`ClusterSpec` on one fabric."""

    scheduler: Scheduler
    spec: ClusterSpec
    network: NetworkModel
    nranks: int
    placement: str = "block"
    #: TraceRecorder of the job (None when tracing is off); core
    #: allocators emit their core_busy events through it
    recorder: Any = None
    nodes: list[Node] = field(init=False)
    #: rank -> its Node, resolved once: the placement is fixed per job
    #: (index it only with ranks already checked against ``nranks``)
    rank_nodes: tuple[Node, ...] = field(init=False)
    flownet: FlowNetwork = field(init=False)
    _pair_caps: dict[tuple[int, int], Capacity] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.spec.validate_ranks(self.nranks)
        self.flownet = FlowNetwork(self.scheduler)
        placed = [self.spec.node_of(r, self.nranks, self.placement)
                  for r in range(self.nranks)]
        residents = Counter(placed)
        self.nodes = [
            Node(
                index=i,
                egress=Capacity(f"node{i}.egress", self.network.nic_capacity),
                ingress=Capacity(f"node{i}.ingress", self.network.nic_capacity),
                nic_engine=Resource(self.scheduler, 1, f"node{i}.nic"),
                cores=Resource(self.scheduler, self.spec.cores_per_node, f"node{i}.cores"),
                alloc=CoreAllocator(self.scheduler, i, self.spec.cores_per_node,
                                    residents[i], recorder=self.recorder),
            )
            for i in range(self.spec.nodes)
        ]
        self.rank_nodes = tuple(self.nodes[i] for i in placed)

    def node_of(self, rank: int) -> Node:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range for {self.nranks} ranks")
        return self.rank_nodes[rank]

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) is self.node_of(b)

    def pair_capacity(self, src: int, dst: int, size: int) -> Capacity:
        """Per-ordered-pair stream cap: in-flight messages of one
        sender/receiver pair share the pipelined single-stream bandwidth.

        The limit tracks the current message size; it is only retargeted
        when the pair has no active flows (mixed-size traffic on one
        pair is rare in the paper's benchmarks).
        """
        key = (src, dst)
        cap = self._pair_caps.get(key)
        limit = self.network.stream_bandwidth(size)
        if cap is None:
            cap = Capacity(f"pair{src}->{dst}", limit, pair=True)
            self._pair_caps[key] = cap
        elif cap.limit != limit and not cap.bundles:
            cap.limit = limit
        return cap
