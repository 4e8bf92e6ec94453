"""The experiment registry: every table and figure of the paper's §V.

Besides the registry itself, this module owns the one selection grammar
used everywhere experiments are chosen (`run`, `campaign`,
:func:`repro.api.run_campaign`): :func:`select` resolves a sequence of
tokens — ``all`` or explicit ids — into experiments, deduplicated, with
``all`` expanding in registry order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.experiments import figures, tables
from repro.experiments.report import Artifact
from repro.experiments.cryptmpi import cryptmpi
from repro.experiments.extras import unreported_collectives
from repro.experiments.hostile import hostile
from repro.experiments.predict import predict_validation
from repro.experiments.resilience import resilience
from repro.experiments.scalability import scalability
from repro.experiments.scale import scale


@dataclass(frozen=True)
class Experiment:
    id: str
    paper_ref: str
    title: str
    runner: Callable[[], Artifact]


def _reg() -> dict[str, Experiment]:
    entries = [
        Experiment("fig2", "Fig. 2", "Enc-dec throughput, gcc", figures.fig2),
        Experiment("fig9", "Fig. 9", "Enc-dec throughput, MVAPICH compiler", figures.fig9),
        Experiment("table1", "Table I", "Ping-pong small msgs, Ethernet", tables.table1),
        Experiment("fig3", "Fig. 3", "Ping-pong medium/large, Ethernet", figures.fig3),
        Experiment("table5", "Table V", "Ping-pong small msgs, InfiniBand", tables.table5),
        Experiment("fig10", "Fig. 10", "Ping-pong medium/large, InfiniBand", figures.fig10),
        Experiment("fig4", "Fig. 4", "Multi-pair 1B, Ethernet", figures.fig4),
        Experiment("fig5", "Fig. 5", "Multi-pair 16KB, Ethernet", figures.fig5),
        Experiment("fig6", "Fig. 6", "Multi-pair 2MB, Ethernet", figures.fig6),
        Experiment("fig11", "Fig. 11", "Multi-pair 1B, InfiniBand", figures.fig11),
        Experiment("fig12", "Fig. 12", "Multi-pair 16KB, InfiniBand", figures.fig12),
        Experiment("fig13", "Fig. 13", "Multi-pair 2MB, InfiniBand", figures.fig13),
        Experiment("table2", "Table II", "Encrypted_Bcast, Ethernet", tables.table2),
        Experiment("table3", "Table III", "Encrypted_Alltoall, Ethernet", tables.table3),
        Experiment("table6", "Table VI", "Encrypted_Bcast, InfiniBand", tables.table6),
        Experiment("table7", "Table VII", "Encrypted_Alltoall, InfiniBand", tables.table7),
        Experiment("fig7", "Fig. 7", "Bcast overhead, Ethernet", figures.fig7),
        Experiment("fig8", "Fig. 8", "Alltoall overhead, Ethernet", figures.fig8),
        Experiment("fig14", "Fig. 14", "Bcast overhead, InfiniBand", figures.fig14),
        Experiment("fig15", "Fig. 15", "Alltoall overhead, InfiniBand", figures.fig15),
        Experiment("table4", "Table IV", "NAS class C, Ethernet", tables.table4),
        Experiment("table8", "Table VIII", "NAS class C, InfiniBand", tables.table8),
        Experiment(
            "scalability",
            "§V method.",
            "Scalability grid 4r/4n..64r/8n (no paper table)",
            scalability,
        ),
        Experiment(
            "extras",
            "§IV",
            "Encrypted_Allgather (implemented, unreported; Alltoallv is Alltoall)",
            unreported_collectives,
        ),
        Experiment(
            "resilience",
            "§V ext.",
            "Goodput/latency under injected faults, ack/retransmit",
            resilience,
        ),
        Experiment(
            "cryptmpi",
            "§V-C ext.",
            "Pipelined (CryptMPI-style) vs serial encryption",
            cryptmpi,
        ),
        Experiment(
            "scale",
            "§V ext.",
            "Encrypted_Alltoall to 4096 ranks, fluid model",
            scale,
        ),
        Experiment(
            "hostile",
            "§V ext.",
            "Hostile fabrics (WAN/IoT + jitter/loss), bootstrap CIs",
            hostile,
        ),
        Experiment(
            "predict",
            "§V ext.",
            "Analytical predictor vs simulator",
            predict_validation,
        ),
    ]
    return {e.id: e for e in entries}


EXPERIMENTS: dict[str, Experiment] = _reg()


def get_experiment(exp_id: str) -> Experiment:
    try:
        return EXPERIMENTS[exp_id.lower()]
    except KeyError:
        raise ValueError(
            f"unknown experiment {exp_id!r}; known: {', '.join(EXPERIMENTS)}"
        ) from None


def list_experiments() -> list[Experiment]:
    return list(EXPERIMENTS.values())


def select(tokens: Iterable[str]) -> list[Experiment]:
    """Resolve selection *tokens* into experiments, deduplicated.

    Grammar (one token per element, case-insensitive):

    - ``all`` — every registered experiment, registry order;
    - anything else — an explicit experiment id (``fig6``, ``table1``).

    Duplicates are dropped keeping the first occurrence, so
    ``select(["fig6", "all"])`` runs fig6 first and everything else
    after it.  Unknown ids raise :class:`ValueError` (via
    :func:`get_experiment`).
    """
    ids: list[str] = []
    for token in tokens:
        t = token.lower()
        if t == "all":
            ids.extend(EXPERIMENTS)
        else:
            ids.append(t)
    return [get_experiment(exp_id) for exp_id in dict.fromkeys(ids)]
