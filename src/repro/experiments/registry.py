"""The experiment registry: every table and figure of the paper's §V.

Besides the registry itself, this module owns the one selection grammar
used everywhere experiments are chosen (`run`, `campaign`,
:func:`repro.api.run_campaign`): :func:`select` resolves a sequence of
tokens — tier names, ``all``, ``not-slow``, or explicit ids — into
experiments, deduplicated and in registry order per token.
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
    #: rough single-run wall-clock on one core: "fast" < 10 s,
    #: "medium" < 2 min, "slow" >= 2 min
    cost: str


def _reg() -> dict[str, Experiment]:
    entries = [
        Experiment("fig2", "Fig. 2", "Enc-dec throughput, gcc", figures.fig2, "fast"),
        Experiment("fig9", "Fig. 9", "Enc-dec throughput, MVAPICH compiler", figures.fig9, "fast"),
        Experiment("table1", "Table I", "Ping-pong small msgs, Ethernet", tables.table1, "fast"),
        Experiment("fig3", "Fig. 3", "Ping-pong medium/large, Ethernet", figures.fig3, "fast"),
        Experiment("table5", "Table V", "Ping-pong small msgs, InfiniBand", tables.table5, "fast"),
        Experiment("fig10", "Fig. 10", "Ping-pong medium/large, InfiniBand", figures.fig10, "fast"),
        Experiment("fig4", "Fig. 4", "Multi-pair 1B, Ethernet", figures.fig4, "fast"),
        Experiment("fig5", "Fig. 5", "Multi-pair 16KB, Ethernet", figures.fig5, "medium"),
        Experiment("fig6", "Fig. 6", "Multi-pair 2MB, Ethernet", figures.fig6, "slow"),
        Experiment("fig11", "Fig. 11", "Multi-pair 1B, InfiniBand", figures.fig11, "fast"),
        Experiment("fig12", "Fig. 12", "Multi-pair 16KB, InfiniBand", figures.fig12, "medium"),
        Experiment("fig13", "Fig. 13", "Multi-pair 2MB, InfiniBand", figures.fig13, "slow"),
        Experiment("table2", "Table II", "Encrypted_Bcast, Ethernet", tables.table2, "medium"),
        Experiment("table3", "Table III", "Encrypted_Alltoall, Ethernet", tables.table3, "slow"),
        Experiment("table6", "Table VI", "Encrypted_Bcast, InfiniBand", tables.table6, "medium"),
        Experiment("table7", "Table VII", "Encrypted_Alltoall, InfiniBand", tables.table7, "slow"),
        Experiment("fig7", "Fig. 7", "Bcast overhead, Ethernet", figures.fig7, "medium"),
        Experiment("fig8", "Fig. 8", "Alltoall overhead, Ethernet", figures.fig8, "slow"),
        Experiment("fig14", "Fig. 14", "Bcast overhead, InfiniBand", figures.fig14, "medium"),
        Experiment("fig15", "Fig. 15", "Alltoall overhead, InfiniBand", figures.fig15, "slow"),
        Experiment("table4", "Table IV", "NAS class C, Ethernet", tables.table4, "slow"),
        Experiment("table8", "Table VIII", "NAS class C, InfiniBand", tables.table8, "slow"),
        Experiment(
            "scalability",
            "§V method.",
            "Scalability grid 4r/4n..64r/8n (no paper table)",
            scalability,
            "medium",
        ),
        Experiment(
            "extras",
            "§IV",
            "Encrypted_Allgather/Alltoallv (implemented, unreported)",
            unreported_collectives,
            "medium",
        ),
        Experiment(
            "resilience",
            "§V ext.",
            "Goodput/latency under injected faults, ack/retransmit",
            resilience,
            "medium",
        ),
        Experiment(
            "cryptmpi",
            "§V-C ext.",
            "Pipelined (CryptMPI-style) vs serial encryption",
            cryptmpi,
            "medium",
        ),
        Experiment(
            "scale",
            "§V ext.",
            "Encrypted_Alltoall to 4096 ranks, fluid model, coroutines",
            scale,
            "slow",
        ),
        Experiment(
            "hostile",
            "§V ext.",
            "Hostile fabrics (WAN/IoT + jitter/loss), bootstrap CIs",
            hostile,
            "medium",
        ),
        Experiment(
            "predict",
            "§V ext.",
            "Analytical predictor vs simulator",
            predict_validation,
            "medium",
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


#: the cost tiers of the registry, cheapest first (also selection tokens)
COST_TIERS = ("fast", "medium", "slow")

#: selection tokens that expand to more than one experiment
SELECTION_TOKENS = ("all", "not-slow") + COST_TIERS


def select(tokens: Iterable[str]) -> list[Experiment]:
    """Resolve selection *tokens* into experiments, deduplicated.

    Grammar (one token per element, case-insensitive):

    - ``all`` — every registered experiment, registry order;
    - ``fast`` / ``medium`` / ``slow`` — every experiment of that cost
      tier, registry order;
    - ``not-slow`` — the fast and medium tiers (registry order);
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
            ids.extend(e.id for e in list_experiments())
        elif t in COST_TIERS:
            ids.extend(e.id for e in list_experiments() if e.cost == t)
        elif t == "not-slow":
            ids.extend(e.id for e in list_experiments() if e.cost != "slow")
        else:
            ids.append(t)
    return [get_experiment(exp_id) for exp_id in dict.fromkeys(ids)]
