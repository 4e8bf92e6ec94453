"""The ``resilience`` experiment: goodput and latency overhead of
encrypted MPI under lossy/corrupting fabrics, with the reliable-delivery
layer (ack/retransmit + deterministic backoff) armed.

The paper measures encryption overhead on a well-behaved network; this
extension asks what the same encrypted ping-pong costs when the fabric
misbehaves and the transport has to earn delivery.  Each cell runs the
ping-pong under a seeded :class:`~repro.simmpi.faults.FaultPlan`
(deterministic fault sequence) with a
:class:`~repro.simmpi.resilience.ResiliencePolicy`, and reports goodput,
latency overhead versus the fault-free baseline, and the retransmission
ledger.  Everything is virtual-time and seeded, so two runs render
byte-identical artifacts — the property ``make check-resilience`` pins.
"""

from __future__ import annotations

from repro.encmpi import CryptoPlan, SecurityConfig
from repro.experiments.report import Artifact
from repro.models.cpu import parse_cluster_spec
from repro.simmpi.faults import FaultPlan
from repro.simmpi.resilience import ResiliencePolicy
from repro.util.tables import Table

#: two ranks on two nodes — the paper's ping-pong placement, so every
#: message (and every retransmission) crosses the wire
RESILIENCE_CLUSTER = parse_cluster_spec("2x8")

#: single channel of the exchange (named per MPI002: no magic tags)
TAG_RESILIENT_PINGPONG = 7

MSG_BYTES = 512
ITERS = 32

#: (label, FaultPlan) cells — rates split ~70/30 between drop and
#: corrupt so both the timeout path and the NACK path get exercised
FAULT_CELLS = (
    ("0%", FaultPlan()),
    ("2%", FaultPlan(drop=0.014, corrupt=0.006, seed=1109)),
    ("8%", FaultPlan(drop=0.056, corrupt=0.024, seed=1109)),
    # stress cell: high enough that envelopes need several retries, so
    # the exponential and fixed backoff schedules actually diverge
    ("30%", FaultPlan(drop=0.21, corrupt=0.09, seed=1109)),
)

#: policies under comparison: backoff discipline is the variable;
#: plain_fallback keeps the sweep total even at absurd fault rates
POLICY_CELLS = (
    ("exponential", ResiliencePolicy(max_retries=6, timeout=2e-4,
                                     backoff="exponential",
                                     escalation="plain_fallback")),
    ("fixed", ResiliencePolicy(max_retries=6, timeout=2e-4,
                               backoff="fixed",
                               escalation="plain_fallback")),
)

_SECURITY = SecurityConfig(
    library="boringssl",
    nonce_strategy="counter",
    replay_window=64,
    # pinned serial plan: the fault sweep measures the retransmit layer,
    # not the pipelining discipline, and its artifacts are byte-pinned
    crypto=CryptoPlan(bytework="real"),
)


def _pingpong(ctx):
    """Encrypted ping-pong; returns bytes of payload this rank moved."""
    enc = ctx.enc
    payload = b"\x5a" * MSG_BYTES
    moved = 0
    for _ in range(ITERS):
        if ctx.rank == 0:
            enc.send(payload, 1, tag=TAG_RESILIENT_PINGPONG)
            data, _status = enc.recv(1, TAG_RESILIENT_PINGPONG)
        else:
            data, _status = enc.recv(0, TAG_RESILIENT_PINGPONG)
            enc.send(payload, 0, tag=TAG_RESILIENT_PINGPONG)
        if len(data) != MSG_BYTES:
            raise AssertionError("payload mangled despite resilience")
        moved += len(data) + MSG_BYTES
    return moved


def _run_cell(plan: FaultPlan, policy: ResiliencePolicy):
    # imported lazily: repro.api itself imports the experiment registry,
    # which imports this module
    from repro.api import run_job

    return run_job(
        _pingpong,
        nranks=2,
        security=_SECURITY,
        network="ethernet",
        cluster=RESILIENCE_CLUSTER,
        faults=plan,
        resilience=policy,
        sanitize=True,
    )


def resilience() -> Artifact:
    """Fault rate x backoff policy sweep of the reliable encrypted
    ping-pong; the ``resilience`` registry entry."""
    title = (
        "Encrypted ping-pong under injected faults with ack/retransmit "
        f"({MSG_BYTES} B x {ITERS} iters, AES-GCM-256, Ethernet)"
    )
    table = Table(
        title,
        ["goodput MB/s", "latency x", "retransmits", "nacks", "fallbacks"],
    )
    baseline: dict[str, float] = {}
    headlines: dict[str, tuple[float, float | None]] = {}
    for pol_label, policy in POLICY_CELLS:
        for rate_label, plan in FAULT_CELLS:
            job = _run_cell(plan, policy)
            rep = job.resilience
            goodput = 2 * ITERS * MSG_BYTES / job.duration / 1e6
            if rate_label == "0%":
                baseline[pol_label] = job.duration
            slowdown = job.duration / baseline[pol_label]
            table.add_row(
                f"{pol_label} @ {rate_label} faults",
                [goodput, slowdown, rep.retransmits, rep.nacks,
                 rep.fallbacks],
            )
            if rate_label == FAULT_CELLS[-1][0]:
                headlines[f"latency_x_{pol_label}_30pct"] = (slowdown, None)
    notes = [
        "faults: seeded FaultPlan, ~70/30 drop/corrupt split of the "
        "headline rate; identical fault sequence per policy cell",
        "latency x = job duration / same policy at 0% faults; paper "
        "has no lossy-fabric numbers (extension)",
        "corrupted frames fail AEAD authentication and are NACKed; "
        "every retransmission is re-sealed with a fresh nonce",
        "fallbacks column counts plain_fallback escalations (0 means "
        "the retry budget always sufficed)",
    ]
    return Artifact("resilience", title, table, notes, headlines)
