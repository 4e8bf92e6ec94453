"""The ``cryptmpi`` experiment: pipelined (CryptMPI-style) vs serial
encryption on the paper's ping-pong and multi-pair benchmarks.

The paper's §V-C diagnosis is that single-threaded encryption cannot
keep a fast fabric busy: the sender seals the whole message before the
first byte enters the wire.  The authors' follow-up (CryptMPI) chunks
large messages and seals the chunks on idle helper cores so encryption
overlaps the transfer.  This experiment reproduces the *shape* of that
result inside the simulator:

- ping-pong (InfiniBand, 2 nodes): the cryptmpi speedup over serial
  encryption grows with message size — one-chunk messages gain nothing,
  multi-chunk messages approach the wire-limited time;
- multi-pair (1..4 pairs, large messages): the encrypted-vs-plain gap
  narrows under the cryptmpi plan because the node's helper cores
  absorb the crypto cost that serial mode charges on the rank's core.

Everything is virtual-time and seeded, so every run renders the
committed ``results/cryptmpi.*`` byte for byte — the property ``make
check-artifacts`` pins.
"""

from __future__ import annotations

from repro.encmpi.plan import CryptoPlan
from repro.experiments.report import Artifact
from repro.models.cpu import parse_cluster_spec
from repro.util.tables import Table
from repro.util.units import format_bytes
from repro.workloads.pingpong import pingpong_oneway_time

#: two nodes, eight cores each — ranks on different nodes, helpers idle
CRYPTMPI_CLUSTER = parse_cluster_spec("2x8")

NETWORK = "infiniband"
LIBRARY = "boringssl"

#: CryptMPI's point-to-point pipeline unit
CHUNK_BYTES = 64 * 1024

#: ping-pong sizes: 1, 4, 16, and 64 chunks — the 1-chunk row pins the
#: no-gain floor, the tail shows the speedup growing with size
PINGPONG_SIZES = (64 * 1024, 256 * 1024, 1024 * 1024, 4 * 1024 * 1024)

#: multi-pair cells: helpers = cores_per_node - pairs, so the absorbed
#: crypto cost shrinks as pairs grow — the gap still narrows at 4
MULTIPAIR_PAIRS = (1, 2, 4)
MULTIPAIR_SIZE = 1024 * 1024
MULTIPAIR_WINDOW = 8
MULTIPAIR_ITERS = 1

SERIAL_PLAN = CryptoPlan(library=LIBRARY, mode="serial")
CRYPTMPI_PLAN = CryptoPlan(
    library=LIBRARY, mode="cryptmpi", chunk_bytes=CHUNK_BYTES,
    helper_cores=None,
)


def _pingpong_rows(table: Table) -> list[float]:
    speedups: list[float] = []
    for size in PINGPONG_SIZES:
        plain = pingpong_oneway_time(size, network=NETWORK)
        serial = pingpong_oneway_time(
            size, network=NETWORK, library=LIBRARY, crypto=SERIAL_PLAN
        )
        piped = pingpong_oneway_time(
            size, network=NETWORK, library=LIBRARY, crypto=CRYPTMPI_PLAN
        )
        speedup = serial / piped
        speedups.append(speedup)
        table.add_row(
            f"pingpong {format_bytes(size)} (us)",
            [plain * 1e6, serial * 1e6, piped * 1e6,
             (serial / plain - 1) * 100, (piped / plain - 1) * 100,
             speedup],
        )
    return speedups


def _multipair_rows(table: Table) -> list[tuple[float, float]]:
    from repro.workloads.multipair import multipair_aggregate_throughput

    def cell(pairs: int, library: str | None, plan: CryptoPlan | None) -> float:
        return multipair_aggregate_throughput(
            MULTIPAIR_SIZE, pairs, network=NETWORK, library=library,
            window=MULTIPAIR_WINDOW, iters=MULTIPAIR_ITERS, crypto=plan,
        )

    gaps: list[tuple[float, float]] = []
    for pairs in MULTIPAIR_PAIRS:
        plain = cell(pairs, None, None)
        serial = cell(pairs, LIBRARY, SERIAL_PLAN)
        piped = cell(pairs, LIBRARY, CRYPTMPI_PLAN)
        serial_gap = (1 - serial / plain) * 100
        piped_gap = (1 - piped / plain) * 100
        gaps.append((serial_gap, piped_gap))
        table.add_row(
            f"multipair {pairs}x{format_bytes(MULTIPAIR_SIZE)} (MB/s)",
            [plain / 1e6, serial / 1e6, piped / 1e6,
             serial_gap, piped_gap, piped / serial],
        )
    return gaps


def cryptmpi() -> Artifact:
    """Pipelined-vs-serial encryption sweep; the ``cryptmpi`` registry
    entry."""
    title = (
        "CryptMPI-style pipelined encryption vs serial "
        f"(AES-GCM-256 {LIBRARY}, {format_bytes(CHUNK_BYTES)} chunks, "
        f"{NETWORK}, 2 nodes x 8 cores)"
    )
    table = Table(
        title,
        ["plain", "serial", "cryptmpi", "serial ovh %",
         "cryptmpi ovh %", "speedup x"],
    )
    speedups = _pingpong_rows(table)
    gaps = _multipair_rows(table)

    # The headline shape claims of §V-C / CryptMPI, asserted so the
    # experiment fails loudly instead of silently publishing a regression.
    if any(b < a - 1e-9 for a, b in zip(speedups, speedups[1:])):
        raise AssertionError(
            f"pingpong speedup must grow with message size, got {speedups}"
        )
    if speedups[-1] <= 1.2:
        raise AssertionError(
            f"large-message pipelined speedup collapsed: {speedups[-1]:.2f}x"
        )
    for pairs, (serial_gap, piped_gap) in zip(MULTIPAIR_PAIRS, gaps):
        if piped_gap >= serial_gap:
            raise AssertionError(
                f"multipair gap must narrow under cryptmpi at {pairs} "
                f"pair(s): serial {serial_gap:.2f}% vs piped {piped_gap:.2f}%"
            )

    notes = [
        "pingpong rows: one-way time; ovh % vs plain; speedup x = "
        "serial time / cryptmpi time",
        "multipair rows: aggregate throughput; ovh % is the "
        "encrypted-vs-plain gap; speedup x = cryptmpi / serial rate",
        f"cryptmpi plan: {CRYPTMPI_PLAN.token()} — chunks seal on the "
        "node's idle helper cores and enter the wire as they finish",
        "the 64 KiB row is a single chunk, so pipelining cannot help "
        "(the ~1.0 speedup floor); gains grow once seal time overlaps "
        "the transfer of earlier chunks",
        "a slightly negative cryptmpi gap is possible: 64 KiB frames "
        "interleave on the max-min-fair NIC better than whole 1 MiB "
        "plain messages, which can outweigh the +28 B/chunk overhead",
        "paper has no pipelined numbers (§V-C motivates them; the "
        "authors' CryptMPI follow-up builds them) — extension",
    ]
    headlines = {
        "speedup_4MiB_x": (speedups[-1], None),
        "serial_gap_4pairs_pct": (gaps[-1][0], None),
        "cryptmpi_gap_4pairs_pct": (gaps[-1][1], None),
    }
    return Artifact("cryptmpi", title, table, notes, headlines)
