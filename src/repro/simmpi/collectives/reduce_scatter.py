"""MPI_Reduce_scatter_block and MPI_Scan.

``reduce_scatter`` uses recursive halving on power-of-two communicators
(the MPICH default for commutative ops) and falls back to
reduce-then-scatter otherwise.  ``scan`` is the Hillis–Steele inclusive
prefix over log2(p) rounds.
"""

from __future__ import annotations

from typing import Sequence

from repro.simmpi.collectives.common import is_power_of_two
from repro.simmpi.collectives.gather import scatter as _scatter
from repro.simmpi.collectives.reduce import ReduceOp, _apply, reduce as _reduce
from repro.simmpi.message import as_bytes


def reduce_scatter(handle, chunks: Sequence[bytes], op: ReduceOp):
    """Element-wise reduce chunk i over all ranks; rank i keeps chunk i.

    All ranks must pass ``p`` chunks; chunk i must have the same length
    on every rank (MPI_Reduce_scatter_block semantics).
    """
    p, rank = handle.size, handle.rank
    if len(chunks) != p:
        raise ValueError(f"reduce_scatter needs exactly {p} chunks, got {len(chunks)}")
    data = {i: as_bytes(c) for i, c in enumerate(chunks)}
    if p == 1:
        return data[0]
    tag = handle._next_coll_tag()
    if not is_power_of_two(p):
        # Fallback: tree-reduce the concatenation, then scatter.
        lengths = [len(data[i]) for i in range(p)]
        total = yield from _reduce_concat(handle, data, lengths, op, tag)
        if rank == 0:
            assert total is not None
            out_chunks: list[bytes] = []
            offset = 0
            for n in lengths:
                out_chunks.append(total[offset : offset + n])
                offset += n
        else:
            out_chunks = None  # type: ignore[assignment]
        return (yield from _scatter(handle, out_chunks, root=0))

    lo, hi = 0, p
    mask = p >> 1
    while mask:
        mid = (lo + hi) // 2
        partner = rank ^ mask
        if rank & mask:
            send_lo, send_hi = lo, mid
            keep_lo, keep_hi = mid, hi
        else:
            send_lo, send_hi = mid, hi
            keep_lo, keep_hi = lo, mid
        payload = b"".join(
            len(data[i]).to_bytes(4, "big") + data[i]
            for i in range(send_lo, send_hi)
        )
        wire = sum(len(data[i]) for i in range(send_lo, send_hi))
        rreq = handle.irecv(partner, tag, _internal=True)
        sreq = yield from handle.co_isend(payload, partner, tag, wire_bytes=wire,
                                          payload_bytes=wire, _internal=True)
        yield from sreq.co_wait()
        received = yield from rreq.co_wait()
        offset = 0
        for i in range(keep_lo, keep_hi):
            n = int.from_bytes(received[offset : offset + 4], "big")
            offset += 4
            data[i] = _apply(op, data[i], received[offset : offset + n])
            offset += n
        for i in range(send_lo, send_hi):
            del data[i]
        lo, hi = keep_lo, keep_hi
        mask >>= 1
    assert list(data) == [rank]
    return data[rank]


def _reduce_concat(handle, data, lengths, op: ReduceOp, tag: int):
    """Reduce the concatenation of all chunks to rank 0 (helper for the
    non-power-of-two fallback); returns the result on rank 0."""
    blob = b"".join(data[i] for i in range(handle.size))

    def concat_op(a: bytes, b: bytes) -> bytes:
        out = []
        offset = 0
        for n in lengths:
            out.append(op(a[offset : offset + n], b[offset : offset + n]))
            offset += n
        return b"".join(out)

    return (yield from _reduce(handle, blob, concat_op, root=0))


def scan(handle, data: bytes, op: ReduceOp):
    """Inclusive prefix reduction: rank r gets op over ranks 0..r."""
    p, rank = handle.size, handle.rank
    data = as_bytes(data)
    if p == 1:
        return data
    tag = handle._next_coll_tag()
    result = data  # prefix over [0, rank]
    carry = data  # combined value over the window ending at rank
    distance = 1
    while distance < p:
        sreq = None
        if rank + distance < p:
            sreq = yield from handle.co_isend(carry, rank + distance, tag,
                                              _internal=True)
        if rank - distance >= 0:
            received = yield from handle.irecv(rank - distance, tag,
                                               _internal=True).co_wait()
            result = _apply(op, received, result)
            carry = _apply(op, received, carry)
        if sreq is not None:
            yield from sreq.co_wait()
        distance <<= 1
    return result
