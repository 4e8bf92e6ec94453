"""MPI_Reduce (binomial tree) and MPI_Allreduce (recursive doubling).

Reduction operators combine two equal-length byte-strings; numeric
helpers for NumPy arrays live in the workloads layer.  Allreduce uses
the fold-in/fold-out trick for non-power-of-two communicators.
"""

from __future__ import annotations

from typing import Callable

from repro.simmpi.message import as_bytes
from repro.simmpi.collectives.common import (
    binomial_children,
    binomial_parent,
    rank_of,
    vrank_of,
)

ReduceOp = Callable[[bytes, bytes], bytes]


def reduce(handle, data: bytes, op: ReduceOp, root: int = 0):
    """Binomial-tree reduction to *root*; returns the result there."""
    size = handle.size
    handle._check_peer(root)
    data = as_bytes(data)
    tag = handle._next_coll_tag()
    if size == 1:
        return data
    v = vrank_of(handle.rank, root, size)
    acc = data
    # Combine children (deepest subtrees last, matching their arrival).
    for child in reversed(binomial_children(v, size)):
        payload = yield from handle.irecv(
            rank_of(child, root, size), tag, _internal=True).co_wait()
        acc = _apply(op, acc, payload)
    if v == 0:
        return acc
    yield from handle.co_send(acc, rank_of(binomial_parent(v), root, size), tag,
                              _internal=True)
    return None


def allreduce(handle, data: bytes, op: ReduceOp):
    """Recursive-doubling allreduce (with non-power-of-two fold-in)."""
    size, rank = handle.size, handle.rank
    data = as_bytes(data)
    tag = handle._next_coll_tag()
    if size == 1:
        return data

    pow2 = 1
    while pow2 * 2 <= size:
        pow2 *= 2
    extra = size - pow2

    acc: bytes | None = data
    # Fold-in: the top `extra` ranks ship their value to a partner in
    # the power-of-two block and sit out the exchange.
    if rank >= pow2:
        yield from handle.co_send(acc, rank - pow2, tag, _internal=True)
        acc = None
    elif rank < extra:
        payload = yield from handle.irecv(rank + pow2, tag,
                                          _internal=True).co_wait()
        acc = _apply(op, acc, payload)

    if acc is not None:
        mask = 1
        while mask < pow2:
            partner = rank ^ mask
            received, _status = yield from handle.co_sendrecv(
                acc, partner, partner, tag, tag, _internal=True
            )
            acc = _apply(op, acc, received)
            mask <<= 1

    # Fold-out: send the final value back to the folded ranks.
    if rank < extra:
        yield from handle.co_send(acc, rank + pow2, tag, _internal=True)
    elif rank >= pow2:
        acc = yield from handle.irecv(rank - pow2, tag,
                                      _internal=True).co_wait()
    assert acc is not None
    return acc


def _apply(op: ReduceOp, a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError(
            f"reduce payloads must have equal length, got {len(a)} vs {len(b)}"
        )
    out = op(a, b)
    if not isinstance(out, (bytes, bytearray)):
        raise TypeError("reduce op must return bytes")
    if len(out) != len(a):
        raise ValueError("reduce op must preserve length")
    return bytes(out)
