"""MPI_Gather / MPI_Scatter via binomial trees (the MPICH default)."""

from __future__ import annotations

from typing import Sequence

from repro.simmpi.message import as_bytes
from repro.simmpi.collectives.common import (
    binomial_children,
    binomial_parent,
    rank_of,
    subtree_span,
    vrank_of,
)

# Length-prefixed packing lets gathered chunks have unequal sizes
# (gatherv semantics for free); the 4-byte headers are excluded from
# wire accounting via wire_bytes.


def _pack(chunks_by_idx: dict[int, bytes], lo: int, hi: int) -> bytes:
    parts = []
    for i in range(lo, hi):
        c = chunks_by_idx[i]
        parts.append(len(c).to_bytes(4, "big"))
        parts.append(c)
    return b"".join(parts)


def _unpack(payload: bytes, lo: int, hi: int) -> dict[int, bytes]:
    out = {}
    offset = 0
    for i in range(lo, hi):
        n = int.from_bytes(payload[offset : offset + 4], "big")
        offset += 4
        out[i] = payload[offset : offset + n]
        offset += n
    if offset != len(payload):
        raise AssertionError("gather payload length mismatch")
    return out


def gather(handle, data: bytes, root: int = 0):
    """Gather one chunk per rank to the root (binomial tree, leaves up)."""
    size = handle.size
    handle._check_peer(root)
    tag = handle._next_coll_tag()
    v = vrank_of(handle.rank, root, size)
    lo, hi = subtree_span(v, size)
    owned: dict[int, bytes] = {v: as_bytes(data)}
    # Children report in reverse of scatter order (smallest subtree first
    # arrives first in MPICH; order does not change the result).
    for child in reversed(binomial_children(v, size)):
        clo, chi = subtree_span(child, size)
        payload = yield from handle.irecv(
            rank_of(child, root, size), tag, _internal=True
        ).co_wait()
        owned.update(_unpack(payload, clo, chi))
    if v == 0:
        return [owned[vrank_of(r, root, size)] for r in range(size)]
    packed = _pack(owned, lo, hi)
    data_bytes = sum(len(owned[i]) for i in range(lo, hi))
    yield from handle.co_send(
        packed,
        rank_of(binomial_parent(v), root, size),
        tag,
        wire_bytes=data_bytes,
        payload_bytes=data_bytes,
        _internal=True,
    )
    return None


def scatter(handle, chunks: Sequence[bytes] | None, root: int = 0):
    """Scatter one chunk to each rank from the root (binomial tree)."""
    size = handle.size
    handle._check_peer(root)
    tag = handle._next_coll_tag()
    v = vrank_of(handle.rank, root, size)
    if v == 0:
        if chunks is None or len(chunks) != size:
            raise ValueError(f"root must provide exactly {size} chunks")
        owned = {i: as_bytes(chunks[i]) for i in range(size)}
    else:
        parent = rank_of(binomial_parent(v), root, size)
        payload = yield from handle.irecv(parent, tag,
                                          _internal=True).co_wait()
        lo, hi = subtree_span(v, size)
        owned = _unpack(payload, lo, hi)
    for child in binomial_children(v, size):
        clo, chi = subtree_span(child, size)
        packed = _pack(owned, clo, chi)
        data_bytes = sum(len(owned[i]) for i in range(clo, chi))
        yield from handle.co_send(
            packed,
            rank_of(child, root, size),
            tag,
            wire_bytes=data_bytes,
            payload_bytes=data_bytes,
            _internal=True,
        )
    return owned[v]
