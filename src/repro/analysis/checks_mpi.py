"""MPI-protocol rules (MPI0xx).

These follow the MUST / MPI-Checker line of work: mismatched blocking
ordering, tag hygiene, and rank-dependent collective order are the
classic MPI usage errors, and all three have direct analogues in this
repository's simulated workloads.
"""

from __future__ import annotations

import ast

from repro.analysis.astutils import (
    BLOCKING_P2P,
    COLLECTIVES,
    P2P_CALLS,
    ModuleContext,
    call_name,
    int_literals_in,
    is_rank_conditional,
    tag_args,
)
from repro.analysis.findings import rule

_TERMINATORS = (ast.Return, ast.Raise, ast.Break, ast.Continue)


def _block_of(mod: ModuleContext, stmt: ast.stmt) -> list[ast.stmt]:
    """The statement list that contains *stmt* (empty if unknown)."""
    parent = mod._parents.get(stmt)
    if parent is None:
        return []
    for field in ("body", "orelse", "finalbody"):
        block = getattr(parent, field, None)
        if isinstance(block, list) and stmt in block:
            return block
    return []


def _effective_orelse(mod: ModuleContext, node: ast.If) -> list[ast.stmt]:
    """The else branch, or — for the early-return idiom ``if cond:
    ...; return`` — the statements that follow the if."""
    if node.orelse:
        return node.orelse
    if node.body and isinstance(node.body[-1], _TERMINATORS):
        block = _block_of(mod, node)
        if block:
            idx = block.index(node)
            return block[idx + 1:]
    return []


def _first_blocking_op(stmts: list[ast.stmt]) -> str | None:
    """First blocking p2p routine reached in *stmts*, scanning in source
    order; None when the first blocking point cannot be classified
    (e.g. a ``wait()`` on a previously posted request)."""

    def scan(node: ast.AST) -> str | None:
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in BLOCKING_P2P:
                return name
            if name in ("wait", "waitall"):
                return "unknown"
        for child in ast.iter_child_nodes(node):
            found = scan(child)
            if found is not None:
                return found
        return None

    for stmt in stmts:
        found = scan(stmt)
        if found is not None:
            return None if found == "unknown" else found
    return None


@rule(
    "MPI001",
    "head-to-head blocking order",
    severity="error",
    summary="both branches of a rank-dependent if reach the same "
            "blocking p2p routine first (recv/recv deadlocks always; "
            "send/send deadlocks once the payload is rendezvous-sized)",
    hint="stagger the order by rank parity (one side sends first, the "
         "other receives first) or use sendrecv, which is deadlock-free",
    grounding="MUST/MPI-Checker's P2P-matching checks; the simulator's "
              "rendezvous path (repro.simmpi.transport) blocks sends "
              "above the eager threshold exactly like a real fabric",
)
def check_head_to_head(mod: ModuleContext):
    for node in mod.walk_rank(ast.If):
        if not is_rank_conditional(node):
            continue
        orelse = _effective_orelse(mod, node)
        if not orelse:
            continue
        first_a = _first_blocking_op(node.body)
        first_b = _first_blocking_op(orelse)
        if first_a == first_b == "recv":
            yield (node, "both rank branches block in recv() first — "
                         "no rank can reach its send, so the exchange "
                         "deadlocks")
        elif first_a == first_b == "send":
            yield (node, "both rank branches block in send() first — "
                         "deadlocks once the message is above the eager "
                         "threshold (rendezvous needs the peer's recv)")


@rule(
    "MPI002",
    "magic tag literal",
    severity="warning",
    summary="a p2p call hardcodes a non-zero tag literal at the call "
            "site, hiding the module's tag space",
    hint="hoist the literal into a named module-level constant (e.g. "
         "TAG_HALO = 21) so the tag space is auditable in one place",
    grounding="MPI-Checker's tag-matching analysis needs visible tag "
              "spaces; repro.simmpi.message.MAX_USER_TAG bounds them",
)
def check_magic_tag(mod: ModuleContext):
    for node in mod.walk_rank(ast.Call):
        if call_name(node) not in P2P_CALLS:
            continue
        for tag_expr in tag_args(node):
            lit = next((c for c in int_literals_in(tag_expr)
                        if c.value != 0), None)
            if lit is not None:
                yield (node, f"hardcoded tag literal {lit.value} in "
                             f"{call_name(node)}()")
                break


@rule(
    "MPI003",
    "tag constant collision",
    severity="error",
    summary="two differently named tag constants in one module share a "
            "value, so logically distinct channels alias",
    hint="renumber one of the constants (remember that tags used as "
         "'BASE + offset' occupy a range, not a point)",
    grounding="message matching is (source, tag, comm): aliased tags "
              "cross-match (repro.simmpi.matching)",
)
def check_tag_collision(mod: ModuleContext):
    seen: dict[int, str] = {}
    for name, value in mod.module_consts.items():
        if "TAG" not in name.upper():
            continue
        if isinstance(value, ast.Constant) and type(value.value) is int:
            if value.value in seen:
                yield (value, f"tag constant {name} = {value.value} "
                              f"collides with {seen[value.value]}")
            else:
                seen[value.value] = name


@rule(
    "MPI004",
    "rank-dependent collective",
    severity="error",
    summary="a collective is called under a rank-dependent branch "
            "without a matching call on the other ranks — collective "
            "order must be identical on every rank",
    hint="call the collective unconditionally (root-only semantics are "
         "expressed through the root argument, not through branching)",
    grounding="MPI standard §5.1 (matched collective order); the "
              "simulator derives collective tags from a per-rank "
              "sequence that diverges on mismatch (repro.simmpi.comm)",
)
def check_rank_dependent_collective(mod: ModuleContext):
    def collective_names(stmts: list[ast.stmt]) -> dict[str, ast.Call]:
        found: dict[str, ast.Call] = {}
        for stmt in stmts:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and \
                        call_name(node) in COLLECTIVES:
                    found.setdefault(call_name(node), node)
        return found

    for node in mod.walk_rank(ast.If):
        if not is_rank_conditional(node):
            continue
        in_body = collective_names(node.body)
        in_else = collective_names(_effective_orelse(mod, node))
        for name in sorted(set(in_body) ^ set(in_else)):
            site = in_body.get(name) or in_else.get(name)
            yield (site, f"collective {name}() runs on only a subset of "
                         f"ranks (rank-dependent branch at line "
                         f"{node.lineno})")
