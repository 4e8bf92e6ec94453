"""AST plumbing shared by the linter's checkers.

The central object is :class:`ModuleContext`: one parsed module plus
the derived views every rule needs — which functions are *rank
programs* (code that runs inside a simulated rank), module- and
function-level constants, and call-shape helpers for the MPI-like
communication surface.

"Rank program" detection is conventional, matching how this repository
writes workloads: a function whose parameter list contains ``ctx`` or
``comm`` (or a parameter annotated with one of the simulator's context
types), plus everything lexically nested inside such a function.
"""

from __future__ import annotations

import ast
from typing import Iterator

FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

#: annotations that mark a parameter as a simulated-rank context
CTX_ANNOTATIONS = ("RankContext", "CommHandle", "EncryptedComm")
#: parameter names that mark a function as rank code by convention
_CTX_PARAM_NAMES = ("ctx", "comm")

#: blocking point-to-point calls (attribute or bare name)
BLOCKING_P2P = ("send", "recv", "sendrecv")
#: non-blocking point-to-point calls
NONBLOCKING_P2P = ("isend", "irecv")
P2P_CALLS = BLOCKING_P2P + NONBLOCKING_P2P

#: the collective surface of CommHandle / EncryptedComm
COLLECTIVES = (
    "barrier", "bcast", "gather", "scatter", "allgather", "alltoall",
    "alltoallv", "reduce", "allreduce", "reduce_scatter", "scan",
)

#: positional index of the tag argument per p2p routine
_TAG_POSITIONS = {
    "send": 2, "isend": 2,
    "recv": 1, "irecv": 1,
    # sendrecv(senddata, dest, recvsource, sendtag, recvtag)
    "sendrecv": 3,
}


def call_name(call: ast.Call) -> str | None:
    """The trailing name of a call: ``a.b.send(...)`` and ``send(...)``
    both give ``"send"``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def keyword_arg(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def tag_args(call: ast.Call) -> list[ast.expr]:
    """The tag-valued argument expressions of a p2p call, if any."""
    name = call_name(call)
    out = []
    for kw_name in ("tag", "sendtag", "recvtag"):
        value = keyword_arg(call, kw_name)
        if value is not None:
            out.append(value)
    if not out and name in _TAG_POSITIONS:
        pos = _TAG_POSITIONS[name]
        if name == "sendrecv":
            for p in (3, 4):
                if len(call.args) > p:
                    out.append(call.args[p])
        elif len(call.args) > pos:
            out.append(call.args[pos])
    return out


def int_literals_in(node: ast.expr) -> Iterator[ast.Constant]:
    """Int constants appearing anywhere inside *node*."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and type(sub.value) is int:
            yield sub


def _mentions_rank(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and "rank" in sub.attr.lower():
            return True
        if isinstance(sub, ast.Name) and "rank" in sub.id.lower():
            return True
    return False


def is_rank_conditional(node: ast.If) -> bool:
    """Does this if-statement branch on the calling rank?"""
    return _mentions_rank(node.test)


class ModuleContext:
    """One module's tree plus the views the checkers share."""

    def __init__(self, path: str, source: str, *,
                 force_rank_scope: bool = False):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent
        self.module_consts = self._collect_module_consts()
        self.rank_roots = self._find_rank_roots(force_rank_scope)

    # -- scopes ------------------------------------------------------------

    def _is_rank_function(self, fn) -> bool:
        args = fn.args
        params = list(args.posonlyargs) + list(args.args) + \
            list(args.kwonlyargs)
        for p in params:
            if p.arg in _CTX_PARAM_NAMES:
                return True
            ann = getattr(p, "annotation", None)
            if ann is not None:
                text = ast.dump(ann)
                if any(marker in text for marker in CTX_ANNOTATIONS):
                    return True
        return False

    def _find_rank_roots(self, force: bool) -> list[ast.AST]:
        if force:
            roots = [n for n in self.tree.body
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
            return roots or [self.tree]
        roots: list[ast.AST] = []
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and self._is_rank_function(node):
                if not any(self._contains(r, node) for r in roots):
                    roots.append(node)
        return roots

    def _contains(self, outer: ast.AST, inner: ast.AST) -> bool:
        node = inner
        while node is not None:
            if node is outer:
                return True
            node = self._parents.get(node)
        return False

    def walk_rank(self, *types) -> Iterator[ast.AST]:
        """Walk every node inside a rank-program scope (deduplicated)."""
        seen: set[int] = set()
        for root in self.rank_roots:
            for node in ast.walk(root):
                if id(node) in seen:
                    continue
                seen.add(id(node))
                if not types or isinstance(node, types):
                    yield node

    def enclosing_functions(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            if isinstance(current, FunctionNode):
                yield current
            current = self._parents.get(current)

    # -- constants ---------------------------------------------------------

    def _collect_module_consts(self) -> dict[str, ast.expr]:
        consts: dict[str, ast.expr] = {}
        for node in self.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                consts[node.targets[0].id] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None \
                    and isinstance(node.target, ast.Name):
                consts[node.target.id] = node.value
        return consts

    def local_consts(self, scope: ast.AST) -> dict[str, ast.expr]:
        """Names assigned exactly once in *scope*, mapped to their value
        expression (reassigned names are dropped — not constant)."""
        counts: dict[str, int] = {}
        values: dict[str, ast.expr] = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        counts[target.id] = counts.get(target.id, 0) + 1
                        values[target.id] = node.value
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                target = node.target
                if isinstance(target, ast.Name):
                    counts[target.id] = counts.get(target.id, 0) + 2
            elif isinstance(node, (ast.For, ast.comprehension)):
                target = node.target
                if isinstance(target, ast.Name):
                    counts[target.id] = counts.get(target.id, 0) + 2
        return {name: values[name] for name, n in counts.items()
                if n == 1 and name in values}

    # -- constant-bytes evaluation ----------------------------------------

    def const_bytes_len(self, node: ast.expr,
                        local: dict[str, ast.expr] | None = None,
                        _depth: int = 0) -> int | None:
        """Length of *node* if it is a compile-time-constant bytes
        expression (``b"..."``, ``bytes(12)``, ``bytes(range(32))``,
        ``b"x" * 16``, ``bytes.fromhex("...")``, or a name bound once to
        one of those); None if it is not provably constant."""
        if _depth > 6:
            return None
        local = local or {}
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (bytes, bytearray)):
                return len(node.value)
            return None
        if isinstance(node, ast.Name):
            bound = local.get(node.id, self.module_consts.get(node.id))
            if bound is not None and bound is not node:
                return self.const_bytes_len(bound, local, _depth + 1)
            return None
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in ("bytes", "bytearray") \
                    and len(node.args) == 1:
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and type(arg.value) is int:
                    return arg.value
                if isinstance(arg, ast.Call) and \
                        isinstance(arg.func, ast.Name) and \
                        arg.func.id == "range" and len(arg.args) == 1 and \
                        isinstance(arg.args[0], ast.Constant) and \
                        type(arg.args[0].value) is int:
                    return arg.args[0].value
                inner = self.const_bytes_len(arg, local, _depth + 1)
                return inner
            if isinstance(fn, ast.Attribute) and fn.attr == "fromhex" and \
                    len(node.args) == 1 and \
                    isinstance(node.args[0], ast.Constant) and \
                    isinstance(node.args[0].value, str):
                return len(node.args[0].value.replace(" ", "")) // 2
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            for side, other in ((node.left, node.right),
                                (node.right, node.left)):
                length = self.const_bytes_len(side, local, _depth + 1)
                if length is not None and isinstance(other, ast.Constant) \
                        and type(other.value) is int:
                    return length * other.value
            return None
        return None
