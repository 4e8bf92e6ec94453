"""Flow-sensitive static verifier for rank programs.

A small abstract interpreter executes every rank program once per
abstract rank at a handful of world sizes (default 2 and 4), recording
the communication operations each rank issues as
:class:`~repro.analysis.commgraph.CommOp` records and threading
:mod:`~repro.analysis.taint` labels through every computed value.  The
instantiated graphs then go through :func:`commgraph.check_graph`
(match completeness, collective consistency, static deadlock cycles —
the MPI1xx rules) and the taint event logs through the CRY1xx checks.

The interpretation is *concrete per rank* — ``ctx.rank`` is the actual
integer for the rank being simulated — which keeps branch conditions
like ``if ctx.rank == 0`` exact.  Symbolic peer/tag expressions over
``rank``/``n`` are recovered afterwards by template fitting
(:func:`commgraph.fit_symbolic`) purely for reporting.

Soundness posture (documented in ANALYSIS.md):

- anything the interpreter cannot resolve degrades the graph to
  ``incomplete`` — tag/taint checks still run, but match-completeness
  and deadlock-freedom are never claimed for partial op lists, so
  opaque code produces silence, not false positives;
- data-dependent branches (condition statically unknown) fork the
  analysis into per-decision configurations, capped; forked
  configurations are likewise treated as incomplete for matching;
- a rank raising (or failing an assert, or computing a peer outside
  ``[0, n)``) marks that world size *inapplicable* and it is skipped —
  programs only meant for one topology verify at the sizes they admit;
- sends complete eagerly (the matching engine's documented
  simplification): rendezvous head-to-head deadlocks stay MPI001's
  syntactic job.
"""

from __future__ import annotations

import ast
import inspect
import math as _math
import os
import re
import textwrap
from dataclasses import dataclass, field

from repro.analysis.astutils import CTX_ANNOTATIONS, ModuleContext
from repro.analysis.commgraph import (
    COLLECTIVE_KINDS,
    CommOp,
    GraphIssue,
    InstGraph,
    RankOps,
    Site,
    check_graph,
    fit_symbolic,
)
from repro.analysis.findings import Finding, declare_rule, get_rule
from repro.analysis.linter import _parse_suppressions, _suppressed
from repro.analysis import taint
from repro.simmpi.message import ANY_SOURCE, ANY_TAG

#: world sizes each program is instantiated at by default
DEFAULT_SIZES = (2, 4)

#: ``# verify-sizes: 2`` pins the world sizes a module's programs are
#: verified at (for fixed-topology programs: a 2-rank pingpong replayed
#: at n=4 would report ranks 2..3 stuck — true of the code, irrelevant
#: to how it is ever launched)
_SIZES_RE = re.compile(r"#\s*verify-sizes?\s*:\s*([0-9,\s]+)")


def _declared_sizes(lines) -> tuple[int, ...] | None:
    for line in lines:
        if "verify-size" not in line:
            continue
        match = _SIZES_RE.search(line)
        if match is not None:
            sizes = tuple(int(part) for part in
                          match.group(1).replace(",", " ").split())
            if sizes:
                return sizes
    return None

#: budgets: everything the interpreter does is bounded
MAX_OPS_PER_RANK = 4000
MAX_STEPS = 200_000
MAX_FOR_ITER = 200
MAX_WHILE_ITER = 300
MAX_CALL_DEPTH = 16
MAX_DECISIONS = 3
MAX_CONFIGS = 8

# ---------------------------------------------------------------------------
# rule declarations (MPI1xx — the graph checks live in commgraph)
# ---------------------------------------------------------------------------

declare_rule(
    "MPI101",
    "send never received",
    severity="error",
    summary="replaying the extracted comm graph left a send in flight "
            "that no receive on the destination rank ever matches",
    hint="check the peer/tag arithmetic on both sides; the finding "
         "names the symbolic peer expression when one could be fitted",
    grounding="MPI-Checker's match analysis, run over the interpreted "
              "graph instead of call-site syntax",
)

declare_rule(
    "MPI102",
    "receive never completes",
    severity="error",
    summary="a posted receive (recv, irecv, or the receive half of a "
            "sendrecv) is never matched by any send in the graph",
    hint="the sending rank either never executes the matching send or "
         "sends with a different tag/destination",
    grounding="unmatched receives block forever at runtime or leak "
              "requests (the sanitizer's finalize check, statically)",
)

declare_rule(
    "MPI103",
    "collective order diverges",
    severity="error",
    summary="ranks disagree on the sequence (or signature) of "
            "collective calls — one branch reorders, adds, or drops a "
            "collective",
    hint="every rank must call the same collectives in the same order "
         "with the same root; hoist collectives out of rank-dependent "
         "branches",
    grounding="MPI semantics: collectives are matched by call order "
              "per communicator, not by tag",
)

declare_rule(
    "MPI104",
    "static wait-for cycle",
    severity="error",
    summary="blocking operations form a dependency cycle across ranks "
            "— the static sibling of the runtime sanitizer's "
            "DeadlockDiagnosis wait-for graph",
    hint="break the cycle by reordering one rank's operations "
         "(odd/even phasing) or using nonblocking receives",
    grounding="the sanitizer diagnoses this at runtime after the "
              "deadlock; the verifier proves it before any run",
)

declare_rule(
    "MPI105",
    "wire-protocol / tag-range violation",
    severity="error",
    summary="a user tag falls into the reserved collective/chunk "
            "protocol range, or a chunked-protocol send is matched by "
            "a receive expecting different framing",
    hint="keep user tags below MAX_USER_TAG and use the same channel "
         "object (plain comm / EncryptedComm / pipelined) on both "
         "ends of a route",
    grounding="the chunked CryptoPlan wire protocol multiplexes on "
              "reserved tags; crossing the streams corrupts framing",
)


# ---------------------------------------------------------------------------
# control-flow signals
# ---------------------------------------------------------------------------


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Inapplicable(Exception):
    """This (world size, config) cannot run the program at all."""

    def __init__(self, reason: str):
        self.reason = reason


class _NeedDecision(Exception):
    """An Unknown branch condition wants a per-config decision."""

    def __init__(self, key: tuple):
        self.key = key


class _Budget(Exception):
    """An interpretation budget ran out; the op list is partial."""

    def __init__(self, reason: str):
        self.reason = reason


# ---------------------------------------------------------------------------
# the value model
# ---------------------------------------------------------------------------


class Unknown:
    """A statically unknown value (with taints and an optional origin)."""

    __slots__ = ("reason", "taints", "origin")

    def __init__(self, reason: str = "", taints: frozenset = frozenset(),
                 origin=None):
        self.reason = reason
        self.taints = frozenset(taints)
        self.origin = origin

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Unknown({self.reason!r})"


class NonceVal(Unknown):
    """A nonce draw with a hashable identity for collision detection."""

    __slots__ = ("nonce_id",)

    def __init__(self, nonce_id):
        super().__init__("nonce")
        self.nonce_id = nonce_id


class Opaque:
    """An object the interpreter does not model; attribute access and
    calls degrade to :class:`Unknown` (calls that receive a comm model
    mark the graph incomplete — ops may be hiding inside)."""

    __slots__ = ("label",)

    def __init__(self, label: str = "?"):
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Opaque({self.label})"


@dataclass
class Func:
    """A user function: AST + defining environment."""

    node: object
    env: "Env"
    path: str
    is_gen: bool = False
    bound_self: object = None


class GenResult:
    """Result wrapper for generator-call values (`yield from` unwraps)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class ModuleRef:
    """A reference to a module by dotted name; ``repro.*`` and ``math``
    resolve for real (via the loader / the actual module), everything
    else is opaque."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class BoundModel:
    """A method bound on a model object, dispatched by name."""

    __slots__ = ("obj", "name")

    def __init__(self, obj, name: str):
        self.obj = obj
        self.name = name


# -- communication models ---------------------------------------------------


class CommModel:
    """CommHandle-shaped facade; ``channel`` distinguishes the wire
    framing (plain / aead / chunked) for MPI105."""

    def __init__(self, rank: int, size: int, channel: str = "plain",
                 key_id=None):
        self.rank = rank
        self.size = size
        self.channel = channel
        self.key_id = key_id


class CtxModel:
    """RankContext: .rank/.size/.comm/.enc and the timing helpers."""

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        self.comm = CommModel(rank, size)
        # modeled as always configured: statically we verify the
        # encrypted path too (at runtime .enc is None on plain jobs)
        self.enc = CommModel(rank, size, channel="aead",
                             key_id=("job-key",))


class ReqModel:
    """A pending request handle; ``wait`` emits the wait op."""

    def __init__(self, req: int, comm: CommModel, is_recv: bool):
        self.req = req
        self.comm = comm
        self.is_recv = is_recv


class NonceSrcModel:
    def __init__(self, strategy: str, prefix):
        self.strategy = strategy  # "counter" | "random"
        self.prefix = prefix
        self.index = 0

    def draw(self) -> NonceVal:
        if self.strategy != "counter":
            return NonceVal(None)
        if isinstance(self.prefix, int):
            nid = ("ctr", self.prefix, self.index)
        else:
            nid = None  # unknown prefix: no collision claims
        self.index += 1
        return NonceVal(nid)


class AEADModel:
    def __init__(self, key_id):
        self.key_id = key_id


class SecurityCfgModel:
    def __init__(self, kwargs: dict):
        self.kwargs = kwargs


class RecorderModel:
    pass


#: class names that construct model objects when called
_MODEL_CLASSES = frozenset((
    "EncryptedComm", "SecurityConfig", "CounterNonces",
    "RandomNonces", "ChunkPipeline", "TraceRecorder",
))

#: crypto-factory functions modeled instead of interpreted
_MODEL_FUNCS = frozenset(("get_aead", "make_nonce_source"))

_P2P_EMITTING = frozenset((
    "send", "co_send", "isend", "co_isend", "recv", "co_recv", "irecv",
    "sendrecv", "co_sendrecv",
))

#: CommHandle/EncryptedComm method name -> collective kind
_COLLECTIVE_METHODS = {}
for _k in COLLECTIVE_KINDS:
    _COLLECTIVE_METHODS[_k] = _k
    _COLLECTIVE_METHODS["co_" + _k] = _k

_SAFE_BUILTINS = {
    name: fn for name, fn in (
        ("len", len), ("range", range), ("min", min), ("max", max),
        ("abs", abs), ("sum", sum), ("int", int), ("float", float),
        ("bool", bool), ("str", str), ("bytes", bytes),
        ("bytearray", bytearray), ("list", list), ("tuple", tuple),
        ("dict", dict), ("set", set), ("frozenset", frozenset),
        ("sorted", sorted), ("reversed", reversed),
        ("enumerate", enumerate), ("zip", zip), ("divmod", divmod),
        ("round", round), ("repr", repr), ("ord", ord), ("chr", chr),
        ("any", any), ("all", all), ("pow", pow), ("hash", hash),
    )
}

#: parameter-name heuristics for unbound factory/program parameters
_PARAM_DEFAULTS = (
    (("iterations", "iters", "niters", "steps", "nsteps", "reps",
      "repeats", "rounds", "count", "phases"), 2),
    (("size", "nbytes", "msg_size", "message_size", "length",
      "payload_size", "block", "chunk", "chunk_bytes"), 1024),
    (("tag",), 5),
    (("root",), 0),
)


def _param_heuristic(name: str):
    lowered = name.lstrip("_").lower()
    for names, value in _PARAM_DEFAULTS:
        for cand in names:
            if lowered == cand or lowered.endswith("_" + cand):
                return value
    return Unknown(f"param {name}")


# ---------------------------------------------------------------------------
# environments and the module loader
# ---------------------------------------------------------------------------


class Env:
    """A lexical scope: locals dict chained to the defining scope, with
    a module environment at the bottom."""

    __slots__ = ("values", "parent", "module")

    def __init__(self, values=None, parent: "Env | None" = None,
                 module: "ModEnv | None" = None):
        self.values = values if values is not None else {}
        self.parent = parent
        self.module = module if module is not None else (
            parent.module if parent is not None else None)

    def lookup(self, name: str):
        env = self
        while env is not None:
            if name in env.values:
                return env.values[name]
            env = env.parent
        if self.module is not None:
            found = self.module.resolve(name)
            if found is not _MISSING:
                return found
        if name in _SAFE_BUILTINS:
            return _SAFE_BUILTINS[name]
        if name == "print":
            return BoundModel(_PRINT_SINK, "print")
        return _MISSING

    def bind(self, name: str, value) -> None:
        self.values[name] = value


_MISSING = object()
_PRINT_SINK = object()  # sentinel: the print builtin as a sink


class ModEnv:
    """Lazy module environment over one parsed source file."""

    def __init__(self, loader: "Loader", path: str, tree: ast.Module):
        self.loader = loader
        self.path = path
        self.tree = tree
        self._cache: dict[str, object] = {}
        self._defs: dict[str, ast.stmt] = {}
        self._imports: dict[str, tuple[str, str | None]] = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self._defs[stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        self._defs[t.id] = stmt
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    self._imports[bound] = (alias.name, None)
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.module is None or stmt.level:
                    continue
                for alias in stmt.names:
                    bound = alias.asname or alias.name
                    self._imports[bound] = (stmt.module, alias.name)

    def resolve(self, name: str):
        if name in self._cache:
            return self._cache[name]
        self._cache[name] = Unknown(f"recursive {name}")  # cycle guard
        value = self._resolve(name)
        self._cache[name] = value
        return value

    def _resolve(self, name: str):
        stmt = self._defs.get(name)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if stmt.name in _MODEL_FUNCS:
                return BoundModel(None, "model:" + stmt.name)
            return Func(stmt, Env(module=self), self.path,
                        is_gen=_is_generator(stmt))
        if isinstance(stmt, ast.ClassDef):
            if stmt.name in _MODEL_CLASSES:
                return BoundModel(None, "model:" + stmt.name)
            return Opaque("class " + stmt.name)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value_expr = stmt.value
            if value_expr is None:
                return Unknown(name)
            interp = Interp(self.loader, self.path, rank=0, nranks=1,
                            decisions={}, emitting=False)
            try:
                return interp.eval(value_expr, Env(module=self))
            except Exception:
                return Unknown(f"module const {name}")
        if name in self._imports:
            module, attr = self._imports[name]
            return self.loader.import_name(module, attr)
        return _MISSING


def _is_generator(fn) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)) and node is not fn:
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if _owner_function(fn, node) is fn:
                return True
    return False


def _owner_function(root, node):
    """The innermost function of *root*'s tree containing *node*."""
    owner = root
    stack = [(root, root)]
    while stack:
        current, fn = stack.pop()
        for child in ast.iter_child_nodes(current):
            child_fn = child if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ) else fn
            if child is node:
                return fn
            stack.append((child, child_fn))
    return owner


class Loader:
    """Maps ``repro.x.y`` dotted names to parsed source under src/."""

    def __init__(self):
        import repro

        self.root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        self._mods: dict[str, ModEnv | None] = {}

    def module_env(self, dotted: str) -> ModEnv | None:
        if dotted in self._mods:
            return self._mods[dotted]
        env = None
        if dotted == "repro" or dotted.startswith("repro."):
            rel = dotted.replace(".", os.sep)
            for cand in (os.path.join(self.root, rel + ".py"),
                         os.path.join(self.root, rel, "__init__.py")):
                if os.path.isfile(cand):
                    try:
                        with open(cand, encoding="utf-8") as fh:
                            tree = ast.parse(fh.read(), filename=cand)
                        env = ModEnv(self, cand, tree)
                    except (OSError, SyntaxError):
                        env = None
                    break
        self._mods[dotted] = env
        return env

    def env_for_source(self, path: str, tree: ast.Module) -> ModEnv:
        return ModEnv(self, path, tree)

    def import_name(self, module: str, attr: str | None):
        """``import module`` (attr None) or ``from module import attr``."""
        if module == "math":
            if attr is None:
                return ModuleRef("math")
            return getattr(_math, attr, Unknown(f"math.{attr}"))
        if module == "repro" or module.startswith("repro."):
            if attr is None:
                return ModuleRef(module)
            # the attr may itself be a submodule
            sub = self.module_env(f"{module}.{attr}")
            if sub is not None:
                return ModuleRef(f"{module}.{attr}")
            env = self.module_env(module)
            if env is not None:
                found = env.resolve(attr)
                if found is not _MISSING:
                    return found
            return Unknown(f"{module}.{attr}")
        if attr is None:
            return ModuleRef(module)
        return Opaque(f"{module}.{attr}")


# ---------------------------------------------------------------------------
# the interpreter
# ---------------------------------------------------------------------------


class Interp:
    """One abstract rank's execution: emits CommOps and taint events."""

    def __init__(self, loader: Loader, path: str, *, rank: int,
                 nranks: int, decisions: dict, emitting: bool = True,
                 shared=None):
        self.loader = loader
        self.path = path
        self.rank = rank
        self.nranks = nranks
        self.decisions = decisions
        self.emitting = emitting
        self.ops: list[CommOp] = []
        self.notes: list[str] = []
        self.incomplete = False
        self.sinks: list[taint.SinkEvent] = []
        self.wires: list[taint.WireEvent] = []
        self.seals: list[taint.SealEvent] = []
        self.steps = 0
        self.depth = 0
        self.seq = 0
        # request-id allocation shared across ranks would collide;
        # ids only need uniqueness within a rank
        self._next_req = 0
        self.shared = shared if shared is not None else {}

    # -- bookkeeping ----------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > MAX_STEPS:
            raise _Budget("step budget exceeded")

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def degrade(self, text: str) -> None:
        self.incomplete = True
        self.note(text)

    def site(self, node) -> Site:
        return Site(self.path, getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0))

    def emit(self, op: CommOp) -> None:
        if not self.emitting:
            return
        self.ops.append(op)
        if len(self.ops) > MAX_OPS_PER_RANK:
            raise _Budget("op budget exceeded")

    def new_req(self) -> int:
        self._next_req += 1
        return self._next_req

    # -- statements -----------------------------------------------------

    def exec_block(self, stmts, env: Env) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt, env: Env) -> None:
        self._tick()
        kind = type(stmt).__name__
        method = getattr(self, "stmt_" + kind, None)
        if method is not None:
            method(stmt, env)
        # unknown statement kinds (Global, Nonlocal, Delete...) are
        # no-ops for this analysis

    def stmt_Expr(self, stmt, env):
        self.eval(stmt.value, env)

    def stmt_Assign(self, stmt, env):
        value = self.eval(stmt.value, env)
        for target in stmt.targets:
            self.assign(target, value, env)

    def stmt_AnnAssign(self, stmt, env):
        if stmt.value is not None:
            self.assign(stmt.target, self.eval(stmt.value, env), env)

    def stmt_AugAssign(self, stmt, env):
        current = self.eval(stmt.target, env)
        operand = self.eval(stmt.value, env)
        value = self._binop(type(stmt.op).__name__, current, operand)
        self.assign(stmt.target, value, env)

    def assign(self, target, value, env: Env) -> None:
        if isinstance(target, ast.Name):
            labels = taint.name_taints(target.id)
            if labels and _taintable(value):
                value = taint.with_taints(value, labels)
            env.bind(target.id, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            concrete = taint.strip(value)
            if isinstance(concrete, (tuple, list)) and \
                    len(concrete) == len(elts) and not any(
                        isinstance(e, ast.Starred) for e in elts):
                for elt, item in zip(elts, concrete):
                    self.assign(elt, taint.with_taints(
                        item, taint.taints_of(value)), env)
            else:
                for elt in elts:
                    if isinstance(elt, ast.Starred):
                        elt = elt.value
                    self.assign(elt, Unknown(
                        "unpack", taint.taints_of(value)), env)
        elif isinstance(target, ast.Subscript):
            container = taint.strip(self.eval(target.value, env))
            key = taint.strip(self.eval(target.slice, env))
            if isinstance(container, (list, dict)):
                try:
                    container[key] = value
                except (TypeError, IndexError, KeyError):
                    pass
        elif isinstance(target, ast.Attribute):
            obj = self.eval(target.value, env)
            if isinstance(obj, Opaque):
                pass  # opaque state: nothing to track
        # other target shapes: ignore

    def stmt_If(self, stmt, env):
        cond = self.eval(stmt.test, env)
        verdict = self.truth(cond, stmt)
        if verdict:
            self.exec_block(stmt.body, env)
        else:
            self.exec_block(stmt.orelse, env)

    def truth(self, value, node) -> bool:
        concrete = taint.strip(value)
        if isinstance(concrete, (Unknown, Opaque, CommModel, ReqModel)):
            key = (self.path, getattr(node, "lineno", 0))
            if key in self.decisions:
                return self.decisions[key]
            if len(self.decisions) < MAX_DECISIONS:
                raise _NeedDecision(key)
            self.degrade(
                f"unresolved branch at line {key[1]} (decision budget)")
            return False
        try:
            return bool(concrete)
        except Exception:
            return False

    def stmt_While(self, stmt, env):
        iterations = 0
        while True:
            self._tick()
            cond = self.eval(stmt.test, env)
            concrete = taint.strip(cond)
            if isinstance(concrete, (Unknown, Opaque)):
                self.degrade(
                    f"while condition unresolved at line {stmt.lineno}")
                break
            if not concrete:
                self.exec_block(stmt.orelse, env)
                break
            iterations += 1
            if iterations > MAX_WHILE_ITER:
                self.degrade(
                    f"while loop truncated at line {stmt.lineno}")
                break
            try:
                self.exec_block(stmt.body, env)
            except _Break:
                break
            except _Continue:
                continue

    def stmt_For(self, stmt, env):
        iterable = taint.strip(self.eval(stmt.iter, env))
        if isinstance(iterable, (Unknown, Opaque)):
            self.degrade(
                f"for loop over unknown iterable at line {stmt.lineno}")
            self.assign(stmt.target, Unknown("loop item"), env)
            try:
                self.exec_block(stmt.body, env)
            except (_Break, _Continue):
                pass
            return
        try:
            items = list(iterable)
        except TypeError:
            self.degrade(
                f"for loop over non-iterable at line {stmt.lineno}")
            return
        if len(items) > MAX_FOR_ITER:
            self.degrade(f"for loop truncated at line {stmt.lineno} "
                         f"({len(items)} iterations)")
            items = items[:2]
        broke = False
        for item in items:
            self._tick()
            self.assign(stmt.target, item, env)
            try:
                self.exec_block(stmt.body, env)
            except _Break:
                broke = True
                break
            except _Continue:
                continue
        if not broke:
            self.exec_block(stmt.orelse, env)

    def stmt_Return(self, stmt, env):
        value = self.eval(stmt.value, env) if stmt.value is not None \
            else None
        raise _Return(value)

    def stmt_Break(self, stmt, env):
        raise _Break()

    def stmt_Continue(self, stmt, env):
        raise _Continue()

    def stmt_Pass(self, stmt, env):
        pass

    def stmt_Raise(self, stmt, env):
        raise _Inapplicable(f"explicit raise at line {stmt.lineno}")

    def stmt_Assert(self, stmt, env):
        cond = taint.strip(self.eval(stmt.test, env))
        if isinstance(cond, (Unknown, Opaque)):
            return
        try:
            holds = bool(cond)
        except Exception:
            return
        if not holds:
            raise _Inapplicable(
                f"assertion fails at line {stmt.lineno}")

    def stmt_FunctionDef(self, stmt, env):
        env.bind(stmt.name, Func(stmt, env, self.path,
                                 is_gen=_is_generator(stmt)))

    stmt_AsyncFunctionDef = stmt_FunctionDef

    def stmt_ClassDef(self, stmt, env):
        env.bind(stmt.name, Opaque("class " + stmt.name))

    def stmt_With(self, stmt, env):
        for item in stmt.items:
            value = self.eval(item.context_expr, env)
            if item.optional_vars is not None:
                self.assign(item.optional_vars, value, env)
        self.exec_block(stmt.body, env)

    def stmt_Try(self, stmt, env):
        # handlers are dead code to this analysis (the interpreter has
        # no value-level exceptions); body + else + finally run
        try:
            self.exec_block(stmt.body, env)
            self.exec_block(stmt.orelse, env)
        finally:
            self.exec_block(stmt.finalbody, env)

    def stmt_Import(self, stmt, env):
        for alias in stmt.names:
            bound = alias.asname or alias.name.split(".")[0]
            env.bind(bound, self.loader.import_name(
                alias.name if alias.asname else alias.name.split(".")[0],
                None))

    def stmt_ImportFrom(self, stmt, env):
        if stmt.module is None or stmt.level:
            return
        for alias in stmt.names:
            bound = alias.asname or alias.name
            env.bind(bound, self.loader.import_name(stmt.module,
                                                    alias.name))

    # -- expressions ----------------------------------------------------

    def eval(self, node, env: Env):
        self._tick()
        method = getattr(self, "eval_" + type(node).__name__, None)
        if method is None:
            return Unknown(type(node).__name__)
        return method(node, env)

    def eval_Constant(self, node, env):
        return node.value

    def eval_Name(self, node, env):
        found = env.lookup(node.id)
        if found is _MISSING:
            return Unknown(f"name {node.id}")
        return found

    def eval_Tuple(self, node, env):
        return tuple(self.eval(e, env) for e in node.elts
                     if not isinstance(e, ast.Starred))

    def eval_List(self, node, env):
        return [self.eval(e, env) for e in node.elts
                if not isinstance(e, ast.Starred)]

    def eval_Set(self, node, env):
        return Unknown("set")

    def eval_Dict(self, node, env):
        out = {}
        for k, v in zip(node.keys, node.values):
            if k is None:
                continue
            key = taint.strip(self.eval(k, env))
            value = self.eval(v, env)
            try:
                out[key] = value
            except TypeError:
                pass
        return out

    def eval_Slice(self, node, env):
        def part(x):
            if x is None:
                return None
            v = taint.strip(self.eval(x, env))
            return v if isinstance(v, int) else None
        return slice(part(node.lower), part(node.upper), part(node.step))

    def eval_Subscript(self, node, env):
        container = self.eval(node.value, env)
        key = self.eval(node.slice, env)
        labels = taint.taints_of(container) | taint.taints_of(key)
        base = taint.strip(container)
        k = taint.strip(key)
        if isinstance(base, (Unknown, Opaque)) or isinstance(
                k, (Unknown, Opaque)):
            return Unknown("subscript", labels)
        try:
            return taint.with_taints(base[k], labels)
        except Exception:
            return Unknown("subscript", labels)

    def eval_Attribute(self, node, env):
        obj = self.eval(node.value, env)
        return self.getattr_value(obj, node.attr, node)

    def eval_UnaryOp(self, node, env):
        operand = self.eval(node.operand, env)
        labels = taint.taints_of(operand)
        concrete = taint.strip(operand)
        if isinstance(concrete, (Unknown, Opaque)):
            return Unknown("unary", labels)
        try:
            op = type(node.op).__name__
            if op == "USub":
                return taint.with_taints(-concrete, labels)
            if op == "UAdd":
                return taint.with_taints(+concrete, labels)
            if op == "Not":
                return taint.with_taints(not concrete, labels)
            if op == "Invert":
                return taint.with_taints(~concrete, labels)
        except Exception:
            pass
        return Unknown("unary", labels)

    _BINOP_FNS = {
        "Add": lambda a, b: a + b,
        "Sub": lambda a, b: a - b,
        "Mult": lambda a, b: a * b,
        "Div": lambda a, b: a / b,
        "FloorDiv": lambda a, b: a // b,
        "Mod": lambda a, b: a % b,
        "Pow": lambda a, b: a ** b,
        "LShift": lambda a, b: a << b,
        "RShift": lambda a, b: a >> b,
        "BitOr": lambda a, b: a | b,
        "BitXor": lambda a, b: a ^ b,
        "BitAnd": lambda a, b: a & b,
        "MatMult": lambda a, b: Unknown("matmul"),
    }

    def _binop(self, opname: str, left, right):
        labels = taint.taints_of(left) | taint.taints_of(right)
        a, b = taint.strip(left), taint.strip(right)
        if isinstance(a, (Unknown, Opaque)) or \
                isinstance(b, (Unknown, Opaque)):
            return Unknown("binop", labels)
        fn = self._BINOP_FNS.get(opname)
        if fn is None:
            return Unknown(opname, labels)
        try:
            return taint.with_taints(fn(a, b), labels)
        except Exception:
            return Unknown(opname, labels)

    def eval_BinOp(self, node, env):
        return self._binop(type(node.op).__name__,
                           self.eval(node.left, env),
                           self.eval(node.right, env))

    def eval_BoolOp(self, node, env):
        is_and = isinstance(node.op, ast.And)
        result = None
        for expr in node.values:
            result = self.eval(expr, env)
            concrete = taint.strip(result)
            if isinstance(concrete, (Unknown, Opaque)):
                return Unknown("boolop", taint.taints_of(result))
            if is_and and not concrete:
                return result
            if not is_and and concrete:
                return result
        return result

    _CMP_FNS = {
        "Eq": lambda a, b: a == b,
        "NotEq": lambda a, b: a != b,
        "Lt": lambda a, b: a < b,
        "LtE": lambda a, b: a <= b,
        "Gt": lambda a, b: a > b,
        "GtE": lambda a, b: a >= b,
        "In": lambda a, b: a in b,
        "NotIn": lambda a, b: a not in b,
        "Is": lambda a, b: a is b,
        "IsNot": lambda a, b: a is not b,
    }

    def eval_Compare(self, node, env):
        left = self.eval(node.left, env)
        for op, rhs_expr in zip(node.ops, node.comparators):
            right = self.eval(rhs_expr, env)
            a, b = taint.strip(left), taint.strip(right)
            opname = type(op).__name__
            # identity tests against None work even for models
            if opname in ("Is", "IsNot") and (a is None or b is None):
                verdict = (a is b) if opname == "Is" else (a is not b)
                left = right
                if not verdict:
                    return False
                continue
            if isinstance(a, (Unknown, Opaque, CommModel, ReqModel)) or \
                    isinstance(b, (Unknown, Opaque, CommModel, ReqModel)):
                return Unknown("compare",
                               taint.taints_of(left)
                               | taint.taints_of(right))
            fn = self._CMP_FNS.get(opname)
            try:
                verdict = fn(a, b)
            except Exception:
                return Unknown("compare")
            if not verdict:
                return False
            left = right
        return True

    def eval_IfExp(self, node, env):
        if self.truth(self.eval(node.test, env), node):
            return self.eval(node.body, env)
        return self.eval(node.orelse, env)

    def eval_JoinedStr(self, node, env):
        parts = []
        labels = frozenset()
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
                continue
            inner = self.eval(value.value, env)
            labels |= taint.taints_of(inner)
            concrete = taint.strip(inner)
            if isinstance(concrete, (Unknown, Opaque)):
                parts.append("?")
            else:
                parts.append(str(concrete))
        return taint.with_taints("".join(parts), labels)

    def eval_FormattedValue(self, node, env):
        return self.eval(node.value, env)

    def eval_Lambda(self, node, env):
        return Func(node, env, self.path)

    def eval_NamedExpr(self, node, env):
        value = self.eval(node.value, env)
        self.assign(node.target, value, env)
        return value

    def eval_Starred(self, node, env):
        return self.eval(node.value, env)

    def eval_Yield(self, node, env):
        if node.value is not None:
            self.eval(node.value, env)
        return Unknown("yield")

    def eval_YieldFrom(self, node, env):
        inner = self.eval(node.value, env)
        if isinstance(inner, GenResult):
            return inner.value
        return Unknown("yield from", taint.taints_of(inner))

    def eval_Await(self, node, env):
        return self.eval(node.value, env)

    def eval_ListComp(self, node, env):
        return self._comprehension(node, env, collect=list)

    def eval_GeneratorExp(self, node, env):
        return self._comprehension(node, env, collect=list)

    def eval_SetComp(self, node, env):
        return self._comprehension(node, env, collect=list)

    def eval_DictComp(self, node, env):
        return Unknown("dictcomp")

    def _comprehension(self, node, env, collect):
        if len(node.generators) != 1:
            return Unknown("comprehension")
        gen = node.generators[0]
        iterable = taint.strip(self.eval(gen.iter, env))
        if isinstance(iterable, (Unknown, Opaque)):
            return Unknown("comprehension")
        try:
            items = list(iterable)
        except TypeError:
            return Unknown("comprehension")
        if len(items) > MAX_FOR_ITER:
            items = items[:MAX_FOR_ITER]
        inner = Env(parent=env)
        out = []
        for item in items:
            self._tick()
            self.assign(gen.target, item, inner)
            keep = True
            for test in gen.ifs:
                verdict = taint.strip(self.eval(test, inner))
                if isinstance(verdict, (Unknown, Opaque)) or not verdict:
                    keep = False
                    break
            if keep:
                out.append(self.eval(node.elt, inner))
        return collect(out)

    # -- attribute dispatch ---------------------------------------------

    def getattr_value(self, obj, attr: str, node):
        labels = taint.taints_of(obj)
        base = taint.strip(obj)
        if isinstance(base, CtxModel):
            if attr == "rank":
                return base.rank
            if attr == "size":
                return base.size
            if attr == "comm":
                return base.comm
            if attr == "enc":
                return base.enc
            if attr == "recorder":
                return RecorderModel()
            if attr in ("sanitizer", "resilience"):
                return None
            if attr in ("now", "node"):
                return Unknown(attr)
            return BoundModel(base, attr)
        if isinstance(base, (CommModel, ReqModel, NonceSrcModel,
                             AEADModel, RecorderModel)):
            if isinstance(base, CommModel) and attr in ("rank", "size"):
                return getattr(base, attr)
            if isinstance(base, CommModel) and attr == "ctx":
                return CtxModel(base.rank, base.size)
            return BoundModel(base, attr)
        if isinstance(base, SecurityCfgModel):
            if attr in base.kwargs:
                return base.kwargs[attr]
            if taint.name_taints(attr):
                return Unknown(attr, taint.name_taints(attr),
                               origin=("cfg", attr))
            return Unknown("cfg." + attr)
        if isinstance(base, ModuleRef):
            if base.name == "math":
                return getattr(_math, attr, Unknown(f"math.{attr}"))
            return self.loader.import_name(base.name, attr)
        if isinstance(base, (Unknown, Opaque)):
            return BoundModel(base, attr)
        if isinstance(base, Func) or base is None:
            return Unknown(attr)
        # concrete python value: safe getattr on pure builtin types
        if isinstance(base, (str, bytes, bytearray, int, float, bool,
                             list, tuple, dict, set, frozenset, range)):
            try:
                return taint.with_taints(getattr(base, attr), labels)
            except AttributeError:
                return Unknown(attr, labels)
        return Unknown(attr, labels)

    # -- calls ----------------------------------------------------------

    def eval_Call(self, node, env):
        func = self.eval(node.func, env)
        args = []
        spread_unknown = False
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                spread = taint.strip(self.eval(arg.value, env))
                if isinstance(spread, (list, tuple)):
                    args.extend(spread)
                else:
                    spread_unknown = True
                continue
            args.append(self.eval(arg, env))
        kwargs = {}
        for kw in node.keywords:
            if kw.arg is None:
                continue
            kwargs[kw.arg] = self.eval(kw.value, env)
        if spread_unknown:
            args.append(Unknown("*args"))
        return self.call(func, args, kwargs, node)

    def call(self, func, args, kwargs, node):
        site = self.site(node)
        name = self._callable_name(func, node)
        if isinstance(func, BoundModel):
            return self.call_model(func, args, kwargs, node, site)
        if isinstance(func, Func):
            return self.call_user(func, args, kwargs, node)
        if callable(func) and not isinstance(func, (Unknown, Opaque)):
            return self._call_native(func, args, kwargs, name, site)
        # Unknown / Opaque callee
        self._leak_check(args, kwargs, node, name)
        if taint.is_keygen_call(name):
            return Unknown("key", frozenset((taint.KEY, taint.SECRET)),
                           origin=("keygen", self.path,
                                   getattr(node, "lineno", 0)))
        if taint.is_sink_call(name):
            self._sink(name or "call", args, kwargs, site)
            return None
        labels = frozenset()
        for value in list(args) + list(kwargs.values()):
            labels |= taint.taints_of(value)
        return Unknown(f"call {name or '?'}", labels)

    def _callable_name(self, func, node) -> str | None:
        if isinstance(func, BoundModel):
            return func.name
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        if isinstance(node.func, ast.Name):
            return node.func.id
        return None

    def _leak_check(self, args, kwargs, node, name) -> None:
        for value in list(args) + list(kwargs.values()):
            if isinstance(taint.strip(value), (CommModel, CtxModel)):
                self.degrade(
                    f"opaque call {name or '?'}() at line "
                    f"{getattr(node, 'lineno', 0)} receives the "
                    f"communicator; ops may be hidden")
                return

    def _sink(self, sink: str, args, kwargs, site: Site) -> None:
        labels = frozenset()
        for value in list(args) + list(kwargs.values()):
            labels |= taint.taints_of(value)
        if labels:
            self.sinks.append(taint.SinkEvent(site, sink, labels))

    #: builtins whose result reveals nothing about a secret argument's
    #: bytes — taint does not survive them (len(key) is loggable)
    _DECLASSIFYING = frozenset(("len", "bool", "type", "isinstance",
                                "hasattr"))

    def _call_native(self, fn, args, kwargs, name, site: Site):
        if name in self._DECLASSIFYING:
            return self._call_native_stripped(fn, args, kwargs, name)
        labels = frozenset()
        concrete_args = []
        all_concrete = True
        for value in args:
            labels |= taint.taints_of(value)
            concrete = taint.strip(value)
            if isinstance(concrete, (Unknown, Opaque, CommModel,
                                     CtxModel, ReqModel, Func)):
                all_concrete = False
            concrete_args.append(concrete)
        concrete_kwargs = {}
        for key, value in kwargs.items():
            labels |= taint.taints_of(value)
            concrete = taint.strip(value)
            if isinstance(concrete, (Unknown, Opaque, CommModel,
                                     CtxModel, ReqModel, Func)):
                all_concrete = False
            concrete_kwargs[key] = concrete
        if not all_concrete:
            return Unknown(f"native {name}", labels)
        try:
            result = fn(*concrete_args, **concrete_kwargs)
        except Exception:
            return Unknown(f"native {name}", labels)
        if isinstance(result, (range, zip, enumerate, reversed, map,
                               filter)):
            try:
                result = list(result)
            except Exception:
                return Unknown(f"native {name}", labels)
        return taint.with_taints(result, labels)

    def _call_native_stripped(self, fn, args, kwargs, name):
        stripped = [taint.strip(value) for value in args]
        stripped_kwargs = {key: taint.strip(value)
                           for key, value in kwargs.items()}
        for value in stripped + list(stripped_kwargs.values()):
            if isinstance(value, (Unknown, Opaque, CommModel, CtxModel,
                                  ReqModel, Func)):
                return Unknown(f"native {name}")
        try:
            return fn(*stripped, **stripped_kwargs)
        except Exception:
            return Unknown(f"native {name}")

    def call_user(self, func: Func, args, kwargs, node):
        self.depth += 1
        if self.depth > MAX_CALL_DEPTH:
            self.depth -= 1
            self.degrade(f"call depth budget at line "
                         f"{getattr(node, 'lineno', 0)}")
            return Unknown("deep call")
        try:
            local = Env(parent=func.env)
            fn = func.node
            if isinstance(fn, ast.Lambda):
                self._bind_params(fn.args, func, args, kwargs, local)
                return self.eval(fn.body, local)
            self._bind_params(fn.args, func, args, kwargs, local)
            try:
                self.exec_block(fn.body, local)
                result = None
            except _Return as ret:
                result = ret.value
            if func.is_gen:
                return GenResult(result)
            return result
        finally:
            self.depth -= 1

    def _bind_params(self, arguments, func: Func, args, kwargs,
                     local: Env) -> None:
        params = list(arguments.posonlyargs) + list(arguments.args)
        positional = list(args)
        if func.bound_self is not None:
            positional.insert(0, func.bound_self)
        defaults = list(arguments.defaults)
        required = len(params) - len(defaults)
        for i, param in enumerate(params):
            if i < len(positional):
                value = positional[i]
            elif param.arg in kwargs:
                value = kwargs[param.arg]
            elif i >= required:
                value = self.eval(defaults[i - required], func.env)
            else:
                value = Unknown(f"param {param.arg}")
            local.bind(param.arg, value)
        for param, default in zip(arguments.kwonlyargs,
                                  arguments.kw_defaults):
            if param.arg in kwargs:
                local.bind(param.arg, kwargs[param.arg])
            elif default is not None:
                local.bind(param.arg, self.eval(default, func.env))
            else:
                local.bind(param.arg, Unknown(f"param {param.arg}"))
        if arguments.vararg is not None:
            local.bind(arguments.vararg.arg,
                       tuple(positional[len(params):]))
        if arguments.kwarg is not None:
            extra = {k: v for k, v in kwargs.items()
                     if k not in {p.arg for p in params
                                  + list(arguments.kwonlyargs)}}
            local.bind(arguments.kwarg.arg, extra)

    # -- model calls ----------------------------------------------------

    def call_model(self, bound: BoundModel, args, kwargs, node,
                   site: Site):
        obj, name = bound.obj, bound.name
        if obj is _PRINT_SINK:
            self._sink("print", args, kwargs, site)
            return None
        if obj is None and name.startswith("model:"):
            return self._construct_model(name[len("model:"):], args,
                                         kwargs, node, site)
        if isinstance(obj, CommModel):
            return self._comm_call(obj, name, args, kwargs, node, site)
        if isinstance(obj, ReqModel):
            if name in ("wait", "co_wait"):
                return self._finish_wait(obj, site, gen=name == "co_wait")
            if name in ("completed", "status"):
                return Unknown(name)
            return Unknown(f"req.{name}")
        if isinstance(obj, NonceSrcModel):
            if name in ("next", "draw", "__next__", "take"):
                return obj.draw()
            return Unknown(f"nonce.{name}")
        if isinstance(obj, AEADModel):
            if name == "seal":
                return self._seal(obj, args, kwargs, site)
            if name == "open":
                return Unknown("plaintext", frozenset((taint.SECRET,)))
            return Unknown(f"aead.{name}")
        if isinstance(obj, RecorderModel):
            if name == "emit":
                self._sink("recorder.emit", args, kwargs, site)
                return None
            return Unknown(f"recorder.{name}")
        if isinstance(obj, CtxModel):
            if name in ("compute", "co_compute"):
                result = Unknown(name)
                return GenResult(result) if name == "co_compute" \
                    else result
            return Unknown(f"ctx.{name}")
        # Unknown / Opaque receivers
        self._leak_check(args, kwargs, node, name)
        if taint.is_keygen_call(name):
            return Unknown("key", frozenset((taint.KEY, taint.SECRET)),
                           origin=("keygen", self.path,
                                   getattr(node, "lineno", 0)))
        if taint.is_sink_call(name):
            self._sink(name, args, kwargs, site)
            return None
        if name in ("next",):
            base = taint.strip(obj)
            if isinstance(base, NonceSrcModel):
                return base.draw()
        labels = frozenset()
        for value in list(args) + list(kwargs.values()):
            labels |= taint.taints_of(value)
        return Unknown(f"{name}()", labels)

    def _construct_model(self, cls: str, args, kwargs, node, site: Site):
        if cls == "EncryptedComm":
            ctx = taint.strip(args[0]) if args else None
            rank, size = self.rank, self.nranks
            if isinstance(ctx, CtxModel):
                rank, size = ctx.rank, ctx.size
            cfg = taint.strip(args[1]) if len(args) > 1 else \
                taint.strip(kwargs.get("security"))
            key_id = ("site", self.path, getattr(node, "lineno", 0))
            if isinstance(cfg, SecurityCfgModel):
                key_id = self._key_identity(cfg.kwargs.get("key"),
                                            default=key_id)
            return CommModel(rank, size, channel="aead", key_id=key_id)
        if cls == "SecurityConfig":
            return SecurityCfgModel(dict(kwargs))
        if cls == "CounterNonces":
            sender = taint.strip(args[0]) if args else \
                taint.strip(kwargs.get("sender_id", 0))
            return NonceSrcModel("counter", sender)
        if cls == "RandomNonces":
            return NonceSrcModel("random", None)
        if cls == "ChunkPipeline":
            inner = taint.strip(args[0]) if args else None
            if isinstance(inner, CommModel):
                return CommModel(inner.rank, inner.size,
                                 channel="chunked", key_id=inner.key_id)
            return CommModel(self.rank, self.nranks, channel="chunked")
        if cls == "TraceRecorder":
            return RecorderModel()
        if cls == "get_aead":
            # get_aead(key, backend="auto") — key is positional-first
            key = args[0] if args else kwargs.get("key")
            return AEADModel(self._key_identity(
                key, default=("site", self.path,
                              getattr(node, "lineno", 0))))
        if cls == "make_nonce_source":
            strategy = taint.strip(args[0]) if args else \
                taint.strip(kwargs.get("strategy"))
            sender = taint.strip(args[1]) if len(args) > 1 else \
                taint.strip(kwargs.get("sender_id", 0))
            if strategy == "counter":
                return NonceSrcModel("counter", sender)
            return NonceSrcModel("random", None)
        return Opaque(cls)

    def _key_identity(self, key, *, default):
        key = taint.strip(key) if key is not None else None
        if key is None:
            return default
        if isinstance(key, (bytes, str, int)):
            return ("key", key)
        if isinstance(key, Unknown) and key.origin is not None:
            return key.origin
        return default

    def _seal(self, aead: AEADModel, args, kwargs, site: Site):
        nonce = args[0] if args else kwargs.get("nonce")
        nonce_id = None
        concrete = taint.strip(nonce)
        if isinstance(concrete, NonceVal):
            nonce_id = concrete.nonce_id
        elif isinstance(concrete, (bytes, bytearray)):
            nonce_id = bytes(concrete)
        self.seq += 1
        self.seals.append(taint.SealEvent(
            self.rank, self.seq, site, aead.key_id, nonce_id))
        return Unknown("ciphertext")

    # -- comm-model ops -------------------------------------------------

    def _int_or_none(self, value):
        concrete = taint.strip(value)
        return concrete if isinstance(concrete, int) and \
            not isinstance(concrete, bool) else None

    def _size_of(self, value):
        concrete = taint.strip(value)
        if isinstance(concrete, (bytes, bytearray, str)):
            return len(concrete)
        return None

    def _check_peer_range(self, peer, node) -> None:
        if peer is None or peer == ANY_SOURCE:
            return
        if not 0 <= peer < self.nranks:
            raise _Inapplicable(
                f"peer {peer} outside [0, {self.nranks}) at line "
                f"{getattr(node, 'lineno', 0)}")

    def _wire_check(self, comm: CommModel, payload, opname: str,
                    site: Site) -> None:
        if comm.channel != "plain":
            return
        labels = taint.taints_of(payload)
        if labels & {taint.KEY, taint.SECRET}:
            self.wires.append(taint.WireEvent(site, opname, labels))

    def _seal_for_send(self, comm: CommModel, site: Site) -> None:
        """Encrypted channels seal internally with per-sender counter
        nonces (the library's CounterNonces(sender_id=rank) discipline);
        the model records the event so shared-key hygiene stays visible
        but the nonce identity never collides."""
        if comm.channel == "plain" or comm.key_id is None:
            return
        self.seq += 1
        self.seals.append(taint.SealEvent(
            self.rank, self.seq, site, comm.key_id, None))

    def _recv_value(self, comm: CommModel):
        data = Unknown("recv payload",
                       frozenset((taint.SECRET,))
                       if comm.channel != "plain" else frozenset())
        return data

    def _comm_call(self, comm: CommModel, name: str, args, kwargs,
                   node, site: Site):
        gen = name.startswith("co_")
        base = name[3:] if gen else name

        def out(value):
            return GenResult(value) if gen else value

        def arg(index: int, kwname: str, default=None):
            if index < len(args):
                return args[index]
            return kwargs.get(kwname, default)

        if base in _COLLECTIVE_METHODS:
            kind = _COLLECTIVE_METHODS[base]
            root = self._int_or_none(arg(1, "root", 0)) \
                if kind in ("bcast", "gather", "scatter") else \
                (self._int_or_none(arg(2, "root", 0))
                 if kind == "reduce" else None)
            data = arg(0, "data") if kind != "barrier" else None
            if data is not None:
                self._wire_check(comm, data, base, site)
            self.emit(CommOp(kind=kind, rank=self.rank, site=site,
                             root=root, channel=comm.channel,
                             size=self._size_of(data)))
            if kind in ("allgather", "alltoall", "alltoallv",
                        "gather",):
                return out([Unknown("block")
                            for _ in range(self.nranks)])
            return out(Unknown(kind))
        if base in ("send", "isend"):
            data = arg(0, "data")
            peer = self._int_or_none(arg(1, "dest"))
            tag = self._int_or_none(arg(2, "tag", 0))
            self._check_peer_range(peer, node)
            self._wire_check(comm, data, base, site)
            self._seal_for_send(comm, site)
            req = self.new_req() if base == "isend" else None
            self.emit(CommOp(kind=base, rank=self.rank, site=site,
                             peer=peer, tag=tag,
                             size=self._size_of(data),
                             channel=comm.channel, req=req))
            if base == "isend":
                return out(ReqModel(req, comm, is_recv=False))
            return out(None)
        if base == "recv":
            peer = self._int_or_none(arg(0, "source", ANY_SOURCE))
            tag = self._int_or_none(arg(1, "tag", ANY_TAG))
            self._check_peer_range(peer, node)
            self.emit(CommOp(kind="recv", rank=self.rank, site=site,
                             peer=peer, tag=tag, channel=comm.channel))
            return out((self._recv_value(comm), Unknown("status")))
        if base == "irecv":
            peer = self._int_or_none(arg(0, "source", ANY_SOURCE))
            tag = self._int_or_none(arg(1, "tag", ANY_TAG))
            self._check_peer_range(peer, node)
            req = self.new_req()
            self.emit(CommOp(kind="irecv", rank=self.rank, site=site,
                             peer=peer, tag=tag, channel=comm.channel,
                             req=req))
            return out(ReqModel(req, comm, is_recv=True))
        if base == "sendrecv":
            data = arg(0, "senddata")
            peer = self._int_or_none(arg(1, "dest"))
            rpeer = self._int_or_none(arg(2, "recvsource", ANY_SOURCE))
            tag = self._int_or_none(arg(3, "sendtag", 0))
            rtag = self._int_or_none(arg(4, "recvtag", ANY_TAG))
            self._check_peer_range(peer, node)
            self._check_peer_range(rpeer, node)
            self._wire_check(comm, data, "sendrecv", site)
            self._seal_for_send(comm, site)
            self.emit(CommOp(kind="sendrecv", rank=self.rank, site=site,
                             peer=peer, tag=tag, rpeer=rpeer, rtag=rtag,
                             size=self._size_of(data),
                             channel=comm.channel))
            return out((self._recv_value(comm), Unknown("status")))
        if base == "waitall":
            reqs = taint.strip(arg(0, "requests", ()))
            handles = [r for r in (taint.strip(x) for x in reqs)
                       if isinstance(r, ReqModel)] \
                if isinstance(reqs, (list, tuple)) else []
            self.emit(CommOp(kind="wait", rank=self.rank, site=site,
                             waits_on=tuple(h.req for h in handles)))
            return out([self._recv_value(h.comm) if h.is_recv else None
                        for h in handles])
        if base in ("probe", "iprobe"):
            return out(Unknown("status"))
        if base == "split":
            self.degrade(f"comm.split at line "
                         f"{getattr(node, 'lineno', 0)}: subgroup "
                         f"communication is not modeled")
            return out(Unknown("split comm"))
        if base in ("bytes_encrypted", "rank", "size"):
            return out(getattr(comm, base, Unknown(base)))
        # anything else on a comm: unknown but harmless
        return out(Unknown(f"comm.{name}"))

    def _finish_wait(self, req: ReqModel, site: Site, *, gen: bool):
        self.emit(CommOp(kind="wait", rank=self.rank, site=site,
                         waits_on=(req.req,)))
        value = self._recv_value(req.comm) if req.is_recv else None
        return GenResult(value) if gen else value


def _taintable(value) -> bool:
    return not isinstance(value, (CommModel, CtxModel, ReqModel,
                                  NonceSrcModel, AEADModel,
                                  SecurityCfgModel, RecorderModel,
                                  Func, ModuleRef, BoundModel))


# ---------------------------------------------------------------------------
# root discovery and per-root extraction
# ---------------------------------------------------------------------------


@dataclass
class ExtractResult:
    """One root's extraction at one world size and configuration."""

    graph: InstGraph
    sinks: list = field(default_factory=list)
    wires: list = field(default_factory=list)
    seals: list = field(default_factory=list)


def _root_functions(mod: ModuleContext):
    """The rank roots worth verifying: top-of-chain rank functions that
    are not methods (the comm facades themselves are not programs)."""
    roots = []
    for node in mod.rank_roots:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = list(node.args.posonlyargs) + list(node.args.args)
        if params and params[0].arg in ("self", "cls"):
            continue
        roots.append(node)
    return roots


def _ctx_param_model(param, rank: int, nranks: int):
    ann = getattr(param, "annotation", None)
    text = ast.dump(ann) if ann is not None else ""
    if "CommHandle" in text:
        return CommModel(rank, nranks)
    if "EncryptedComm" in text:
        return CommModel(rank, nranks, channel="aead",
                         key_id=("job-key",))
    if param.arg == "comm":
        return CommModel(rank, nranks)
    return CtxModel(rank, nranks)


def _enclosing_chain(mod: ModuleContext, node):
    """Enclosing function defs, outermost first."""
    chain = []
    current = mod._parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            chain.append(current)
        current = mod._parents.get(current)
    return list(reversed(chain))


def _bind_heuristic_params(fn, env: Env, interp: Interp,
                           skip_first_ctx: bool = False) -> None:
    arguments = fn.args
    params = list(arguments.posonlyargs) + list(arguments.args)
    defaults = list(arguments.defaults)
    required = len(params) - len(defaults)
    start = 1 if skip_first_ctx else 0
    for i, param in enumerate(params):
        if i < start:
            continue
        if i >= required:
            try:
                value = interp.eval(defaults[i - required], env)
            except Exception:
                value = Unknown(f"default {param.arg}")
        else:
            value = _param_heuristic(param.arg)
        env.bind(param.arg, value)
    for param, default in zip(arguments.kwonlyargs,
                              arguments.kw_defaults):
        if default is not None:
            try:
                env.bind(param.arg, interp.eval(default, env))
                continue
            except Exception:
                pass
        env.bind(param.arg, _param_heuristic(param.arg))


def _run_rank(loader: Loader, mod: ModuleContext, modenv: ModEnv,
              root, rank: int, nranks: int,
              decisions: dict) -> Interp:
    """Interpret *root* for one rank; raises the control signals."""
    interp = Interp(loader, mod.path, rank=rank, nranks=nranks,
                    decisions=decisions)
    env = Env(module=modenv)
    # materialize the enclosing factory scope: params by heuristic,
    # then the simple statements preceding the (next) nested def
    chain = _enclosing_chain(mod, root)
    for depth, factory in enumerate(chain):
        _bind_heuristic_params(factory, env, interp)
        inner = chain[depth + 1] if depth + 1 < len(chain) else root
        for stmt in factory.body:
            if stmt is inner:
                break
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Return)):
                continue
            try:
                interp.exec_stmt(stmt, env)
            except (_NeedDecision, _Inapplicable, _Budget):
                raise
            except Exception:
                pass
        env = Env(parent=env)
    # bind the root's parameters: ctx model first, heuristics after
    params = list(root.args.posonlyargs) + list(root.args.args)
    ctx_index = None
    for i, param in enumerate(params):
        ann = getattr(param, "annotation", None)
        text = ast.dump(ann) if ann is not None else ""
        if param.arg in ("ctx", "comm") or any(
                marker in text for marker in CTX_ANNOTATIONS):
            ctx_index = i
            break
    _bind_heuristic_params(root, env, interp)
    if ctx_index is not None:
        param = params[ctx_index]
        env.bind(param.arg, _ctx_param_model(param, rank, nranks))
    try:
        interp.exec_block(root.body, env)
    except _Return:
        pass
    except _Budget as budget:
        interp.degrade(budget.reason)
    return interp


def _extract_root(loader: Loader, mod: ModuleContext, modenv: ModEnv,
                  root, nranks: int) -> list[ExtractResult]:
    """All configurations of one root at one world size."""
    results: list[ExtractResult] = []
    pending: list[dict] = [{}]
    seen: set[tuple] = set()
    while pending and len(results) < MAX_CONFIGS:
        decisions = pending.pop(0)
        key = tuple(sorted(decisions.items()))
        if key in seen:
            continue
        seen.add(key)
        interps: list[Interp] = []
        inapplicable = None
        forked = None
        for rank in range(nranks):
            try:
                interps.append(_run_rank(loader, mod, modenv, root,
                                         rank, nranks, dict(decisions)))
            except _NeedDecision as need:
                forked = need.key
                break
            except _Inapplicable as why:
                inapplicable = why.reason
                break
        if forked is not None:
            pending.append({**decisions, forked: False})
            pending.append({**decisions, forked: True})
            continue
        config = ", ".join(
            f"assume line {line} {'taken' if val else 'skipped'}"
            for (_p, line), val in sorted(decisions.items()))
        if inapplicable is not None:
            graph = InstGraph(nranks=nranks, ranks=[], config=config,
                              notes=[inapplicable], inapplicable=True)
            results.append(ExtractResult(graph))
            continue
        ranks = [RankOps(rank=i, ops=interp.ops)
                 for i, interp in enumerate(interps)]
        notes: list[str] = []
        incomplete = bool(decisions)
        for interp in interps:
            incomplete = incomplete or interp.incomplete
            for text in interp.notes:
                if text not in notes:
                    notes.append(text)
        if decisions:
            notes.append("branch decisions assumed; matching not "
                         "claimed for this configuration")
        graph = InstGraph(nranks=nranks, ranks=ranks, config=config,
                          notes=notes, incomplete=incomplete)
        _attach_symbolic(graph)
        results.append(ExtractResult(
            graph,
            sinks=[e for interp in interps for e in interp.sinks],
            wires=[e for interp in interps for e in interp.wires],
            seals=[e for interp in interps for e in interp.seals],
        ))
    return results


def _attach_symbolic(graph: InstGraph) -> None:
    """Fit rank-symbolic peer/tag templates across the ranks' ops."""
    n = graph.nranks
    if n < 2:
        return
    by_key: dict[tuple, dict[int, list[CommOp]]] = {}
    for per_rank in graph.ranks:
        counters: dict[tuple, int] = {}
        for op in per_rank.ops:
            base = (op.site.path, op.site.line, op.kind)
            index = counters.get(base, 0)
            counters[base] = index + 1
            by_key.setdefault(base + (index,), {}) \
                .setdefault(per_rank.rank, []).append(op)
    for ops_by_rank in by_key.values():
        if len(ops_by_rank) != n:
            continue
        ops = [ops_by_rank[r][0] for r in range(n)]
        peer_samples = [(op.rank, n, op.peer) for op in ops
                        if isinstance(op.peer, int)
                        and op.peer != ANY_SOURCE]
        tag_samples = [(op.rank, n, op.tag) for op in ops
                       if isinstance(op.tag, int) and op.tag != ANY_TAG]
        sym_peer = fit_symbolic(peer_samples) \
            if len(peer_samples) == n else None
        sym_tag = fit_symbolic(tag_samples) \
            if len(tag_samples) == n else None
        for op in ops:
            op.sym_peer = sym_peer
            op.sym_tag = sym_tag


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


@dataclass
class VerifyResult:
    """What one verification pass produced."""

    findings: list[Finding]
    graphs: list[InstGraph] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def _issues_to_findings(issues: list[GraphIssue],
                        path: str) -> list[Finding]:
    findings = []
    for issue in issues:
        rule = get_rule(issue.rule)
        findings.append(Finding(
            rule=issue.rule, severity=rule.severity,
            path=issue.site.path or path, line=issue.site.line,
            col=issue.site.col, message=issue.message, hint=rule.hint))
    return findings


def verify_source(source: str, path: str = "<string>", *,
                  sizes=DEFAULT_SIZES,
                  force_rank_scope: bool = False,
                  loader: Loader | None = None) -> VerifyResult:
    """Verify every rank program in one module's source."""
    try:
        mod = ModuleContext(path, source,
                            force_rank_scope=force_rank_scope)
    except SyntaxError as exc:
        return VerifyResult(findings=[Finding(
            rule="E999", severity="error", path=path,
            line=exc.lineno or 1, col=(exc.offset or 1) - 1,
            message=f"syntax error: {exc.msg}")])
    loader = loader if loader is not None else Loader()
    modenv = loader.env_for_source(path, mod.tree)
    sizes = _declared_sizes(mod.lines) or sizes
    issues: list[GraphIssue] = []
    graphs: list[InstGraph] = []
    notes: list[str] = []
    for root in _root_functions(mod):
        for nranks in sizes:
            for result in _extract_root(loader, mod, modenv, root,
                                        nranks):
                graphs.append(result.graph)
                for text in result.graph.notes:
                    entry = f"{path}:{root.name}@n={nranks}: {text}"
                    if entry not in notes:
                        notes.append(entry)
                if result.graph.inapplicable:
                    continue
                issues.extend(check_graph(result.graph))
                issues.extend(taint.check_sinks(result.sinks))
                issues.extend(taint.check_wire(result.wires))
                issues.extend(taint.check_seal_log(result.seals))
    findings = _issues_to_findings(issues, path)
    # one finding per (rule, line): sizes/configs often repeat it
    deduped: list[Finding] = []
    seen: set[tuple] = set()
    for finding in sorted(findings,
                          key=lambda f: (f.path, f.line, f.col, f.rule)):
        key = (finding.rule, finding.path, finding.line)
        if key in seen:
            continue
        seen.add(key)
        deduped.append(finding)
    file_allow, line_allow = _parse_suppressions(mod.lines)
    deduped = [f for f in deduped
               if not _suppressed(f, mod.lines, file_allow, line_allow)]
    return VerifyResult(findings=deduped, graphs=graphs, notes=notes)


#: default verification targets (rank programs live here)
VERIFY_PATHS = ("src/repro/workloads", "src/repro/experiments",
                "examples")


def verify_paths(paths, *, sizes=DEFAULT_SIZES) -> VerifyResult:
    """Verify every Python file under *paths* (one shared loader)."""
    from repro.analysis.linter import iter_python_files

    loader = Loader()
    findings: list[Finding] = []
    graphs: list[InstGraph] = []
    notes: list[str] = []
    for filename in iter_python_files(paths):
        try:
            with open(filename, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            findings.append(Finding(
                rule="E998", severity="error", path=filename, line=1,
                col=0, message=f"cannot read file: {exc}"))
            continue
        result = verify_source(source, filename, sizes=sizes,
                               loader=loader)
        findings.extend(result.findings)
        graphs.extend(result.graphs)
        notes.extend(result.notes)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return VerifyResult(findings=findings, graphs=graphs, notes=notes)


def _wrap_foreign(value, loader: Loader):
    """Map a real Python value from a closure/globals into the model."""
    if value is None or isinstance(value, (int, float, bool, str,
                                           bytes)):
        return value
    if isinstance(value, (list, tuple)):
        return type(value)(_wrap_foreign(v, loader) for v in value)
    if isinstance(value, dict):
        return {k: _wrap_foreign(v, loader) for k, v in value.items()}
    if inspect.ismodule(value):
        name = getattr(value, "__name__", "?")
        if name == "math" or name == "repro" or \
                name.startswith("repro."):
            return ModuleRef(name)
        return Opaque(f"module {name}")
    if inspect.isclass(value):
        if value.__name__ in _MODEL_CLASSES:
            return BoundModel(None, "model:" + value.__name__)
        return Opaque(f"class {value.__name__}")
    if inspect.isfunction(value):
        if value.__name__ in _MODEL_FUNCS:
            return BoundModel(None, "model:" + value.__name__)
        module = getattr(value, "__module__", "") or ""
        if module == "repro" or module.startswith("repro."):
            env = loader.module_env(module)
            if env is not None:
                found = env.resolve(value.__name__)
                if found is not _MISSING:
                    return found
        return Opaque(f"function {getattr(value, '__name__', '?')}")
    return Opaque(type(value).__name__)


def _callable_module(fn) -> tuple[ModuleContext, ModEnv, Loader,
                                  int, str]:
    """Parse *fn*'s source into a forced-rank-scope module context with
    its real closure and globals folded into the module env."""
    source = textwrap.dedent(inspect.getsource(fn))
    path = f"<{getattr(fn, '__module__', '?')}." \
           f"{getattr(fn, '__qualname__', repr(fn))}>"
    mod = ModuleContext(path, source, force_rank_scope=True)
    loader = Loader()
    modenv = loader.env_for_source(path, mod.tree)
    bindings: dict[str, object] = {}
    closure = getattr(fn, "__closure__", None) or ()
    freevars = getattr(fn.__code__, "co_freevars", ())
    for name, cell in zip(freevars, closure):
        try:
            bindings[name] = _wrap_foreign(cell.cell_contents, loader)
        except ValueError:  # empty cell
            continue
    fn_globals = getattr(fn, "__globals__", {})
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Name) and node.id in fn_globals \
                and node.id not in bindings:
            bindings[node.id] = _wrap_foreign(fn_globals[node.id],
                                              loader)
    modenv._cache.update(bindings)
    try:
        _lines, start = inspect.getsourcelines(fn)
    except (OSError, TypeError):
        start = 1
    return mod, modenv, loader, start, path


def extract_callable(fn, *, nranks: int) -> list[InstGraph]:
    """Extract the comm graphs of a job callable at one world size
    (the conformance mode's static half)."""
    mod, modenv, loader, _start, _path = _callable_module(fn)
    roots = _root_functions(mod)
    graphs: list[InstGraph] = []
    for root in roots:
        for result in _extract_root(loader, mod, modenv, root, nranks):
            graphs.append(result.graph)
    return graphs


def verify_callable(fn, *, sizes=DEFAULT_SIZES) -> VerifyResult:
    """Verify one job function (the ``api.verify_job`` backend)."""
    try:
        mod, modenv, loader, start, path = _callable_module(fn)
    except (OSError, TypeError) as exc:
        raise ValueError(
            f"cannot verify {fn!r}: its source is not retrievable "
            "(REPL/exec-defined functions have none; define the "
            "workload in a file)") from exc
    issues: list[GraphIssue] = []
    graphs: list[InstGraph] = []
    notes: list[str] = []
    for root in _root_functions(mod):
        for nranks in sizes:
            for result in _extract_root(loader, mod, modenv, root,
                                        nranks):
                graphs.append(result.graph)
                notes.extend(result.graph.notes)
                if result.graph.inapplicable:
                    continue
                issues.extend(check_graph(result.graph))
                issues.extend(taint.check_sinks(result.sinks))
                issues.extend(taint.check_wire(result.wires))
                issues.extend(taint.check_seal_log(result.seals))
    findings = _issues_to_findings(issues, path)
    deduped: list[Finding] = []
    seen: set[tuple] = set()
    for finding in sorted(findings,
                          key=lambda f: (f.path, f.line, f.col, f.rule)):
        key = (finding.rule, finding.path, finding.line)
        if key in seen:
            continue
        seen.add(key)
        deduped.append(finding)
    file_allow, line_allow = _parse_suppressions(mod.lines)
    deduped = [f for f in deduped
               if not _suppressed(f, mod.lines, file_allow, line_allow)]
    # re-anchor to the defining file's line numbers
    deduped = [Finding(rule=f.rule, severity=f.severity, path=f.path,
                       line=f.line + start - 1, col=f.col,
                       message=f.message, hint=f.hint)
               for f in deduped]
    return VerifyResult(findings=deduped, graphs=graphs, notes=notes)


__all__ = [
    "DEFAULT_SIZES",
    "VERIFY_PATHS",
    "VerifyResult",
    "extract_callable",
    "verify_callable",
    "verify_paths",
    "verify_source",
]
