"""Determinism rules (DET0xx).

The simulator's value rests on bit-exact reproducibility (the
golden-trace harness pins run-to-run digest equality), so anything that
injects wall-clock time, unseeded randomness, or hash-order iteration
into a rank program or a result-merge path is a hazard.
"""

from __future__ import annotations

import ast

from repro.analysis.astutils import ModuleContext, call_name
from repro.analysis.findings import rule

_TIME_FNS = frozenset((
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns",
))
_DATETIME_FNS = frozenset(("now", "utcnow", "today"))

#: random-module calls that are fine in rank code
_RANDOM_OK = frozenset(("Random", "SystemRandom", "seed", "getstate",
                        "setstate"))

#: functions whose name marks them as result-merge paths even without a
#: rank context parameter
_MERGE_NAME_PARTS = ("merge", "combine", "collect_results", "accumulate")


def _import_aliases(mod: ModuleContext, module: str) -> tuple[set, dict]:
    """(aliases of ``import module``, {local name: member} of
    ``from module import member``)."""
    aliases: set[str] = set()
    members: dict[str, str] = {}
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == module:
                    aliases.add(item.asname or item.name)
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            for item in node.names:
                members[item.asname or item.name] = item.name
    return aliases, members


def _wall_clock_calls(mod: ModuleContext, calls):
    """Yield ``(node, what)`` for every wall-clock read among *calls*
    (``time.time()``-family and ``datetime`` now/utcnow/today)."""
    time_aliases, time_members = _import_aliases(mod, "time")
    _dt_aliases, dt_members = _import_aliases(mod, "datetime")
    for node in calls:
        name = call_name(node)
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id in time_aliases \
                    and name in _TIME_FNS:
                yield (node, f"time.{name}()")
            elif name in _DATETIME_FNS and "datetime" in ast.dump(base):
                yield (node, f"datetime {name}()")
        elif isinstance(func, ast.Name):
            if time_members.get(func.id) in _TIME_FNS:
                yield (node, f"time.{time_members[func.id]}()")
            elif dt_members.get(func.id) == "datetime" and \
                    name in _DATETIME_FNS:
                yield (node, f"datetime.{name}()")


@rule(
    "DET001",
    "wall clock in rank code",
    severity="error",
    summary="a rank program reads the host's wall clock — virtual and "
            "real time are unrelated, and the value differs run to run",
    hint="use ctx.now (MPI_Wtime in virtual seconds) inside simulated "
         "ranks; wall-clock timing belongs in host-side harness code",
    grounding="the DES engine owns time (repro.des.engine); golden "
              "traces assume timestamps are pure functions of the job",
)
def check_wall_clock(mod: ModuleContext):
    for node, what in _wall_clock_calls(mod, mod.walk_rank(ast.Call)):
        yield (node, f"{what} in a rank program")


@rule(
    "DET002",
    "unseeded randomness in rank code",
    severity="error",
    summary="a rank program draws from the global random module — "
            "unseeded, and shared across every rank in the process",
    hint="derive a per-rank generator, e.g. rng = "
         "random.Random(ctx.rank), so runs replay bit-exactly",
    grounding="every rank runs in one host process; global random "
              "state makes results depend on rank interleaving",
)
def check_unseeded_random(mod: ModuleContext):
    aliases, members = _import_aliases(mod, "random")
    for node in mod.walk_rank(ast.Call):
        name = call_name(node)
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id in aliases \
                    and name not in _RANDOM_OK:
                yield (node, f"global random.{name}() in a rank program")
        elif isinstance(func, ast.Name):
            member = members.get(func.id)
            if member is not None and member not in _RANDOM_OK:
                yield (node, f"global random.{member}() in a rank program")


def _merge_functions(mod: ModuleContext):
    for node in ast.walk(mod.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                any(part in node.name.lower()
                    for part in _MERGE_NAME_PARTS):
            yield node


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    return False


@rule(
    "DET003",
    "set-order iteration",
    severity="warning",
    summary="iterating a set in a rank program or result-merge path — "
            "element order depends on hash seeding, not on the data",
    hint="iterate sorted(the_set) (or keep a dict, whose order is "
         "insertion order) anywhere the order can reach a result",
    grounding="str hashes are salted per process (PYTHONHASHSEED); the "
              "campaign runner asserts byte-identical merge output",
)
def check_set_iteration(mod: ModuleContext):
    seen: set[int] = set()
    scopes = list(mod.rank_roots) + list(_merge_functions(mod))
    for scope in scopes:
        for node in ast.walk(scope):
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield (node, "for-loop over a set expression")
            elif isinstance(node, ast.comprehension) and \
                    _is_set_expr(node.iter):
                # comprehension nodes carry no lineno; anchor on iter
                yield (node.iter, "comprehension over a set expression")


#: modules whose every code path is the analytical prediction model
#: (matched against the lint path)
_MODEL_PATH_PARTS = ("models/predict",)


@rule(
    "DET004",
    "wall clock in the prediction model",
    severity="error",
    summary="the prediction model reads the host's wall clock — a "
            "prediction must be a pure function of the query and the "
            "simulator's cost objects, or its answer differs run to run",
    hint="derive every predicted quantity from the query and the cost "
         "model; timestamps belong to the caller, stamped after "
         "predict() returns",
    grounding="`make check-artifacts` byte-compares a fresh "
              "predict-and-validate run with the committed "
              "results/predict.*",
)
def check_predict_wall_clock(mod: ModuleContext):
    path = mod.path.replace("\\", "/")
    if not any(part in path for part in _MODEL_PATH_PARTS):
        return
    calls = (n for n in ast.walk(mod.tree) if isinstance(n, ast.Call))
    for node, what in _wall_clock_calls(mod, calls):
        yield (node, f"{what} in the prediction model")
