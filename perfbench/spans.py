"""Host-time tracing of the simulator's layers, installed from outside.

The traced pass wraps each layer's entry points (class methods and
module-level kernels of ``repro``) with span bookkeeping, runs the same
cells as the untraced pass, and removes every wrapper afterwards.
Nothing in ``src/`` knows about it.

Attribution model
-----------------
Wall time is one timeline.  Every span boundary closes the interval
since the previous boundary and charges it to exactly one bucket:

- the innermost open span of the thread that recorded the previous
  boundary: that layer's *self* time.  Rank-program code (the ``app``
  pseudo-layer) and boundaries with no span open go to ``other``;
- ``handoff`` while a thread-runtime handoff is in flight: from a rank
  entering ``SimProcess._block`` (or the engine thread entering
  ``Scheduler.wake_now`` on a thread rank) until the next thread records
  a boundary.

Each OS thread keeps its own span stack.  A thread blocked in a handoff
records nothing, so its open spans are paused.  Generator entry points
are timed per resume step, not at creation.  Because the buckets
partition the timeline, ``sum(self_s) + handoff_wait_s + other_s`` equals
the traced wall time measured around the pass, up to the intervals
before the first and after the last boundary (:data:`SUM_TOLERANCE`).

Spans are kept in memory (compact arrays, at most :data:`MAX_SPANS`)
and written out by :meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from array import array
from pathlib import Path

#: Layers, named by module, in report order.
LAYERS = (
    "des.engine",
    "des.process",
    "des.flows",
    "des.resources",
    "simmpi.comm",
    "simmpi.transport",
    "simmpi.matching",
    "simmpi.collectives",
    "simmpi.resilience",
    "encmpi.context",
    "encmpi.pipeline",
    "crypto.aead",
    "models.cpu",
    "models.cost",
)
#: pseudo-layer for rank-program code (reported inside ``run.other_s``)
APP = "app"
_NAMES = LAYERS + (APP,)
_INDEX = {name: i for i, name in enumerate(_NAMES)}

#: the accounting identity tolerates this much wall time outside every
#: bucket (head and tail of the pass): a share of the traced wall time
#: plus an absolute floor in seconds
SUM_TOLERANCE = (0.01, 0.005)

#: span-log capacity; later spans are still timed and counted, only not
#: logged (``dropped`` in the dump header says how many)
MAX_SPANS = 1_000_000

#: raw per-layer counters, in report order (derived ratios: Tracer.metrics)
COUNTERS = {
    "des.engine": ("events",),
    "des.process": ("wakes",),
    "des.flows": ("transfers", "refills", "flows_refilled"),
    "des.resources": ("acquires",),
    "simmpi.comm": ("calls",),
    "simmpi.transport": ("sends",),
    "simmpi.matching": ("posts", "deliveries"),
    "simmpi.collectives": ("calls",),
    "simmpi.resilience": ("retransmits", "nacks"),
    "encmpi.context": ("seals", "opens", "auth_failures"),
    "encmpi.pipeline": ("chunks",),
    "crypto.aead": ("mb",),
    "models.cpu": ("submits",),
    "models.cost": ("lookups",),
}

#: attribute marking every wrapper this module creates
_MARK = "__perfbench_wrapper__"


class Tracer:
    """Span stacks per thread, one attribution timeline, and counters."""

    def __init__(self) -> None:
        self.self_s = [0.0] * len(_NAMES)
        self.handoff_wait = 0.0
        self.other = 0.0
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._stacks: dict[int, list] = {}
        self._active: int | None = None
        self._handoff = False
        self._started = False
        self._last = 0.0
        # span log: layer id, thread slot, start, end, parent span index
        self._log = (array("B"), array("H"), array("d"), array("d"),
                     array("l"))
        self._threads: dict[int, int] = {}
        self.dropped = 0

    # -- counters -------------------------------------------------------

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def top_layer(self) -> int | None:
        """Layer id of the calling thread's innermost open span."""
        stack = self._stacks.get(threading.get_ident())
        return stack[-1][0] if stack else None

    # -- timeline -------------------------------------------------------

    def _charge(self, now: float) -> None:
        if self._started:
            dt = now - self._last
            if self._handoff:
                self.handoff_wait += dt
            else:
                stack = self._stacks.get(self._active)
                if stack:
                    self.self_s[stack[-1][0]] += dt
                else:
                    self.other += dt
        self._started = True
        self._last = now

    def enter(self, layer: int) -> None:
        tid = threading.get_ident()
        with self._lock:
            now = time.perf_counter()
            self._charge(now)
            self._active = tid
            self._handoff = False
            stack = self._stacks.setdefault(tid, [])
            layers, threads, starts, ends, parents = self._log
            idx = len(starts)
            if idx < MAX_SPANS:
                layers.append(layer)
                threads.append(self._threads.setdefault(tid, len(self._threads)))
                starts.append(now)
                ends.append(0.0)
                parents.append(stack[-1][1] if stack else -1)
            else:
                self.dropped += 1
                idx = -1
            stack.append((layer, idx))

    def exit(self) -> None:
        tid = threading.get_ident()
        with self._lock:
            now = time.perf_counter()
            self._charge(now)
            self._active = tid
            self._handoff = False
            _layer, idx = self._stacks[tid].pop()
            if idx >= 0:
                self._log[3][idx] = now

    def handoff_begin(self) -> None:
        with self._lock:
            self._charge(time.perf_counter())
            self._handoff = True

    def handoff_end(self) -> None:
        tid = threading.get_ident()
        with self._lock:
            self._charge(time.perf_counter())
            self._handoff = False
            self._active = tid

    def open_spans(self) -> int:
        return sum(len(s) for s in self._stacks.values())

    # -- results --------------------------------------------------------

    def accounted_s(self) -> float:
        """Everything the timeline charged: self + handoff + other."""
        return sum(self.self_s) + self.handoff_wait + self.other

    def other_s(self) -> float:
        return self.other + self.self_s[_INDEX[APP]]

    def layer_counts(self) -> dict[str, float]:
        """The raw per-layer counters (exact; used by the repeat check)."""
        return {f"{layer}.{name}": self.counts.get(f"{layer}.{name}", 0)
                for layer, names in COUNTERS.items() for name in names}

    def metrics(self, wall_traced: float, wall_untraced: float) -> dict:
        """Every per-layer metric, by name, as ``(value, unit)``."""
        c = self.counts.get
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[_INDEX[layer]], "s")
            for name in COUNTERS[layer]:
                out[f"{layer}.{name}"] = (c(f"{layer}.{name}", 0),
                                          "MB" if name == "mb" else "count")

        def ratio(num: str, den: str) -> float:
            d = c(den, 0)
            return c(num, 0) / d if d else 0.0

        out["des.process.handoff_wait_s"] = (self.handoff_wait, "s")
        out["des.flows.rate_change_ratio"] = (
            ratio("des.flows.rates_changed", "des.flows.flows_refilled"),
            "ratio")
        out["simmpi.transport.wire_mb"] = (c("simmpi.transport.wire_mb", 0),
                                           "MB")
        out["simmpi.transport.rendezvous_share"] = (
            ratio("simmpi.transport.rendezvous", "simmpi.transport.sends"),
            "ratio")
        out["simmpi.matching.unexpected_share"] = (
            ratio("simmpi.matching.unexpected", "simmpi.matching.deliveries"),
            "ratio")
        tracked = c("simmpi.resilience.tracked", 0)
        out["simmpi.resilience.first_try_ratio"] = (
            1.0 - c("simmpi.resilience.retried", 0) / tracked
            if tracked else 0.0, "ratio")
        aead_s = self.self_s[_INDEX["crypto.aead"]]
        mb = c("crypto.aead.mb", 0)
        out["crypto.aead.mb_per_s"] = (mb / aead_s if mb else 0.0, "MB/s")
        out["run.other_s"] = (self.other_s(), "s")
        out["run.trace_overhead"] = (wall_traced / wall_untraced - 1.0,
                                     "ratio")
        return out

    def dump(self, path: Path) -> None:
        """Write the span log: one JSON header line, then the raw arrays
        in header order (native byte order)."""
        names = ("layer", "thread", "start", "end", "parent")
        header = {
            "layers": list(_NAMES),
            "spans": len(self._log[0]),
            "dropped": self.dropped,
            "clock": "time.perf_counter, seconds",
            "byteorder": sys.byteorder,
            "fields": [[n, a.typecode, a.itemsize]
                       for n, a in zip(names, self._log)],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in self._log:
                arr.tofile(fh)


# ---------------------------------------------------------------------------
# wrappers.  Hooks: before(tracer, args) -> state, called before the span
# opens; after(tracer, args, result, state) -> result, called after the
# last step.
# ---------------------------------------------------------------------------


def _plain(tracer: Tracer, layer: int, fn, before=None, after=None):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        state = before(tracer, args) if before is not None else None
        enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if after is not None:
            result = after(tracer, args, result, state)
        return result

    setattr(wrapped, _MARK, True)
    return wrapped


def _stepped(tracer: Tracer, layer: int, fn, before=None, after=None):
    """Generator-function wrapper: one span per resume step."""
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        state = before(tracer, args) if before is not None else None
        gen = fn(*args, **kwargs)
        value = error = None
        while True:
            enter(layer)
            try:
                item = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                exit_()
                result = stop.value
                if after is not None:
                    result = after(tracer, args, result, state)
                return result
            except BaseException:
                exit_()
                raise
            exit_()
            error = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded into gen
                value, error = None, exc

    setattr(wrapped, _MARK, True)
    return wrapped


def _wrap(tracer: Tracer, layer: int, fn, before=None, after=None):
    if inspect.isgeneratorfunction(fn):
        return _stepped(tracer, layer, fn, before, after)
    return _plain(tracer, layer, fn, before, after)


# -- counter hooks -------------------------------------------------------


def _count(key: str):
    def before(tracer, _args):
        tracer.add(key)
    return before


def _count_entry(key: str, layer: str):
    """Count calls entering *layer* from outside it (not nested ones)."""
    lid = _INDEX[layer]

    def before(tracer, _args):
        if tracer.top_layer() != lid:
            tracer.add(key)
    return before


def _transport_send(tracer, args):
    tracer.add("simmpi.transport.sends")
    tracer.add("simmpi.transport.wire_mb", args[1].wire_bytes / 1e6)


def _transport_sent(tracer, args, result, _state):
    if "rendezvous_trigger" in args[1].info:
        tracer.add("simmpi.transport.rendezvous")
    return result


def _matching_deliver(tracer, args):
    tracer.add("simmpi.matching.deliveries")
    return args[0].pending_unexpected


def _matching_delivered(tracer, args, result, unexpected_before):
    if args[0].pending_unexpected > unexpected_before:
        tracer.add("simmpi.matching.unexpected")
    return result


def _fill_done(tracer, _args, rates, _state):
    tracer.add("des.flows.refills")
    tracer.add("des.flows.flows_refilled", len(rates))
    tracer.add("des.flows.rates_changed",
               sum(1 for f, r in rates.items() if r != f.rate))
    return rates


def _retry_noted(tracer, args):
    tracer.add("simmpi.resilience.retransmits")
    if args[2] == 1:  # first retransmission of this message
        tracer.add("simmpi.resilience.retried")


def _aead_seal(tracer, args):
    tracer.add("crypto.aead.mb", len(args[2]) / 1e6)


def _aead_open(tracer, args):
    tracer.add("crypto.aead.mb", max(0, len(args[2]) - 16) / 1e6)


def _reseal_made(tracer, _args, reseal, _state):
    return _wrap(tracer, _INDEX["encmpi.context"], reseal,
                 _count("encmpi.context.seals"))


# ---------------------------------------------------------------------------
# targets: (module, class or None for module functions, attributes, layer,
# {attribute or "*": (before, after)})
# ---------------------------------------------------------------------------

_COMM_API = (
    "isend", "co_isend", "send", "co_send", "irecv", "recv", "co_recv",
    "sendrecv", "co_sendrecv", "waitall", "co_waitall", "barrier",
    "co_barrier", "bcast", "co_bcast", "gather", "co_gather", "scatter",
    "co_scatter", "allgather", "co_allgather", "alltoall", "co_alltoall",
    "alltoallv", "co_alltoallv", "reduce", "co_reduce", "allreduce",
    "co_allreduce", "reduce_scatter", "co_reduce_scatter", "scan",
    "co_scan", "split", "co_split", "iprobe", "probe", "co_probe",
)
_ENC_API = (
    "__init__", "isend", "co_isend", "send", "co_send", "irecv", "recv",
    "co_recv", "waitall", "co_waitall", "sendrecv", "co_sendrecv", "bcast",
    "co_bcast", "allgather", "co_allgather", "alltoall", "co_alltoall",
    "alltoallv", "co_alltoallv",
)
_COST_NET = (
    "pingpong_oneway_time", "stream_bandwidth", "send_overhead",
    "recv_overhead", "proto_delay", "rendezvous_handshake", "is_eager",
    "nic_service_time", "shm_oneway_time", "shm_delivery_delay",
    "shm_overhead",
)
_COST_LIB = ("encdec_throughput", "encrypt_time", "decrypt_time",
             "_op_time", "encdec_time")
_COLLECTIVES = ("bcast", "gather", "scatter", "allgather", "alltoall",
                "alltoallv", "reduce", "allreduce", "reduce_scatter", "scan",
                "barrier")


def _targets():
    lookups = (_count_entry("models.cost.lookups", "models.cost"), None)
    return [
        ("repro.des.engine", "Engine", ("run",), "des.engine", {}),
        ("repro.des.engine", "Engine", ("schedule", "schedule_at"),
         "des.engine", {"*": (_count("des.engine.events"), None)}),
        ("repro.des.process", "Scheduler", ("run", "wake_soon"),
         "des.process", {}),
        ("repro.des.process", "SimEvent", ("wait",), "des.process", {}),
        ("repro.des.flows", "FlowNetwork",
         ("__init__", "_run_pending_rebalance", "_fire_completions"),
         "des.flows", {}),
        ("repro.des.flows", "FlowNetwork", ("transfer",), "des.flows",
         {"*": (_count("des.flows.transfers"), None)}),
        ("repro.des.flows", None, ("_progressive_fill",), "des.flows",
         {"*": (None, _fill_done)}),
        ("repro.des.resources", "Resource", ("co_acquire",),
         "des.resources", {"*": (_count("des.resources.acquires"), None)}),
        ("repro.des.resources", "Resource", ("acquire", "release"),
         "des.resources", {}),
        ("repro.des.resources", "WorkPool", ("submit", "_finish"),
         "des.resources", {}),
        ("repro.simmpi.comm", "CommHandle", _COMM_API, "simmpi.comm",
         {"*": (_count_entry("simmpi.comm.calls", "simmpi.comm"), None)}),
        ("repro.simmpi.request", "Request", ("wait", "co_wait"),
         "simmpi.comm", {}),
        ("repro.simmpi.transport", "Transport", ("co_isend",),
         "simmpi.transport", {"*": (_transport_send, _transport_sent)}),
        ("repro.simmpi.transport", "Transport",
         ("isend", "_start_flow", "_deliver_after", "_try_deliver",
          "_deliver_now"), "simmpi.transport", {}),
        ("repro.simmpi.matching", "MatchingEngine", ("post_recv",),
         "simmpi.matching", {"*": (_count("simmpi.matching.posts"), None)}),
        ("repro.simmpi.matching", "MatchingEngine", ("deliver",),
         "simmpi.matching", {"*": (_matching_deliver, _matching_delivered)}),
        ("repro.simmpi.matching", "MatchingEngine", ("post_probe", "peek"),
         "simmpi.matching", {}),
        ("repro.simmpi.collectives", None, _COLLECTIVES,
         "simmpi.collectives",
         {"*": (_count_entry("simmpi.collectives.calls",
                             "simmpi.collectives"), None)}),
        ("repro.simmpi.resilience", "ReliabilityManager",
         ("__init__", "track", "arm", "should_deliver", "on_delivered",
          "on_recv_failure", "_on_timeout", "_on_ack", "report",
          "_note_retry"), "simmpi.resilience",
         {"track": (_count("simmpi.resilience.tracked"), None),
          "on_recv_failure": (_count("simmpi.resilience.nacks"), None),
          "_note_retry": (_retry_noted, None)}),
        ("repro.encmpi.context", "EncryptedComm", _ENC_API,
         "encmpi.context", {}),
        ("repro.encmpi.context", "EncryptedComm",
         ("_co_encrypt_charged", "_co_decrypt_charged", "_make_reseal",
          "_record_auth_fail"), "encmpi.context",
         {"_co_encrypt_charged": (_count("encmpi.context.seals"), None),
          "_co_decrypt_charged": (_count("encmpi.context.opens"), None),
          "_make_reseal": (None, _reseal_made),
          "_record_auth_fail": (_count("encmpi.context.auth_failures"),
                                None)}),
        ("repro.encmpi.context", "EncryptedRequest", ("wait", "co_wait"),
         "encmpi.context", {}),
        ("repro.encmpi.pipeline", "ChunkPipeline",
         ("__init__", "isend", "irecv", "_recv_wait", "_seal_chunk",
          "_open_chunk", "_open_chunk_reliable"), "encmpi.pipeline",
         {"_seal_chunk": (_count("encmpi.pipeline.chunks"), None)}),
        ("repro.encmpi.pipeline", "ChunkedSendRequest", ("wait",),
         "encmpi.pipeline", {}),
        ("repro.encmpi.pipeline", "ChunkedRecvRequest", ("wait",),
         "encmpi.pipeline", {}),
        ("repro.crypto.aead", None, ("get_aead",), "crypto.aead", {}),
        ("repro.models.cpu", "CoreAllocator", ("__init__",), "models.cpu",
         {}),
        ("repro.models.cpu", "CoreAllocator", ("submit",), "models.cpu",
         {"*": (_count("models.cpu.submits"), None)}),
        ("repro.models.network", "NetworkModel", _COST_NET, "models.cost",
         {"*": lookups}),
        ("repro.models.network", "NoiseModel", ("perturb_delay",),
         "models.cost", {"*": lookups}),
        ("repro.models.network", None, ("get_network", "resolve_network"),
         "models.cost", {"*": lookups}),
        ("repro.models.cryptolib", "CryptoLibraryProfile", _COST_LIB,
         "models.cost", {"*": lookups}),
        ("repro.models.cryptolib", None,
         ("get_profile", "profile_for_network"), "models.cost",
         {"*": lookups}),
    ]


def _aead_backends() -> list[type]:
    """The registered AEAD backend classes (they do the real byte work)."""
    from repro.crypto.aead import available_backends, get_aead

    classes: list[type] = []
    for name in available_backends():
        cls = type(get_aead(bytes(32), name))
        if cls not in classes:
            classes.append(cls)
    return classes


class Installation:
    """The wrappers of one traced pass; :meth:`remove` takes them out."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: (owner, attribute, original raw object or None if inherited)
        self._patched: list[tuple[object, str, object]] = []
        #: targets this version of the code does not have (never timed)
        self.missing: list[str] = []

    def _patch(self, owner, attr: str, wrapped) -> None:
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
        else:
            raw = owner.__dict__[attr]
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _patch_function(self, module, attr: str, layer: int, hooks) -> None:
        fn = getattr(module, attr)
        wrapped = _wrap(self.tracer, layer, fn, *hooks)
        # rebind it in every repro module that imported it by name
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and mod.__dict__.get(attr) is fn):
                self._patch(mod, attr, wrapped)

    def _patch_method(self, cls: type, attr: str, layer: int, hooks) -> None:
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(_wrap(self.tracer, layer, raw.__func__,
                                         *hooks))
        elif callable(raw) and not isinstance(raw, (classmethod, type)):
            wrapped = _wrap(self.tracer, layer, raw, *hooks)
        else:
            self.missing.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")
            return
        self._patch(cls, attr, wrapped)

    def install(self) -> "Installation":
        backends = _aead_backends()  # before get_aead itself is wrapped
        for modname, clsname, attrs, layer, hooks in _targets():
            lid = _INDEX[layer]
            module = importlib.import_module(modname)
            owner = getattr(module, clsname, None) if clsname else module
            for attr in attrs:
                hook = hooks.get(attr, hooks.get("*", (None, None)))
                if owner is None or not hasattr(owner, attr):
                    self.missing.append(f"{modname}.{clsname or ''}.{attr}")
                elif clsname:
                    self._patch_method(owner, attr, lid, hook)
                else:
                    self._patch_function(owner, attr, lid, hook)
        aead = _INDEX["crypto.aead"]
        for cls in backends:
            self._patch_method(cls, "seal", aead, (_aead_seal, None))
            self._patch_method(cls, "open", aead, (_aead_open, None))
        self._install_scheduler()
        return self

    def _install_scheduler(self) -> None:
        """Wake dispatch with handoff markers, and the ``app`` span
        around every rank program."""
        from repro.des import process

        tracer = self.tracer
        layer = _INDEX["des.process"]
        thread_proc = process.SimProcess

        block = process.SimProcess._block

        @functools.wraps(block)
        def _block(proc, reason):
            tracer.handoff_begin()
            try:
                return block(proc, reason)
            finally:
                tracer.handoff_end()

        wake_now = process.Scheduler.wake_now

        @functools.wraps(wake_now)
        def wake(sched, proc):
            tracer.add("des.process.wakes")
            tracer.enter(layer)
            if type(proc) is thread_proc:
                # until the rank thread resumes, this is handoff time
                tracer.handoff_begin()
            try:
                return wake_now(sched, proc)
            finally:
                tracer.exit()

        spawn = process.Scheduler.spawn
        app = _INDEX[APP]

        @functools.wraps(spawn)
        def spawn_app(sched, fn, *args, **kwargs):
            return spawn(sched, _wrap(tracer, app, fn), *args, **kwargs)

        for owner, attr, wrapped in (
            (process.SimProcess, "_block", _block),
            (process.Scheduler, "wake_now", wake),
            (process.Scheduler, "spawn", spawn_app),
        ):
            setattr(wrapped, _MARK, True)
            self._patch(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._patched.clear()


def leftover_wrappers() -> list[str]:
    """Every wrapper still reachable from a ``repro`` module or class.

    Scans all loaded ``repro`` modules' globals and the attributes of
    the classes they define, independently of what was installed.
    """
    def marked(obj) -> bool:
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        return getattr(obj, _MARK, False) is True

    found = []
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if not name.startswith("repro"):
            continue
        for key, value in list(mod.__dict__.items()):
            if marked(value):
                found.append(f"{name}.{key}")
            elif isinstance(value, type) and value.__module__ == name:
                found.extend(f"{name}.{value.__qualname__}.{attr}"
                             for attr, member in list(value.__dict__.items())
                             if marked(member))
    return found
