"""Simulated processes: generator ranks, with threads for plain functions.

A rank is a resumable generator stepped directly by the engine callback
that wakes it.  Every operation that blocks in virtual time is written
once, in generator style, as a ``co_*`` method::

    def co_program(ctx):
        yield from ctx.comm.co_send(b"x", 1)   # may yield SimEvents
        yield _Sleep(1e-6)                     # advance virtual time
        return ctx.now

The blocking spelling of each operation (``comm.send``,
``request.wait`` …) is not written by hand: :func:`blocking` derives it
from the ``co_*`` form, and :func:`run_blocking` interprets the
generator on the calling thread rank.  Two runtimes step the same
generators:

- **coroutines** — :meth:`Scheduler._step_coro` sends values straight
  into the generator from the engine context: no locks, no threads, one
  heap entry per wake, O(ranks) memory.  Every in-repo workload runs
  here.
- **threads** — a rank on its own OS thread with strict one-at-a-time
  handoff.  It exists for plain-function ranks (NAS kernels, examples,
  user code written against the blocking API), and
  ``runtime="threads"`` forces generator ranks onto it as the parity
  reference: :func:`run_blocking` translates ``yield event`` into
  ``event.wait()`` and ``yield _Sleep(d)`` into ``proc.sleep(d)``.

Both runtimes issue *identical* ``engine.schedule`` call sequences (one
entry per sleep, one per event wake via :meth:`Scheduler.wake_soon`;
completed waits return without yielding), so artifacts are
byte-identical between them — ``make check-artifacts`` regenerates
eleven experiments on threads and byte-compares them with the
committed artifacts.
The ``runtime="auto"`` default picks per function, so both styles
coexist in one simulation.
"""

from __future__ import annotations

import functools
import threading
from types import GeneratorType
from typing import Any, Callable

from repro.des.engine import Engine

#: runtimes a Scheduler (or EngineOptions) can name
RUNTIMES = ("auto", "threads", "coroutines")


class ProcessFailed(RuntimeError):
    """A simulated process raised; re-raised in the engine's thread."""


class SimEvent:
    """A one-shot future in virtual time.

    Processes ``wait()`` on it (threads) or ``yield`` it (coroutines);
    any code (process or engine callback) may ``succeed(value)`` or
    ``fail(exc)`` it exactly once.  All waiters are woken at the virtual
    time of completion, in FIFO order.
    """

    __slots__ = ("_scheduler", "_done", "_value", "_exc", "_waiters", "callbacks")

    def __init__(self, scheduler: "Scheduler"):
        self._scheduler = scheduler
        self._done = False
        self._value: Any = None
        self._exc: BaseException | None = None
        self._waiters: list[Any] = []
        #: callbacks invoked (in the engine context) upon completion
        self.callbacks: list[Callable[["SimEvent"], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise RuntimeError("SimEvent not completed")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None) -> None:
        self._complete(value, None)

    def fail(self, exc: BaseException) -> None:
        self._complete(None, exc)

    def _complete(self, value: Any, exc: BaseException | None) -> None:
        if self._done:
            raise RuntimeError("SimEvent completed twice")
        self._done = True
        self._value = value
        self._exc = exc
        # Most events complete with nobody parked and no callback, and
        # an empty list can stay in place.
        waiters = self._waiters
        if waiters:
            self._waiters = []
            for proc in waiters:
                self._scheduler.wake_soon(proc)
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for cb in callbacks:
                cb(self)

    def wait(self) -> Any:
        """Block the calling process until completion; return the value."""
        proc = self._scheduler.current()
        if not self._done:
            self._waiters.append(proc)
            proc._block(self)  # formatted lazily in deadlock reports
        if self._exc is not None:
            raise self._exc
        return self._value


class _Sleep:
    """Yielded by coroutine rank code to advance its virtual time."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError(f"negative sleep: {delay}")
        self.delay = delay


def run_blocking(scheduler: "Scheduler", gen: Any) -> Any:
    """Drive a ``co_*`` generator with thread-blocking semantics.

    ``yield event`` becomes ``event.wait()`` and ``yield _Sleep(d)``
    becomes ``current().sleep(d)``, so the engine sees the exact
    schedule-call sequence the coroutine runtime issues.
    """
    try:
        item = gen.send(None)
        while True:
            try:
                if type(item) is _Sleep:
                    scheduler.current().sleep(item.delay)
                    value = None
                else:
                    value = item.wait()
            except BaseException as exc:  # noqa: BLE001 - forwarded into the coroutine
                item = gen.throw(exc)
            else:
                item = gen.send(value)
    except StopIteration as stop:
        return stop.value


def blocking(co_method: Callable[..., Any]) -> Callable[..., Any]:
    """Derive the blocking spelling of a ``co_*`` generator method.

    In a class body, ``wait = blocking(co_wait)`` makes ``obj.wait(...)``
    run ``obj.co_wait(...)`` through :func:`run_blocking` on the calling
    thread rank.  The owner class exposes the job's scheduler as
    ``_scheduler``.  The ``co_*`` method is looked up on the instance at
    call time, so the two spellings can never drift apart.
    """
    co_name = co_method.__name__

    @functools.wraps(co_method)
    def method(self, *args: Any, **kwargs: Any) -> Any:
        return run_blocking(self._scheduler,
                            getattr(self, co_name)(*args, **kwargs))

    name = co_name.replace("co_", "", 1)
    method.__name__ = name
    method.__qualname__ = co_method.__qualname__[:-len(co_name)] + name
    return method


class SimProcess:
    """One simulated process on its own OS thread (the thread runtime).

    Handoff uses raw ``threading.Lock`` objects (acquired at creation,
    so the first ``acquire`` blocks) rather than semaphores: the strict
    one-runnable-thread alternation guarantees release/acquire pairs
    never race, and a raw lock is a single C call.
    """

    def __init__(
        self,
        scheduler: "Scheduler",
        fn: Callable[..., Any],
        args: tuple,
        name: str,
    ):
        self._scheduler = scheduler
        self.name = name
        self._fn = fn
        self._args = args
        # Handoff lock: created held, so the thread's first acquire
        # blocks until the scheduler wakes it.  Release/acquire strictly
        # alternate under the one-runnable-thread discipline.
        self._resume = threading.Lock()
        self._resume.acquire()
        self._blocked_on: object | None = "not started"
        self.finished = SimEvent(scheduler)
        self.result: Any = None
        self._thread = threading.Thread(
            target=self._bootstrap, name=f"sim:{name}", daemon=True
        )

    # -- process-side API ------------------------------------------------

    def sleep(self, delay: float) -> None:
        """Advance this process's virtual time by *delay* seconds."""
        if delay < 0:
            raise ValueError(f"negative sleep: {delay}")
        if delay == 0:
            # Still yield through the heap so same-time events interleave
            # deterministically by schedule order.
            pass
        self._scheduler.engine.schedule(delay, self._scheduler.wake_now, self)
        self._block("sleep")

    # -- scheduler-side machinery -----------------------------------------

    def _bootstrap(self) -> None:
        self._resume.acquire()  # wait for the first wake
        sched = self._scheduler
        try:
            self.result = self._fn(*self._args)
        except BaseException as exc:  # noqa: BLE001 - forwarded to engine
            sched._on_process_exit(self, exc)
        else:
            sched._on_process_exit(self, None)

    def _block(self, reason: object) -> None:
        """Hand control back to the engine and sleep until woken.

        *reason* may be any object; it is only formatted (str()) if the
        simulation deadlocks and a report is generated.
        """
        self._blocked_on = reason
        self._scheduler._engine_lock.release()
        self._resume.acquire()
        self._blocked_on = None

    def __repr__(self) -> str:
        return f"<SimProcess {self.name}>"


class CoroProcess:
    """One simulated process as a resumable generator (no OS thread).

    Exposes the same observable surface the deadlock reporter and the
    sanitizer's diagnosis read from thread processes: ``name``,
    ``finished``, ``result`` and ``_blocked_on``.
    """

    __slots__ = (
        "_scheduler", "name", "_gen", "_blocked_on", "_waiting_on",
        "finished", "result",
    )

    def __init__(
        self,
        scheduler: "Scheduler",
        fn: Callable[..., Any],
        args: tuple,
        name: str,
    ):
        self._scheduler = scheduler
        self.name = name
        self._gen = fn(*args)
        if not isinstance(self._gen, GeneratorType):
            raise TypeError(
                f"coroutine process {name!r} needs a generator function; "
                f"{fn!r} returned {type(self._gen).__name__}"
            )
        self._blocked_on: object | None = "not started"
        #: the SimEvent whose value/exception is fed in at the next step
        self._waiting_on: SimEvent | None = None
        self.finished = SimEvent(scheduler)
        self.result: Any = None

    # The blocking spellings must never run inside a coroutine rank;
    # failing loudly here turns a silent engine-thread deadlock into a
    # one-line migration hint.

    def sleep(self, delay: float) -> None:
        raise RuntimeError(
            f"{self.name} is a coroutine rank: yield _Sleep({delay!r}) "
            "(or use the co_* API) instead of calling sleep()"
        )

    def _block(self, reason: object) -> None:
        raise RuntimeError(
            f"{self.name} is a coroutine rank: yield the event "
            f"({reason}) instead of calling wait()"
        )

    def _close(self) -> None:
        """Tear down the suspended generator (failed/deadlocked runs)."""
        if not self.finished.done:
            try:
                self._gen.close()
            except BaseException:  # noqa: BLE001 - teardown is best-effort
                pass

    def __repr__(self) -> str:
        return f"<CoroProcess {self.name}>"


class Scheduler:
    """Owns the engine and dispatches wakes to either runtime.

    *runtime* selects how :meth:`spawn` runs a process function:

    - ``"threads"`` — always on an OS thread; generator functions are
      interpreted there by :func:`run_blocking`.
    - ``"coroutines"`` — generator functions step in the engine context;
      plain functions are rejected (they would block the engine thread).
    - ``"auto"`` (default) — generator functions become coroutines,
      plain functions get threads.
    """

    def __init__(
        self,
        engine: Engine | None = None,
        *,
        runtime: str = "auto",
        handoff_check: bool = False,
    ):
        if runtime not in RUNTIMES:
            raise ValueError(
                f"unknown runtime {runtime!r}; valid: " + ", ".join(RUNTIMES)
            )
        self.engine = engine or Engine()
        self.engine._blocked_reporter = self._blocked_processes
        self.runtime = runtime
        self.handoff_check = handoff_check
        #: process wakes dispatched so far (both runtimes)
        self.handoffs = 0
        # Engine-side handoff lock, created held (see SimProcess._resume).
        self._engine_lock = threading.Lock()
        self._engine_lock.acquire()
        self._current: SimProcess | CoroProcess | None = None
        self._procs: list[SimProcess | CoroProcess] = []
        self._failure: BaseException | None = None

    # -- public API --------------------------------------------------------

    def spawn(
        self, fn: Callable[..., Any], *args: Any, name: str | None = None
    ) -> SimProcess | CoroProcess:
        """Create a process; it starts at the current virtual time."""
        import inspect

        name = name or f"proc{len(self._procs)}"
        is_gen = inspect.isgeneratorfunction(fn)
        if self.runtime == "coroutines" and not is_gen:
            raise TypeError(
                f"runtime='coroutines' needs generator rank functions, but "
                f"{getattr(fn, '__qualname__', fn)!r} is a plain function; "
                "run it with runtime='threads' (or 'auto') instead"
            )
        proc: SimProcess | CoroProcess
        if is_gen and self.runtime in ("coroutines", "auto"):
            proc = CoroProcess(self, fn, args, name)
            self._procs.append(proc)
        else:
            run_fn = fn
            if is_gen:
                # threads runtime: interpret the generator on the thread
                def run_fn(*a: Any) -> Any:  # noqa: F811
                    return run_blocking(self, fn(*a))

            proc = SimProcess(self, run_fn, args, name)
            self._procs.append(proc)
            proc._thread.start()
        self.engine.schedule(0.0, self.wake_now, proc)
        return proc

    def run(self, until: float | None = None) -> float:
        """Run the simulation to completion (or *until*); return final time."""
        try:
            result = self.engine.run(until)
        except Exception:
            # A process failure often strands its peers in blocked state;
            # the root cause is more useful than the secondary deadlock.
            self._close_coros()
            if self._failure is not None:
                failure, self._failure = self._failure, None
                raise ProcessFailed(
                    f"simulated process raised: {failure!r}"
                ) from failure
            raise
        if self._failure is not None:
            self._close_coros()
            failure, self._failure = self._failure, None
            raise ProcessFailed(f"simulated process raised: {failure!r}") from failure
        return result

    def event(self) -> SimEvent:
        return SimEvent(self)

    def current(self) -> SimProcess | CoroProcess:
        if self._current is None:
            raise RuntimeError("not inside a simulated process")
        return self._current

    @property
    def now(self) -> float:
        return self.engine.now

    def timeout(self, delay: float) -> SimEvent:
        """An event that succeeds *delay* seconds from now."""
        ev = self.event()
        self.engine.schedule(delay, ev.succeed, None)
        return ev

    # -- handoff internals ---------------------------------------------------

    def wake_now(self, proc: SimProcess | CoroProcess) -> None:
        """(Engine context) transfer control to *proc* until it blocks."""
        if self._failure is not None:
            return  # simulation is being torn down
        self.handoffs += 1
        if self.handoff_check and proc.finished.done:
            raise RuntimeError(f"woke finished process {proc.name}")
        if type(proc) is CoroProcess:
            self._step_coro(proc)
            return
        self._current = proc
        proc._resume.release()
        self._engine_lock.acquire()
        self._current = None

    def wake_soon(self, proc: SimProcess | CoroProcess) -> None:
        """Schedule *proc* to be woken at the current virtual time."""
        self.engine.schedule(0.0, self.wake_now, proc)

    def _step_coro(self, proc: CoroProcess) -> None:
        """(Engine context) step *proc*'s generator until it suspends.

        Already-completed events continue inline (mirroring the thread
        fast path in :meth:`SimEvent.wait`); pending events park the
        process on the event's waiter list; ``_Sleep`` schedules exactly
        one heap entry — the same sequence the thread runtime issues.
        """
        prev = self._current
        self._current = proc
        gen = proc._gen
        try:
            while True:
                ev = proc._waiting_on
                proc._waiting_on = None
                proc._blocked_on = None
                try:
                    if ev is None:
                        item = gen.send(None)
                    elif ev._exc is not None:
                        item = gen.throw(ev._exc)
                    else:
                        item = gen.send(ev._value)
                except StopIteration as stop:
                    proc.result = stop.value
                    self._on_coro_exit(proc, None)
                    return
                except BaseException as exc:  # noqa: BLE001 - forwarded to run()
                    self._on_coro_exit(proc, exc)
                    return
                if type(item) is _Sleep:
                    self.engine.schedule(item.delay, self.wake_now, proc)
                    proc._blocked_on = "sleep"
                    return
                if self.handoff_check and not isinstance(item, SimEvent):
                    raise RuntimeError(
                        f"{proc.name} yielded {item!r}; coroutine ranks may "
                        "only yield SimEvents or _Sleep"
                    )
                if item._done:
                    proc._waiting_on = item  # value/exc fed in next loop turn
                    continue
                item._waiters.append(proc)
                proc._waiting_on = item
                proc._blocked_on = item
                return
        finally:
            self._current = prev

    def _on_coro_exit(self, proc: CoroProcess, exc: BaseException | None) -> None:
        proc._blocked_on = None
        if exc is not None:
            self._failure = exc
            # Complete 'finished' without raising into the engine loop;
            # run() re-raises after the heap drains.
            if not proc.finished.done:
                proc.finished.succeed(None)
        else:
            proc.finished.succeed(proc.result)

    def _close_coros(self) -> None:
        """Close suspended generators so a failed run cannot leak their
        ``finally`` blocks into interpreter shutdown (GC-time
        GeneratorExit would run them against a drained engine)."""
        for proc in self._procs:
            if type(proc) is CoroProcess:
                proc._close()

    def _on_process_exit(self, proc: SimProcess, exc: BaseException | None) -> None:
        if exc is not None:
            self._failure = exc
            # Complete 'finished' without raising into the engine thread;
            # run() re-raises after the heap drains.
            if not proc.finished.done:
                proc.finished.succeed(None)
        else:
            proc.finished.succeed(proc.result)
        self._engine_lock.release()

    def _blocked_processes(self) -> list[str]:
        return [
            f"{p.name} ({p._blocked_on})"
            for p in self._procs
            if not p.finished.done and p._blocked_on is not None
        ]
