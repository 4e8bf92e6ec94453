"""EngineOptions: the typed runtime discipline of one simulated job.

The coroutine rank runtime (see :mod:`repro.des.process`) introduced a
choice — generator ranks stepped in the engine context versus the
historical thread-per-rank fallback — plus two knobs that used to be
implicit: the rank-count ceiling (threads capped the fleet physically;
coroutines need an explicit guard against accidental million-rank
spawns) and the optional handoff invariant checks.  Those knobs live in
one frozen value instead of loose keywords, exactly like
:class:`repro.encmpi.plan.CryptoPlan` does for crypto:

- ``runtime`` — ``"auto"`` (generator workloads become coroutines,
  plain ones get threads), ``"coroutines"`` (strict: plain rank
  functions are rejected), or ``"threads"`` (everything on OS threads,
  generators interpreted by :func:`repro.des.process.run_blocking`);
- ``max_ranks`` — ceiling on ranks one job may spawn (default 4096,
  64 times the paper's testbed);
- ``handoff_check`` — cheap per-wake invariant checks in the
  scheduler (off by default; parity/debug runs turn it on).

``parse_engine_options("coroutines:max_ranks=4096")`` is the string
form, in the shared spec grammar of :mod:`repro.util.specs`.  A job
that passes no options uses the process-wide default of
:mod:`repro.defaults`, which the campaign and CLI set for the jobs they
run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.defaults import current_defaults
from repro.des.process import RUNTIMES
from repro.util.specs import INT, ON_OFF, Grammar, Spec, choice

#: 64 times the paper's 64-rank testbed; anything above it is almost
#: certainly an accidental unit error in a rank count
DEFAULT_MAX_RANKS = 4096


@dataclass(frozen=True)
class EngineOptions(Spec):
    """Frozen description of how a simulated job's ranks execute."""

    grammar = Grammar(
        "engine",
        head=("engine runtime", "runtime", choice(RUNTIMES)),
        keys={"max_ranks": ("max_ranks", INT),
              "handoff_check": ("handoff_check", ON_OFF)},
    )

    runtime: str = "auto"
    max_ranks: int = DEFAULT_MAX_RANKS
    handoff_check: bool = False

    def __post_init__(self) -> None:
        if self.runtime not in RUNTIMES:
            raise ValueError(
                f"unknown runtime {self.runtime!r}; valid: " + ", ".join(RUNTIMES)
            )
        if not isinstance(self.max_ranks, int) or self.max_ranks < 1:
            raise ValueError(f"max_ranks must be >= 1, got {self.max_ranks!r}")


def parse_engine_options(spec: str) -> EngineOptions:
    """Parse ``"RUNTIME[:key=value,...]"`` into :class:`EngineOptions`.

    ``RUNTIME`` is ``auto``, ``coroutines`` or ``threads``; keys are
    ``max_ranks`` (an int) and ``handoff_check`` (``on``/``off``)::

        parse_engine_options("threads:handoff_check=on")
    """
    return EngineOptions.parse(spec)


def resolve_engine_options(
    value: "EngineOptions | str | None",
) -> EngineOptions:
    """Coerce an API argument (options, spec string, or None) to options.

    None means the process-wide default (:mod:`repro.defaults`, set by
    the CLI ``--runtime`` flag and campaigns), else ``EngineOptions()``.
    """
    if value is None:
        return current_defaults().engine or EngineOptions()
    return EngineOptions.coerce(value)
