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
  the ``scale`` experiment's top point);
- ``handoff_check`` — cheap per-wake invariant checks in the
  scheduler (off by default; parity/debug runs turn it on).

``parse_engine_options("coroutines:max_ranks=4096")`` is the CLI string
form, joining the ``parse_*`` spec family
(:func:`repro.encmpi.plan.parse_crypto_plan`,
:func:`repro.simmpi.faults.parse_fault_plan`, …).  A job that passes
no options uses the process-wide default of :mod:`repro.defaults`,
which the campaign and CLI set for the jobs they run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.defaults import current_defaults
from repro.des.process import RUNTIMES

#: ceiling the scale experiment needs; anything above it is almost
#: certainly an accidental unit error in a rank count
DEFAULT_MAX_RANKS = 4096

_OPTION_KEYS = ("max_ranks", "handoff_check")

_BOOL_TOKENS = {
    "on": True, "true": True, "1": True,
    "off": False, "false": False, "0": False,
}


@dataclass(frozen=True)
class EngineOptions:
    """Frozen description of how a simulated job's ranks execute."""

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

    def token(self) -> str:
        """Canonical string form (stable: used in cache keys)."""
        check = "on" if self.handoff_check else "off"
        return f"{self.runtime}:max_ranks={self.max_ranks},handoff_check={check}"


def parse_engine_options(spec: str) -> EngineOptions:
    """Parse ``"RUNTIME[:key=value,...]"`` into :class:`EngineOptions`.

    ``RUNTIME`` is ``auto``, ``coroutines`` or ``threads``; keys are
    ``max_ranks`` (an int) and ``handoff_check`` (``on``/``off``).
    Examples::

        parse_engine_options("coroutines")
        parse_engine_options("coroutines:max_ranks=4096")
        parse_engine_options("threads:handoff_check=on")

    Unknown runtimes or keys raise :class:`ValueError` naming the valid
    ones, like :func:`repro.encmpi.plan.parse_crypto_plan`; a key given
    twice raises instead of silently keeping the last value.
    """
    runtime, _sep, rest = spec.strip().partition(":")
    runtime = runtime.strip().lower()
    if runtime not in RUNTIMES:
        raise ValueError(
            f"unknown runtime {runtime!r}; valid: " + ", ".join(RUNTIMES)
        )
    kwargs: dict = {"runtime": runtime}
    seen: set[str] = set()
    for part in filter(None, (p.strip() for p in rest.split(","))):
        key, sep, value = part.partition("=")
        key = key.strip().lower()
        value = value.strip().lower()
        if not sep:
            raise ValueError(
                f"malformed engine option {part!r} (need key=value)"
            )
        if key in seen:
            raise ValueError(f"duplicate engine option {key!r}")
        seen.add(key)
        if key == "max_ranks":
            try:
                kwargs["max_ranks"] = int(value)
            except ValueError:
                raise ValueError(
                    f"max_ranks must be an integer, got {value!r}"
                ) from None
        elif key == "handoff_check":
            if value not in _BOOL_TOKENS:
                raise ValueError(
                    f"handoff_check must be on/off, got {value!r}"
                )
            kwargs["handoff_check"] = _BOOL_TOKENS[value]
        else:
            raise ValueError(
                f"unknown engine option {key!r}; valid: "
                + ", ".join(_OPTION_KEYS)
            )
    return EngineOptions(**kwargs)


def resolve_engine_options(
    value: "EngineOptions | str | None",
) -> EngineOptions:
    """Coerce an API argument (options, spec string, or None) to options.

    None means the process-wide default (:mod:`repro.defaults`, set by
    the CLI ``--runtime`` flag and campaigns), else ``EngineOptions()``.
    """
    if value is None:
        default = current_defaults().engine
        return default if default is not None else EngineOptions()
    if isinstance(value, str):
        return parse_engine_options(value)
    if isinstance(value, EngineOptions):
        return value
    raise TypeError(
        f"engine must be EngineOptions, a spec string, or None; got {value!r}"
    )
