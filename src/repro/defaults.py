"""Process-wide job defaults, set for a ``with`` block.

Three settings reach every simulated job that does not pass its own:
whether the runtime sanitizer is armed, the pipeline geometry of the
crypto plan, and the engine options.  A host that runs many jobs — a
campaign, the ``nas`` CLI command, a test — sets them for a block::

    from repro.defaults import job_defaults

    with job_defaults(sanitize=True, engine=EngineOptions(runtime="threads")):
        ...  # every job in here, and every fork worker, sees them

and the previous value comes back on exit, also when the block raises.
The active value is a plain module variable, not a ``ContextVar``, so
rank threads and fork-pool workers started inside the block see it.

Readers: :func:`repro.analysis.sanitize.resolve_sanitize`,
:func:`repro.des.options.resolve_engine_options` and
:func:`repro.encmpi.plan.apply_default_plan`.  This module imports no
simulator code at import time, so each of them can import it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.des.options import EngineOptions
    from repro.encmpi.plan import CryptoPlan


@dataclass(frozen=True)
class JobDefaults:
    """What a job uses for a setting it leaves at None."""

    #: arm the runtime sanitizer in jobs run with ``sanitize=None``
    sanitize: bool = False
    #: pipeline geometry (mode, chunk, helper cores) overlaid on every
    #: SecurityConfig built without an explicit plan; None = no overlay
    crypto: CryptoPlan | None = None
    #: engine options of jobs run with ``engine=None``; None = the
    #: library default, ``EngineOptions()``
    engine: EngineOptions | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.sanitize, bool):
            raise TypeError(f"sanitize must be a bool, got {self.sanitize!r}")
        if self.crypto is not None:
            from repro.encmpi.plan import CryptoPlan

            if not isinstance(self.crypto, CryptoPlan):
                raise TypeError(
                    f"crypto must be a CryptoPlan or None, got {self.crypto!r}"
                )
        if self.engine is not None:
            from repro.des.options import EngineOptions

            if not isinstance(self.engine, EngineOptions):
                raise TypeError(
                    f"engine must be EngineOptions or None, got {self.engine!r}"
                )


_ACTIVE = JobDefaults()


def current_defaults() -> JobDefaults:
    """The defaults in force right now."""
    return _ACTIVE


@contextmanager
def job_defaults(
    *,
    sanitize: bool | None = None,
    crypto: CryptoPlan | None = None,
    engine: EngineOptions | None = None,
) -> Iterator[JobDefaults]:
    """Set the process-wide job defaults for the ``with`` block.

    A keyword left at None keeps the enclosing value.  Yields the
    defaults in force inside the block; restores the previous ones on
    exit.
    """
    global _ACTIVE
    previous = _ACTIVE
    changes = {"sanitize": sanitize, "crypto": crypto, "engine": engine}
    _ACTIVE = replace(
        previous, **{k: v for k, v in changes.items() if v is not None}
    )
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
