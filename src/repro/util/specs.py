"""One grammar for the typed spec strings: ``[HEAD:]key=value,...``.

Six frozen specs take a string form: :class:`~repro.encmpi.plan.CryptoPlan`,
:class:`~repro.des.options.EngineOptions`,
:class:`~repro.models.network.FabricSpec`,
:class:`~repro.experiments.stats.StatsSpec`,
:class:`~repro.simmpi.faults.FaultPlan` and
:class:`~repro.simmpi.resilience.ResiliencePolicy`.  Each subclasses
:class:`Spec` and declares its :class:`Grammar` as data; :meth:`Spec.parse`,
:meth:`Spec.token` and :meth:`Spec.coerce` are derived from that table,
so all six follow the same rules:

- a spec is case-insensitive, and whitespace around the head, each item,
  key and value is ignored;
- every item is ``key=value``: an empty item (``wan:,loss=1%``) is
  malformed, an empty option list (``""``, ``"serial:"``) is not;
- a key and its alias set the same field, at most once;
- a value type parses one way wherever it appears (a fraction takes
  ``%`` as a fabric loss and as a fault rate) and fixes how the value
  prints in a token;
- a malformed spec raises :class:`ValueError` naming the spec kind, the
  key and the expected form (an unknown fabric raises the
  :class:`KeyError` of :func:`~repro.models.network.canonical_fabric`).

``parse(spec.token()) == spec`` holds over each constructor's whole
accepted domain (``tests/api/test_spec_roundtrip.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable

from repro.util.units import format_fraction, parse_fraction, parse_size


@dataclass(frozen=True)
class Value:
    """A value type: the form it expects, how it parses and prints."""

    form: str
    parse: Callable[[str], Any]
    format: Callable[[Any], str] = str


def _on_off(text: str) -> bool:
    if text in ("on", "true", "1"):
        return True
    if text in ("off", "false", "0"):
        return False
    raise ValueError(text)


def _int_or_auto(text: str) -> int | None:
    return None if text == "auto" else int(text)


def choice(options: tuple[str, ...]) -> Value:
    """A value that is one of *options* and prints as itself."""

    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(text)
        return text

    return Value("one of " + ", ".join(options), parse)


INT = Value("an integer", int)
FLOAT = Value("a number", float, lambda v: repr(float(v)))
FRACTION = Value("a fraction like '0.1' or '10%'", parse_fraction,
                 format_fraction)
SIZE = Value("a size like '256k'", parse_size)
ON_OFF = Value("on/off", _on_off, lambda v: "on" if v else "off")
INT_OR_AUTO = Value("an integer or 'auto'", _int_or_auto,
                    lambda v: "auto" if v is None else str(v))


@dataclass(frozen=True)
class Grammar:
    """The string form of one spec class, as data."""

    #: names the spec in messages ("unknown crypto option ...")
    kind: str
    #: key or alias -> (dataclass field, value type), in token order; a
    #: field's token prints under its first key
    keys: dict[str, tuple[str, Value]]
    #: the ``HEAD:`` part as (its name in messages, field, value type)
    head: tuple[str, str, Value] | None = None
    #: the token leaves out every field at its default
    terse: bool = False


class Spec:
    """Parse, token and coercion of a frozen dataclass, derived from
    its class attribute ``grammar``."""

    grammar: Grammar

    @classmethod
    def parse(cls, text: str):
        """The spec a string spells, per the module's shared rules."""
        g = cls.grammar
        if not isinstance(text, str):
            raise TypeError(f"{g.kind} spec must be a string, got {text!r}")
        values: dict[str, Any] = {}
        rest = text.strip().lower()
        if g.head is not None:
            name, field, vtype = g.head
            head, _sep, rest = rest.partition(":")
            head = head.strip()
            try:
                values[field] = vtype.parse(head)
            except ValueError:
                raise ValueError(
                    f"unknown {name} {head!r}; expected {vtype.form}"
                ) from None
        given: dict[str, str] = {}
        for item in rest.split(",") if rest.strip() else ():
            key, sep, value = (part.strip() for part in item.partition("="))
            if not (key and sep and value):
                raise ValueError(f"malformed {g.kind} option {item.strip()!r} "
                                 f"in {text!r} (need key=value)")
            if key not in g.keys:
                raise ValueError(f"unknown {g.kind} option {key!r}; valid: "
                                 + ", ".join(g.keys))
            field, vtype = g.keys[key]
            if field in given:
                raise ValueError(
                    f"conflicting {g.kind} option {key!r}: duplicate "
                    f"{g.kind} option {field} was already given as "
                    f"{given[field]!r}"
                )
            given[field] = key
            try:
                values[field] = vtype.parse(value)
            except ValueError:
                raise ValueError(f"{g.kind} option {key!r} must be "
                                 f"{vtype.form}, got {value!r}") from None
        try:
            return cls(**values)
        except ValueError as exc:  # a range check of the constructor
            raise ValueError(f"{g.kind} spec {text!r}: {exc}") from None

    @classmethod
    def coerce(cls, value):
        """*value* itself when it is a ``cls``; a string parses."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        raise TypeError(f"{cls.grammar.kind} spec must be {cls.__name__} "
                        f"or a spec string, got {value!r}")

    def token(self) -> str:
        """Canonical spec string (stable: cache and memo keys hash it)."""
        g = self.grammar
        defaults = {f.name: f.default for f in fields(self)} if g.terse else {}
        items, printed = [], set()
        for key, (field, vtype) in g.keys.items():
            value = getattr(self, field)
            if field in printed or (g.terse and value == defaults[field]):
                continue
            printed.add(field)
            items.append(f"{key}={vtype.format(value)}")
        body = ",".join(items)
        if g.head is None:
            return body
        _name, field, vtype = g.head
        head = vtype.format(getattr(self, field))
        return f"{head}:{body}" if body else head
