"""Shared utilities: units, statistics methodology, table rendering."""

from repro.util.units import (
    KiB,
    MiB,
    GiB,
    format_bytes,
    format_rate,
    format_time,
    parse_size,
)
from repro.util.stats import RunStats, paper_methodology_mean

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "format_bytes",
    "format_rate",
    "format_time",
    "parse_size",
    "RunStats",
    "paper_methodology_mean",
]
