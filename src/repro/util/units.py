"""Byte-size and rate units used throughout the reproduction.

The paper mixes decimal rates (MB/s as 1e6 bytes per second — the unit
used by the OSU benchmarks and by the text, e.g. "1381 MB/s") with binary
message sizes (a "2MB message" in the ping-pong plot is 2 MiB = 2**21
bytes, as produced by the OSU size sweep).  We follow the same
convention: sizes are binary, rates are decimal.
"""

from __future__ import annotations

import math
import re

#: Binary size units (message sizes in the benchmark sweeps).
KiB = 1024
MiB = 1024 * 1024
GiB = 1024 * 1024 * 1024

#: Decimal rate unit: 1 MB/s as reported by the paper and OSU suite.
MB_PER_S = 1e6

_SIZE_RE = re.compile(
    r"^\s*([0-9]*\.?[0-9]+)\s*(b|byte|bytes|k|kb|kib|m|mb|mib|g|gb|gib)?\s*$",
    re.IGNORECASE,
)

_SIZE_MULTIPLIERS = {
    None: 1,
    "b": 1,
    "byte": 1,
    "bytes": 1,
    "k": KiB,
    "kb": KiB,
    "kib": KiB,
    "m": MiB,
    "mb": MiB,
    "mib": MiB,
    "g": GiB,
    "gb": GiB,
    "gib": GiB,
}


def parse_size(text: str | int) -> int:
    """Parse a human message size ("16KB", "2MB", "1B", 4096) into bytes.

    Sizes follow the OSU convention: KB/MB/GB are binary multiples.

    >>> parse_size("16KB")
    16384
    >>> parse_size("2MB")
    2097152
    >>> parse_size(17)
    17
    """
    if isinstance(text, int):
        if text < 0:
            raise ValueError(f"negative size: {text}")
        return text
    m = _SIZE_RE.match(text)
    if not m:
        raise ValueError(f"unparsable size: {text!r}")
    number = m.group(1)
    unit = m.group(2).lower() if m.group(2) else None
    if number.isdigit():
        # exact for any size; a float would round past 2**53
        return int(number) * _SIZE_MULTIPLIERS[unit]
    result = float(number) * _SIZE_MULTIPLIERS[unit]
    if abs(result - round(result)) > 1e-9:
        raise ValueError(f"size {text!r} is not a whole number of bytes")
    return int(round(result))


def format_bytes(n: int) -> str:
    """Format a byte count the way the paper labels its x-axes.

    >>> format_bytes(1)
    '1B'
    >>> format_bytes(16384)
    '16KB'
    >>> format_bytes(2 * MiB)
    '2MB'
    """
    if n < 0:
        raise ValueError(f"negative size: {n}")
    for unit, name in ((GiB, "GB"), (MiB, "MB"), (KiB, "KB")):
        if n >= unit and n % unit == 0:
            return f"{n // unit}{name}"
        if n >= unit:
            return f"{n / unit:.2f}{name}"
    return f"{n}B"


def format_rate(bytes_per_second: float) -> str:
    """Format a throughput in the paper's decimal MB/s.

    >>> format_rate(1381e6)
    '1381.00 MB/s'
    """
    return f"{bytes_per_second / MB_PER_S:.2f} MB/s"


def format_time(seconds: float) -> str:
    """Format a duration with the unit the paper would use.

    >>> format_time(0.0000315)
    '31.50us'
    >>> format_time(12.75)
    '12.750s'
    """
    if seconds < 0:
        raise ValueError(f"negative duration: {seconds}")
    if seconds < 1e-3:
        return f"{seconds * 1e6:.2f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds:.3f}s"


def parse_fraction(text: str | float) -> float:
    """Parse a rate/probability: '10%' -> 0.1, '0.02' -> 0.02.

    Used by the spec parsers (fabric jitter/wobble/loss, stats
    confidence).  Range checks are the caller's business.

    >>> parse_fraction("10%")
    0.1
    >>> parse_fraction("0.025")
    0.025
    """
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return float(text)
    text = text.strip()
    if text.endswith("%"):
        return float(text[:-1]) / 100.0
    return float(text)


def format_fraction(value: float) -> str:
    """Canonical spec-token spelling of a fraction; exact round-trip.

    Whole percentages print as 'N%'; anything else falls back to repr,
    which Python guarantees re-parses to the same float.

    >>> format_fraction(0.1)
    '10%'
    >>> format_fraction(0.123456)
    '0.123456'
    """
    pct = value * 100.0
    # 0.1 * 100 is 10.000000000000002; the authoritative test is that
    # the printed form re-parses to the exact same float.  A value
    # within a factor 100 of the float range overflows to inf here and
    # takes the repr branch.
    if math.isfinite(pct):
        whole = round(pct)
        if abs(pct - whole) < 1e-9 and whole / 100.0 == value:
            return f"{whole}%"
    return repr(value)


def mb_per_s(bytes_count: int | float, seconds: float) -> float:
    """Throughput in the paper's decimal MB/s for *bytes_count* over *seconds*."""
    if seconds <= 0:
        raise ValueError(f"non-positive duration: {seconds}")
    return bytes_count / seconds / MB_PER_S
