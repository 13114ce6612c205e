"""Time and size units used throughout the simulator.

All simulated time is kept as an integer number of **nanoseconds**.
Integer time makes event ordering exact and simulations perfectly
reproducible; nanosecond resolution is fine enough to express bus byte
cycles while keeping multi-second simulations inside 64-bit range.

All sizes are kept as integer **bytes**, and flash capacities as integer
numbers of **pages**.
"""

from __future__ import annotations

#: One nanosecond (the base unit -- present for symmetry and readability).
NANOSECOND = 1

#: One microsecond in nanoseconds.
MICROSECOND = 1_000

#: One millisecond in nanoseconds.
MILLISECOND = 1_000_000

#: One second in nanoseconds.
SECOND = 1_000_000_000

#: One kibibyte in bytes.
KIB = 1024

#: One mebibyte in bytes.
MIB = 1024 * 1024

#: One gibibyte in bytes.
GIB = 1024 * 1024 * 1024


def microseconds(value: float) -> int:
    """Convert ``value`` microseconds to integer nanoseconds."""
    return round(value * MICROSECOND)


def milliseconds(value: float) -> int:
    """Convert ``value`` milliseconds to integer nanoseconds."""
    return round(value * MILLISECOND)


def seconds(value: float) -> int:
    """Convert ``value`` seconds to integer nanoseconds."""
    return round(value * SECOND)


def to_milliseconds(ns: int) -> float:
    """Convert integer nanoseconds to floating-point milliseconds."""
    return ns / MILLISECOND


def format_time(ns: int) -> str:
    """Render a nanosecond timestamp with a human-friendly unit.

    >>> format_time(1_500)
    '1.500us'
    >>> format_time(2_000_000)
    '2.000ms'
    """
    if ns < MICROSECOND:
        return f"{ns}ns"
    if ns < MILLISECOND:
        return f"{ns / MICROSECOND:.3f}us"
    if ns < SECOND:
        return f"{ns / MILLISECOND:.3f}ms"
    return f"{ns / SECOND:.3f}s"


def format_bytes(size: int) -> str:
    """Render a byte size with a human-friendly unit.

    >>> format_bytes(4096)
    '4.0KiB'
    """
    if size < KIB:
        return f"{size}B"
    if size < MIB:
        return f"{size / KIB:.1f}KiB"
    if size < GIB:
        return f"{size / MIB:.1f}MiB"
    return f"{size / GIB:.1f}GiB"
