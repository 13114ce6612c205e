"""Controller memory accounting.

Paper Section 2.2: "EagleTree includes a memory manager used to track the
amount of RAM and battery-backed RAM used for the controller's metadata
and IO buffers."

The manager does not simulate access latency (controller RAM is orders
of magnitude faster than flash); it enforces *capacity*: mapping tables,
caches and write buffers must fit their configured budgets, and sizing
decisions (e.g. the DFTL CMT capacity) are derived from what remains.
"""

from __future__ import annotations

from repro.core import units


class OutOfMemoryError(RuntimeError):
    """An allocation exceeded the configured RAM budget."""


class _Pool:
    """One capacity-tracked memory pool."""

    def __init__(self, name: str, capacity_bytes: int):
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.allocations: dict[str, int] = {}

    @property
    def used_bytes(self) -> int:
        return sum(self.allocations.values())

    @property
    def available_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def allocate(self, label: str, num_bytes: int) -> None:
        if num_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        current = self.allocations.get(label, 0)
        if self.used_bytes - current + num_bytes > self.capacity_bytes:
            raise OutOfMemoryError(
                f"{self.name}: cannot hold {units.format_bytes(num_bytes)} for "
                f"{label!r} ({units.format_bytes(self.available_bytes + current)} free "
                f"of {units.format_bytes(self.capacity_bytes)})"
            )
        self.allocations[label] = num_bytes


class MemoryManager:
    """Tracks the controller's RAM and battery-backed RAM budgets.

    Allocations are labelled so re-allocating under the same label
    *resizes* rather than leaks -- convenient for caches that grow.
    """

    def __init__(self, ram_bytes: int, battery_ram_bytes: int):
        self.ram = _Pool("RAM", ram_bytes)
        self.battery_ram = _Pool("battery-backed RAM", battery_ram_bytes)

    def allocate_ram(self, label: str, num_bytes: int) -> None:
        """Claim ``num_bytes`` of plain controller RAM for ``label``."""
        self.ram.allocate(label, num_bytes)

    def allocate_battery_ram(self, label: str, num_bytes: int) -> None:
        """Claim ``num_bytes`` of battery-backed (persistent) RAM."""
        self.battery_ram.allocate(label, num_bytes)

    @property
    def ram_available(self) -> int:
        return self.ram.available_bytes

    def report(self) -> str:
        lines = ["== controller memory =="]
        for pool in (self.ram, self.battery_ram):
            lines.append(
                f"{pool.name}: {units.format_bytes(pool.used_bytes)} used / "
                f"{units.format_bytes(pool.capacity_bytes)}"
            )
            for label, size in sorted(pool.allocations.items()):
                lines.append(f"  {label:<24} {units.format_bytes(size)}")
        return "\n".join(lines)
