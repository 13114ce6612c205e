"""The hardware layer: the simulated flash memory array.

This package models everything below the SSD controller (paper Figure 1,
bottom box):

* :mod:`repro.hardware.addresses` -- physical addressing and geometry
  iteration (channel / LUN / block / page, per the ONFI LUN abstraction).
* :mod:`repro.hardware.flash` -- the LUN and its blocks' state machine,
  enforcing NAND constraints (sequential programming, erase-before-reuse).
* :mod:`repro.hardware.commands` -- the flash command vocabulary
  exchanged between controller and array (read / program / erase /
  copyback, tagged with their originating source).
* :mod:`repro.hardware.channel` -- the shared channel (bus) resource,
  with operation interleaving within a channel.
* :mod:`repro.hardware.array` -- the flash array executor: runs commands
  through their bus and array phases in virtual time.
* :mod:`repro.hardware.memory` -- accounting of controller RAM and
  battery-backed RAM.
"""

from repro.hardware.addresses import PhysicalAddress
from repro.hardware.array import SsdArray
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand
from repro.hardware.flash import Lun
from repro.hardware.memory import MemoryManager

__all__ = [
    "CommandKind",
    "CommandSource",
    "FlashCommand",
    "Lun",
    "MemoryManager",
    "PhysicalAddress",
    "SsdArray",
]
