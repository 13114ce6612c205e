"""Address-domain knowledge for the cross-module dataflow rules.

PR 7 flattened every piece of FTL/flash state onto raw ``int64`` arrays,
so a logical page number (LPN), a global physical page number (PPN), a
global block id (PBN) and a flat LUN index are now indistinguishable
Python ints.  This module is the *data* that teaches the dataflow engine
(:mod:`repro.lint.dataflow`) to tell them apart again:

* the :class:`Domain` lattice and the ``Lpn``/``Ppn``/``Pbn``/
  ``LunIndex`` annotation aliases (declared in
  :mod:`repro.hardware.addresses`) that seed taint,
* which array attributes of the state classes are indexed by which
  domain (``FlashState.erase_count`` is per-block, ``page_lpn`` is
  per-page, ``MappingTable.table`` is per-LPN),
* which attributes/accessors hand out live numpy views of device state
  (the SIM012 sources), and which ndarray methods mutate in place.

Everything here is deliberately declarative -- plain mappings the rule
documentation in ``docs/GUIDE.md`` can quote verbatim.  The engine keys
class tables on the *class name* (not the import path) so the fixture
suites can exercise the rules with self-contained stand-in classes.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Mapping, Optional


class Domain(enum.Enum):
    """One address space of the simulator.

    The enum values are the annotation aliases: annotating a parameter
    or return type with ``Lpn``/``Ppn``/``Pbn``/``LunIndex`` assigns the
    value that flows through it to the corresponding domain.
    """

    LPN = "Lpn"  #: logical page number (host address space)
    PPN = "Ppn"  #: global physical page number (device address space)
    PBN = "Pbn"  #: global block id (``lun_index * blocks_per_lun + block``)
    LUN_INDEX = "LunIndex"  #: flat LUN index in channel-major order

    def __str__(self) -> str:
        return self.value


#: Annotation alias -> domain.  Matched by *name* so neither the
#: simulator's layering (core cannot import hardware) nor test fixtures
#: need to import the canonical aliases from
#: :mod:`repro.hardware.addresses`.
DOMAIN_BY_ALIAS: Mapping[str, Domain] = MappingProxyType(
    {domain.value: domain for domain in Domain}
)

_PER_BLOCK_ARRAYS = (
    "write_pointer",
    "erase_count",
    "last_erase_ns",
    "last_write_ns",
    "inflight_reads",
    "live_count",
    "dead_count",
    "bad",
    "block_free",
)
_PER_PAGE_ARRAYS = ("page_lpn", "page_version")
_PAGE_BITMAPS = ("programmed", "valid", "torn", "has_content")


def _with_memoryviews(names: tuple[str, ...]) -> tuple[str, ...]:
    """Each array attribute plus its cached-``memoryview`` twin."""
    return names + tuple(f"mv_{name}" for name in names)


#: class name -> array attribute -> the domain its *index* must carry.
#: An index expression with a different known domain is a SIM010
#: violation (e.g. ``state.erase_count[ppn]``).  Word-granular bitmaps
#: (``programmed``/``valid``/...) are indexed by packed word offsets,
#: which carry no domain, so they appear only in the view tables below.
ARRAY_INDEX_DOMAINS: Mapping[str, Mapping[str, Domain]] = MappingProxyType(
    {
        "FlashState": MappingProxyType(
            {
                name: (Domain.PPN if base in _PER_PAGE_ARRAYS else Domain.PBN)
                for base in _PER_PAGE_ARRAYS + _PER_BLOCK_ARRAYS
                for name in (base, f"mv_{base}")
            }
        ),
        "MappingTable": MappingProxyType({"table": Domain.LPN, "_mv": Domain.LPN}),
        "VersionTable": MappingProxyType({"table": Domain.LPN, "_mv": Domain.LPN}),
    }
)

#: class name -> array attribute -> the domain of the *elements* read
#: out of it (``page_lpn[ppn]`` yields an LPN; ``MappingTable.table``
#: holds ``ppn + 1``, still PPN-domain under the +-literal rule).
ARRAY_ELEMENT_DOMAINS: Mapping[str, Mapping[str, Domain]] = MappingProxyType(
    {
        "FlashState": MappingProxyType(
            {"page_lpn": Domain.LPN, "mv_page_lpn": Domain.LPN}
        ),
        "MappingTable": MappingProxyType({"table": Domain.PPN, "_mv": Domain.PPN}),
        "VersionTable": MappingProxyType({}),
    }
)

#: class name -> attributes that *are* raw device-state arrays.  Reading
#: them is fine; slicing them yields a live view (SIM012 taint) and
#: writing through them outside the hardware layer bypasses the mutator
#: API (SIM012 violation).
STATE_ARRAY_ATTRS: Mapping[str, frozenset[str]] = MappingProxyType(
    {
        "FlashState": frozenset(
            _with_memoryviews(_PER_PAGE_ARRAYS + _PER_BLOCK_ARRAYS + _PAGE_BITMAPS)
        ),
        "MappingTable": frozenset({"table", "_mv"}),
        "VersionTable": frozenset({"table", "_mv"}),
    }
)

#: Accessor methods that return live views of device state.  The value
#: says where the viewed buffer comes from: ``"argument"`` (the view
#: aliases the first argument, so only state-owned arguments taint the
#: result -- ``block_words(np.zeros_like(...))`` is a fresh local) or
#: ``"receiver"`` (the view aliases the receiver's own state).
VIEW_RETURNING_METHODS: Mapping[str, Mapping[str, str]] = MappingProxyType(
    {
        "FlashState": MappingProxyType({"block_words": "argument"}),
    }
)

#: ndarray methods that mutate the buffer in place: calling them on a
#: tainted view is a SIM012 violation.
MUTATING_ARRAY_METHODS: frozenset[str] = frozenset(
    {"fill", "sort", "partition", "put", "resize", "byteswap"}
)

#: Methods whose *iteration elements* carry a domain (``for lpn in
#: table.mapped_lpns()``), keyed by class name.
ITER_ELEMENT_DOMAINS: Mapping[str, Mapping[str, Domain]] = MappingProxyType(
    {"MappingTable": MappingProxyType({"mapped_lpns": Domain.LPN})}
)

def domain_of_alias(name: Optional[str]) -> Optional[Domain]:
    """The domain an annotation alias names, or None."""
    if name is None:
        return None
    return DOMAIN_BY_ALIAS.get(name)
