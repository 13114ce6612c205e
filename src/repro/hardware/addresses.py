"""Physical flash addressing.

A physical address names a page as ``(channel, lun, block, page)``.
Following the paper (footnote 1), the LUN is the minimum granularity of
parallelism and abstracts away packages, chips and dies, so no further
levels appear in the address.

Since the array flattening (PR 7) every *other* address is a bare
``int`` in one of four distinct spaces.  The NewType-style aliases
below name those spaces; simlint's SIM010 rule taint-tracks values
through annotated signatures so an LPN handed to a PPN parameter (or a
per-block array indexed with a page id) is a lint error, without the
run-time cost of wrapper objects.  The aliases are plain ``int`` at
runtime and to mypy -- the *names* carry the contract:

``Lpn``
    logical page number, the host's address space.
``Ppn``
    global physical page number, ``AddressCodec.encode()``'s output.
``Pbn``
    global block id, ``lun_index * blocks_per_lun + block``.  Note that
    :attr:`PhysicalAddress.block` is a LUN-*local* block id, not a Pbn.
``LunIndex``
    flat LUN index in channel-major order (:func:`lun_index`).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, TypeAlias

from repro.core.config import SsdGeometry

Lpn: TypeAlias = int
Ppn: TypeAlias = int
Pbn: TypeAlias = int
LunIndex: TypeAlias = int


class PhysicalAddress(NamedTuple):
    """Location of one flash page."""

    channel: int
    lun: int
    block: int
    page: int

    def same_lun(self, other: "PhysicalAddress") -> bool:
        return self.channel == other.channel and self.lun == other.lun

    def __str__(self) -> str:
        return f"(c{self.channel},l{self.lun},b{self.block},p{self.page})"


def validate_address(address: PhysicalAddress, geometry: SsdGeometry) -> None:
    """Raise ``ValueError`` unless ``address`` is inside ``geometry``."""
    if not 0 <= address.channel < geometry.channels:
        raise ValueError(f"channel out of range: {address}")
    if not 0 <= address.lun < geometry.luns_per_channel:
        raise ValueError(f"lun out of range: {address}")
    if not 0 <= address.block < geometry.blocks_per_lun:
        raise ValueError(f"block out of range: {address}")
    if not 0 <= address.page < geometry.pages_per_block:
        raise ValueError(f"page out of range: {address}")


def iter_luns(geometry: SsdGeometry) -> Iterator[tuple[int, int]]:
    """All ``(channel, lun)`` pairs in channel-major order."""
    for channel in range(geometry.channels):
        for lun in range(geometry.luns_per_channel):
            yield channel, lun


def lun_index(geometry: SsdGeometry, channel: int, lun: int) -> LunIndex:
    """Flat index of a LUN in channel-major order."""
    return channel * geometry.luns_per_channel + lun
