"""``MappingTable``: the page FTL's mapping store and DFTL's persisted map."""

from repro.hardware.addresses import PhysicalAddress
from repro.hardware.state import AddressCodec, MappingTable


def _table() -> MappingTable:
    return MappingTable(16, AddressCodec(luns_per_channel=2, blocks_per_lun=4, pages_per_block=8))


def test_set_maps_and_remaps():
    table = _table()
    table.set(3, PhysicalAddress(1, 0, 2, 5))
    table.set(3, PhysicalAddress(0, 1, 3, 7))
    assert table.get(3) == PhysicalAddress(0, 1, 3, 7)
    assert len(table) == 1


def test_set_none_unmaps():
    table = _table()
    table.set(3, PhysicalAddress(1, 0, 2, 5))
    table.set(3, None)
    assert table.get(3) is None
    assert 3 not in table
    assert len(table) == 0
    table.set(3, None)  # unmapping an unmapped page changes nothing
    assert len(table) == 0
