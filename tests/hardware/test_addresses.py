"""Tests for physical addressing and geometry iteration."""

import pytest

from repro.core.config import SsdGeometry
from repro.hardware.addresses import (
    PhysicalAddress,
    iter_luns,
    lun_index,
    validate_address,
)


@pytest.fixture
def geometry():
    return SsdGeometry(
        channels=3, luns_per_channel=2, blocks_per_lun=8, pages_per_block=4
    )


class TestPhysicalAddress:
    def test_fields_and_str(self):
        address = PhysicalAddress(1, 2, 3, 4)
        assert (address.channel, address.lun, address.block, address.page) == (1, 2, 3, 4)
        assert str(address) == "(c1,l2,b3,p4)"

    def test_same_lun(self):
        a = PhysicalAddress(1, 2, 3, 4)
        assert a.same_lun(PhysicalAddress(1, 2, 7, 0))
        assert not a.same_lun(PhysicalAddress(1, 1, 3, 4))
        assert not a.same_lun(PhysicalAddress(0, 2, 3, 4))

    def test_addresses_are_hashable_values(self):
        assert PhysicalAddress(0, 0, 0, 0) == PhysicalAddress(0, 0, 0, 0)
        assert len({PhysicalAddress(0, 0, 0, 0), PhysicalAddress(0, 0, 0, 1)}) == 2


class TestValidation:
    def test_valid_corner_addresses(self, geometry):
        validate_address(PhysicalAddress(0, 0, 0, 0), geometry)
        validate_address(PhysicalAddress(2, 1, 7, 3), geometry)

    @pytest.mark.parametrize(
        "address",
        [
            PhysicalAddress(3, 0, 0, 0),
            PhysicalAddress(0, 2, 0, 0),
            PhysicalAddress(0, 0, 8, 0),
            PhysicalAddress(0, 0, 0, 4),
            PhysicalAddress(-1, 0, 0, 0),
        ],
    )
    def test_out_of_range_rejected(self, geometry, address):
        with pytest.raises(ValueError):
            validate_address(address, geometry)


class TestIteration:
    def test_iter_luns_channel_major(self, geometry):
        assert list(iter_luns(geometry)) == [
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
        ]

    def test_lun_index_round_trip(self, geometry):
        for index, (channel, lun) in enumerate(iter_luns(geometry)):
            assert lun_index(geometry, channel, lun) == index
