"""Unit tests for VirtualBlockDevice and GenerationClock."""

import numpy as np
import pytest

from repro.errors import ConsistencyError, StorageError
from repro.storage import GenerationClock, VirtualBlockDevice


class TestGenerationClock:
    def test_monotonic(self):
        clock = GenerationClock()
        a = clock.tick()
        b = clock.tick(5)
        c = clock.tick()
        assert a < b < c
        assert c == b + 5

    def test_shared_clock_keeps_stamps_unique(self):
        clock = GenerationClock()
        d1 = VirtualBlockDevice(10, clock=clock)
        d2 = VirtualBlockDevice(10, clock=clock)
        d1.write(0)
        d2.write(0)
        assert d1.read(0)[0] != d2.read(0)[0]


class TestGeometry:
    def test_nbytes(self):
        assert VirtualBlockDevice(10, block_size=4096).nbytes == 40960

    def test_invalid_geometry(self):
        with pytest.raises(StorageError):
            VirtualBlockDevice(0)
        with pytest.raises(StorageError):
            VirtualBlockDevice(10, block_size=0)

    def test_extent_checks(self):
        disk = VirtualBlockDevice(10)
        with pytest.raises(StorageError):
            disk.write(9, 2)
        with pytest.raises(StorageError):
            disk.read(-1)
        with pytest.raises(StorageError):
            disk.write(0, 0)


class TestWriteRead:
    def test_fresh_disk_is_all_zero_generation(self):
        disk = VirtualBlockDevice(5)
        assert disk.read(0, 5).tolist() == [0, 0, 0, 0, 0]

    def test_write_bumps_generation(self):
        disk = VirtualBlockDevice(5)
        disk.write(2)
        gens = disk.read(0, 5)
        assert gens[2] > 0
        assert gens[[0, 1, 3, 4]].tolist() == [0, 0, 0, 0]

    def test_rewrites_get_new_generations(self):
        disk = VirtualBlockDevice(5)
        first = disk.write(1)
        second = disk.write(1)
        assert second > first

    def test_multiblock_write_unique_stamps(self):
        disk = VirtualBlockDevice(10)
        disk.write(0, 10)
        gens = disk.read(0, 10)
        assert len(set(gens.tolist())) == 10


class TestTransfer:
    def test_export_import_roundtrip(self):
        clock = GenerationClock()
        src = VirtualBlockDevice(20, clock=clock)
        dst = VirtualBlockDevice(20, clock=clock)
        src.write(3, 5)
        idx = np.arange(20)
        stamps, data = src.export_blocks(idx)
        assert data is None
        dst.import_blocks(idx, stamps)
        assert dst.identical_to(src)

    def test_partial_import_leaves_diff(self):
        clock = GenerationClock()
        src = VirtualBlockDevice(10, clock=clock)
        dst = VirtualBlockDevice(10, clock=clock)
        src.write(0, 10)
        idx = np.arange(5)
        stamps, _ = src.export_blocks(idx)
        dst.import_blocks(idx, stamps)
        assert dst.diff_blocks(src).tolist() == [5, 6, 7, 8, 9]

    def test_validated_export_import_match_checked_forms(self):
        clock = GenerationClock()
        src = VirtualBlockDevice(16, clock=clock)
        dst = VirtualBlockDevice(16, clock=clock)
        src.write(2, 9)
        idx = src.validate_indices([1, 4, 9, 15])
        assert idx.dtype == np.int64
        stamps, data = src.export_blocks(idx, validated=True)
        assert data is None
        assert np.array_equal(stamps, src.export_blocks(idx)[0])
        dst.import_blocks(idx, stamps, validated=True)
        assert dst.diff_blocks(src).tolist() == [2, 3, 5, 6, 7, 8, 10]

    def test_validate_indices_rejects_out_of_range(self):
        disk = VirtualBlockDevice(10)
        for bad in ([10], [-1], [0, 3, 99]):
            with pytest.raises(StorageError):
                disk.validate_indices(np.array(bad))

    def test_import_shape_mismatch(self):
        disk = VirtualBlockDevice(10)
        with pytest.raises(StorageError):
            disk.import_blocks(np.arange(3), np.zeros(4, dtype=np.uint64))

    def test_validated_import_still_checks_shape(self):
        disk = VirtualBlockDevice(10)
        with pytest.raises(StorageError):
            disk.import_blocks(np.arange(3), np.zeros(4, dtype=np.uint64),
                               validated=True)

    def test_import_out_of_range(self):
        disk = VirtualBlockDevice(10)
        with pytest.raises(StorageError):
            disk.import_blocks(np.array([10]), np.array([1], dtype=np.uint64))


class TestByteMode:
    def test_data_roundtrip(self):
        clock = GenerationClock()
        src = VirtualBlockDevice(8, block_size=64, clock=clock, data=True)
        dst = VirtualBlockDevice(8, block_size=64, clock=clock, data=True)
        src.write(1, 3)
        idx = np.arange(8)
        stamps, data = src.export_blocks(idx)
        assert data is not None
        dst.import_blocks(idx, stamps, data)
        assert dst.identical_to(src)
        assert np.array_equal(dst.read_data(1, 3), src.read_data(1, 3))

    def test_export_does_not_alias_device_state(self):
        disk = VirtualBlockDevice(8, block_size=64, data=True)
        disk.write(0, 8)
        # Contiguous, strided and single-block selections: none may hand
        # back a view that a later write shows through.
        for idx in (np.arange(8), np.arange(0, 8, 3), np.array([5]),
                    np.asarray(2)):
            stamps, data = disk.export_blocks(idx)
            want_stamps, want_data = stamps.copy(), data.copy()
            assert not np.shares_memory(stamps, disk._gen)
            assert not np.shares_memory(data, disk._data)
            disk.write(0, 8)
            assert np.array_equal(stamps, want_stamps)
            assert np.array_equal(data, want_data)

    def test_explicit_payload(self):
        disk = VirtualBlockDevice(4, block_size=16, data=True)
        payload = np.full((2, 16), 0xAB, dtype=np.uint8)
        disk.write(1, 2, payload=payload)
        assert np.array_equal(disk.read_data(1, 2), payload)

    def test_payload_shape_rejected(self):
        disk = VirtualBlockDevice(4, block_size=16, data=True)
        with pytest.raises(StorageError):
            disk.write(0, 1, payload=np.zeros((1, 8), dtype=np.uint8))

    def test_read_data_without_backing(self):
        disk = VirtualBlockDevice(4)
        with pytest.raises(StorageError):
            disk.read_data(0)

    def test_import_without_data_rejected_in_byte_mode(self):
        disk = VirtualBlockDevice(4, block_size=16, data=True)
        with pytest.raises(StorageError):
            disk.import_blocks(np.array([0]), np.array([5], dtype=np.uint64))


class TestConsistency:
    def test_assert_identical_passes(self):
        clock = GenerationClock()
        a = VirtualBlockDevice(5, clock=clock)
        b = VirtualBlockDevice(5, clock=clock)
        a.assert_identical(b)

    def test_assert_identical_reports_blocks(self):
        clock = GenerationClock()
        a = VirtualBlockDevice(5, clock=clock)
        b = VirtualBlockDevice(5, clock=clock)
        a.write(2)
        with pytest.raises(ConsistencyError, match=r"\[2\]"):
            a.assert_identical(b)

    def test_geometry_mismatch(self):
        with pytest.raises(StorageError):
            VirtualBlockDevice(5).diff_blocks(VirtualBlockDevice(6))

    def test_checksum_changes_on_write(self):
        disk = VirtualBlockDevice(5)
        before = disk.checksum()
        disk.write(0)
        assert disk.checksum() != before

    def test_snapshot_is_copy(self):
        disk = VirtualBlockDevice(5)
        snap = disk.snapshot()
        disk.write(0)
        assert snap[0] == 0
