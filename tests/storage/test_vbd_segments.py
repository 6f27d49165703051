"""The VBD's segmented stamp store against a dense reference model.

A segment holding one ascending run is kept as ``(lo, hi, offset)``
until a write or import breaks the run.  Whatever the layout, every
public read must equal a plain ``uint64`` array put through the same
operations; these tests drive both with the same random operations and
compare them.  Also here: the checksum is stable across processes, and
a paper-size disk's first copy costs memory in proportion to what was
written, not to disk size.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConsistencyError
from repro.storage import GenerationClock, VirtualBlockDevice
from repro.storage.vbd import SEGMENT_BLOCKS

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")
#: Three full segments and a partial fourth.
NBLOCKS = 3 * SEGMENT_BLOCKS + 1000


def dense_twin(stamps: np.ndarray) -> VirtualBlockDevice:
    """A device holding ``stamps`` with every segment materialized."""
    twin = VirtualBlockDevice(stamps.size)
    twin.import_blocks(np.arange(stamps.size), stamps)
    return twin


class Model:
    """A device and the dense array it must always equal."""

    def __init__(self) -> None:
        self.clock = GenerationClock()
        self.dev = VirtualBlockDevice(NBLOCKS, clock=self.clock)
        self.ref = np.zeros(NBLOCKS, dtype=np.uint64)
        #: A prefilled source for run-extending imports.
        self.src = VirtualBlockDevice(NBLOCKS, clock=self.clock)
        self.src.write(0, NBLOCKS)
        self.src_ref = self.src.snapshot()

    def write(self, block: int, nblocks: int) -> None:
        nblocks = min(nblocks, NBLOCKS - block)
        first = self.dev.write(block, nblocks)
        self.ref[block:block + nblocks] = np.arange(
            first, first + nblocks, dtype=np.uint64)

    def write_source(self, block: int, nblocks: int) -> None:
        nblocks = min(nblocks, NBLOCKS - block)
        first = self.src.write(block, nblocks)
        self.src_ref[block:block + nblocks] = np.arange(
            first, first + nblocks, dtype=np.uint64)

    def import_run(self, start: int, nblocks: int) -> None:
        # What a range-streamed first iteration does per chunk.
        stop = min(start + nblocks, NBLOCKS)
        chunk = np.arange(start, stop)
        offset = self.src.run_offset(start, stop)
        stamps, data = self.src.export_blocks(chunk, contiguous=True)
        assert np.array_equal(stamps, self.src_ref[start:stop])
        self.dev.import_blocks(chunk, stamps, data, stamp_offset=offset)
        self.ref[start:stop] = stamps

    def import_scattered(self, indices, stamps) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        stamps = np.asarray(stamps, dtype=np.uint64)
        self.dev.import_blocks(indices, stamps)
        self.ref[indices] = stamps

    def check(self, probe: np.ndarray) -> None:
        dev, ref = self.dev, self.ref
        assert np.array_equal(dev.snapshot(), ref)
        assert np.array_equal(dev.export_blocks(probe)[0], ref[probe])
        lo = int(probe[0]) if probe.size else 0
        n = min(300, NBLOCKS - lo)
        assert np.array_equal(dev.read(lo, n), ref[lo:lo + n])
        assert np.array_equal(
            dev.export_blocks(np.arange(lo, lo + n), contiguous=True)[0],
            ref[lo:lo + n])
        assert np.array_equal(dev.allocated_indices(),
                              np.flatnonzero(ref))
        assert dev.allocated_fraction == float((ref != 0).mean())
        assert dev.max_stamp() == int(ref.max())
        twin = dense_twin(ref)
        assert dev.diff_blocks(twin).size == 0
        assert dev.identical_to(twin) and twin.identical_to(dev)
        dev.assert_identical(twin)
        assert dev.checksum() == twin.checksum()
        if probe.size:
            block = int(probe[-1])
            twin.import_blocks(np.array([block]),
                               np.array([int(ref[block]) + 1]))
            assert dev.diff_blocks(twin).tolist() == [block]
            assert twin.diff_blocks(dev).tolist() == [block]
            assert not dev.identical_to(twin)
            assert dev.checksum() != twin.checksum()
            with pytest.raises(ConsistencyError):
                dev.assert_identical(twin)


blocks = st.integers(0, NBLOCKS - 1)
boundary = st.integers(1, 3).map(lambda k: k * SEGMENT_BLOCKS)
operation = st.one_of(
    # Small guest writes, anywhere.
    st.tuples(st.just("write"), blocks, st.integers(1, 8)),
    # Prefill-sized writes from the start of the disk.
    st.tuples(st.just("write"), st.just(0),
              st.integers(SEGMENT_BLOCKS // 2, NBLOCKS)),
    # Writes straddling a segment boundary.
    st.tuples(st.just("write"),
              boundary.flatmap(lambda b: st.integers(b - 300, b - 1)),
              st.integers(2, 600)),
    # Imports that extend a run, in chunk order or not, from a source
    # whose runs may have been rewritten segment by segment.
    st.tuples(st.just("import_run"), blocks, st.integers(1, 700)),
    st.tuples(st.just("write_source"),
              st.integers(0, 3).map(lambda k: k * SEGMENT_BLOCKS),
              st.sampled_from([SEGMENT_BLOCKS, 300])),
    st.tuples(st.just("chunks"), st.integers(0, 3), st.integers(1, 40)),
    # Scattered, unsorted, duplicated imports.
    st.tuples(st.just("scatter"),
              st.lists(blocks, min_size=1, max_size=40),
              st.integers(1, 2 ** 40)),
    # A 0-d import.
    st.tuples(st.just("scalar"), blocks, st.integers(0, 2 ** 40)),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(operation, min_size=1, max_size=8),
       probe=st.lists(blocks, max_size=50))
def test_store_matches_dense_reference(ops, probe):
    model = Model()
    probe = np.array(probe, dtype=np.int64)
    for op in ops:
        kind = op[0]
        if kind == "write":
            model.write(op[1], op[2])
        elif kind == "import_run":
            model.import_run(op[1], op[2])
        elif kind == "write_source":
            model.write_source(op[1], op[2])
        elif kind == "chunks":
            # A run of consecutive 256-block chunks from a segment start.
            start = op[1] * SEGMENT_BLOCKS
            for k in range(op[2]):
                if start + 256 * k < NBLOCKS:
                    model.import_run(start + 256 * k, 256)
        elif kind == "scatter":
            indices = op[1] + op[1][:3]  # duplicates, unsorted
            stamps = [op[2] + i for i in range(len(indices))]
            model.import_scattered(indices, stamps)
        else:
            model.import_scattered(np.asarray(op[1]), np.asarray(op[2]))
        model.check(probe)


class TestSegments:
    def test_prefill_then_chunked_import_stays_exact(self):
        model = Model()
        model.write(0, NBLOCKS)
        for start in range(0, NBLOCKS, 256):
            model.import_run(start, 256)
        model.check(np.array([0, SEGMENT_BLOCKS - 1, SEGMENT_BLOCKS,
                              NBLOCKS - 1]))

    def test_run_offset(self):
        clock = GenerationClock()
        dev = VirtualBlockDevice(NBLOCKS, clock=clock)
        assert dev.run_offset(0, 10) is None  # never written
        first = dev.write(0, NBLOCKS)
        # One run across every segment boundary.
        assert dev.run_offset(0, NBLOCKS) == first
        assert dev.run_offset(SEGMENT_BLOCKS - 5, SEGMENT_BLOCKS + 5) == first
        # A segment rewritten whole is one run again, with its own offset.
        second = dev.write(SEGMENT_BLOCKS, SEGMENT_BLOCKS)
        assert dev.run_offset(SEGMENT_BLOCKS - 5, SEGMENT_BLOCKS + 5) is None
        assert (dev.run_offset(SEGMENT_BLOCKS, 2 * SEGMENT_BLOCKS)
                == second - SEGMENT_BLOCKS)
        dev.write(SEGMENT_BLOCKS + 1)
        assert dev.run_offset(SEGMENT_BLOCKS, SEGMENT_BLOCKS + 5) is None
        assert dev.run_offset(0, SEGMENT_BLOCKS) == first

    def test_single_scattered_import_materializes_only_its_segment(self):
        model = Model()
        model.write(0, NBLOCKS)
        model.import_scattered([SEGMENT_BLOCKS + 7], [1])
        assert model.dev.run_offset(0, SEGMENT_BLOCKS) is not None
        assert model.dev.run_offset(SEGMENT_BLOCKS, 2 * SEGMENT_BLOCKS) is None
        model.check(np.array([SEGMENT_BLOCKS + 7]))

    def test_byte_mode_is_dense_and_checksums_bytes(self):
        a = VirtualBlockDevice(64, data=True)
        b = VirtualBlockDevice(64, data=True)
        a.write(0, 64)
        b.import_blocks(np.arange(64), *a.export_blocks(np.arange(64)))
        assert a.identical_to(b) and a.checksum() == b.checksum()
        a.write(3, 1, payload=np.full((1, a.block_size), 7, np.uint8))
        b.import_blocks(np.array([3]), a.read(3),
                        np.zeros((1, b.block_size), np.uint8))
        assert np.array_equal(a.snapshot(), b.snapshot())
        assert not a.identical_to(b)
        assert a.checksum() != b.checksum()


CHECKSUM_SCRIPT = textwrap.dedent("""
    import numpy as np
    from repro.storage import VirtualBlockDevice
    dev = VirtualBlockDevice(3 * 65536 + 5)
    dev.write(0, dev.nblocks)
    dev.write(70000, 3)
    dev.import_blocks(np.array([9, 4]), np.array([11, 12]))
    data = VirtualBlockDevice(16, data=True)
    data.write(2, 5)
    print(dev.checksum(), data.checksum())
""")


def test_checksum_is_stable_across_processes():
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
        result = subprocess.run([sys.executable, "-c", CHECKSUM_SCRIPT],
                                env=env, capture_output=True, text=True,
                                check=True)
        outputs.append(result.stdout.split())
    assert outputs[0] == outputs[1]
    assert len(set(outputs[0])) == 2


MEMORY_SCRIPT = textwrap.dedent("""
    import resource
    import numpy as np
    from repro.core.transfer import ChunkRanges
    from repro.storage import GenerationClock, VirtualBlockDevice

    def peak_kib():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    N = 10_001_920
    before = peak_kib()
    clock = GenerationClock()
    src = VirtualBlockDevice(N, clock=clock)
    dst = VirtualBlockDevice(N, clock=clock)
    src.write(0, N)
    for chunk in ChunkRanges(0, N, 256):
        start = int(chunk[0])
        offset = src.run_offset(start, start + chunk.size)
        stamps, data = src.export_blocks(chunk, validated=True,
                                         contiguous=True)
        dst.import_blocks(chunk, stamps, data, validated=True,
                          stamp_offset=offset)
    assert dst.identical_to(src)
    print((peak_kib() - before) / 1024)
""")


def test_paper_size_first_copy_grows_rss_by_under_16_mib():
    """Prefilling a 10,001,920-block disk and streaming its first
    iteration into a fresh destination, as chunk ranges, must not hold
    a whole-disk array (one is 76 MiB)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", MEMORY_SCRIPT], env=env,
                            capture_output=True, text=True, check=True)
    growth_mib = float(result.stdout.strip())
    assert growth_mib < 16, f"peak RSS grew by {growth_mib:.1f} MiB"

