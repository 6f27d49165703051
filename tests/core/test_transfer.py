"""Unit tests for the pipelined block/page streamers."""

import numpy as np
import pytest

from repro.core import BlockStreamer, MigrationConfig, PageStreamer
from repro.errors import StorageError
from repro.net import Channel, Link
from repro.sim import Environment
from repro.storage import GenerationClock, PhysicalDisk, VirtualBlockDevice
from repro.storage.vbd import SEGMENT_BLOCKS
from repro.units import MB, MiB
from repro.vm import GuestMemory


@pytest.fixture
def env():
    return Environment()


def make_disk_pair(env, nblocks=1000, data=False):
    clock = GenerationClock()
    src = VirtualBlockDevice(nblocks, clock=clock, data=data)
    dst = VirtualBlockDevice(nblocks, clock=clock, data=data)
    src_disk = PhysicalDisk(env, 100 * MiB, 100 * MiB, 0)
    dst_disk = PhysicalDisk(env, 100 * MiB, 100 * MiB, 0)
    return src, dst, src_disk, dst_disk, clock


class TestBlockStreamer:
    def test_transfers_all_blocks(self, env):
        src, dst, sd, dd, _ = make_disk_pair(env)
        src.write(0, 1000)
        chan = Channel(env, Link(env, 125 * MB, 0))
        streamer = BlockStreamer(env, sd, src, dd, dst, chan,
                                 MigrationConfig(chunk_blocks=100))

        def proc(env):
            return (yield from streamer.stream(np.arange(1000)))

        stats = env.run(until=env.process(proc(env)))
        assert stats.units_sent == 1000
        assert stats.bytes_sent > 1000 * 4096
        assert dst.identical_to(src)

    def test_empty_indices_is_noop(self, env):
        src, dst, sd, dd, _ = make_disk_pair(env)
        chan = Channel(env, Link(env, 125 * MB, 0))
        streamer = BlockStreamer(env, sd, src, dd, dst, chan,
                                 MigrationConfig())

        def proc(env):
            return (yield from streamer.stream(np.empty(0, dtype=np.int64)))

        stats = env.run(until=env.process(proc(env)))
        assert stats.units_sent == 0
        assert env.now == 0.0

    def test_rate_is_bottlenecked_not_summed(self, env):
        """Pipelining: total time ~ slowest stage, not the sum of stages."""
        src, dst, sd, dd, _ = make_disk_pair(env, nblocks=2560)
        nbytes = 2560 * 4096  # 10 MiB
        chan = Channel(env, Link(env, 100 * MiB, 0))
        streamer = BlockStreamer(env, sd, src, dd, dst, chan,
                                 MigrationConfig(chunk_blocks=256))

        def proc(env):
            yield from streamer.stream(np.arange(2560))
            return env.now

        elapsed = env.run(until=env.process(proc(env)))
        one_stage = nbytes / (100 * MiB)
        # Must be close to a single stage's time (pipelined), far below 3x.
        assert elapsed < 1.6 * one_stage

    def test_byte_mode_content_travels(self, env):
        src, dst, sd, dd, _ = make_disk_pair(env, nblocks=64, data=True)
        src.write(0, 64)
        chan = Channel(env, Link(env, 125 * MB, 0))
        streamer = BlockStreamer(env, sd, src, dd, dst, chan,
                                 MigrationConfig(chunk_blocks=16))

        def proc(env):
            yield from streamer.stream(np.arange(64))

        env.run(until=env.process(proc(env)))
        assert np.array_equal(dst.read_data(0, 64), src.read_data(0, 64))

    def test_subset_transfer(self, env):
        src, dst, sd, dd, _ = make_disk_pair(env)
        src.write(0, 1000)
        chan = Channel(env, Link(env, 125 * MB, 0))
        streamer = BlockStreamer(env, sd, src, dd, dst, chan,
                                 MigrationConfig(chunk_blocks=64))
        subset = np.array([1, 5, 500, 999])

        def proc(env):
            yield from streamer.stream(subset)

        env.run(until=env.process(proc(env)))
        assert dst.diff_blocks(src).size == 1000 - 4

    @pytest.mark.parametrize("bad", [[0, 1000], [-1, 3]])
    def test_out_of_range_batch_rejected_before_any_io(self, env, bad):
        src, dst, sd, dd, _ = make_disk_pair(env)
        chan = Channel(env, Link(env, 125 * MB, 0))
        streamer = BlockStreamer(env, sd, src, dd, dst, chan,
                                 MigrationConfig(chunk_blocks=1))

        def proc(env):
            yield from streamer.stream(np.array(bad))

        with pytest.raises(StorageError):
            env.run(until=env.process(proc(env)))
        assert sd.ops == 0 and chan.messages_sent == 0


class TestPageStreamer:
    def test_transfers_pages(self, env):
        clock = GenerationClock()
        src_mem = GuestMemory(256, clock=clock)
        dst_mem = GuestMemory(256, clock=clock)
        src_mem.touch(np.arange(256))
        chan = Channel(env, Link(env, 125 * MB, 0))
        streamer = PageStreamer(env, src_mem, dst_mem, chan,
                                MigrationConfig(mem_chunk_pages=64))

        def proc(env):
            return (yield from streamer.stream(np.arange(256)))

        stats = env.run(until=env.process(proc(env)))
        assert stats.units_sent == 256
        assert dst_mem.identical_to(src_mem)

    def test_no_destination_memory_allowed(self, env):
        src_mem = GuestMemory(64)
        chan = Channel(env, Link(env, 125 * MB, 0))
        streamer = PageStreamer(env, src_mem, None, chan, MigrationConfig())

        def proc(env):
            return (yield from streamer.stream(np.arange(64)))

        stats = env.run(until=env.process(proc(env)))
        assert stats.units_sent == 64

    def test_empty_pages_noop(self, env):
        src_mem = GuestMemory(64)
        chan = Channel(env, Link(env, 125 * MB, 0))
        streamer = PageStreamer(env, src_mem, None, chan, MigrationConfig())

        def proc(env):
            return (yield from streamer.stream(np.empty(0, dtype=np.int64)))

        stats = env.run(until=env.process(proc(env)))
        assert stats.units_sent == 0


class TestSplitChunks:
    def test_zero_length_payload_yields_no_chunks(self):
        from repro.core.transfer import split_chunks

        assert split_chunks(np.empty(0, dtype=np.int64), 128) == []

    def test_chunk_size_larger_than_payload(self):
        from repro.core.transfer import split_chunks

        indices = np.arange(10)
        chunks = split_chunks(indices, 1000)
        assert len(chunks) == 1
        np.testing.assert_array_equal(chunks[0], indices)

    def test_non_divisible_tail_matches_array_split(self):
        from repro.core.transfer import split_chunks

        for n, size in [(10, 3), (1000, 128), (7, 7), (8, 7), (1, 4),
                        (129, 128), (255, 128)]:
            indices = np.arange(n)
            nchunks = (n + size - 1) // size
            expected = np.array_split(indices, nchunks)
            got = split_chunks(indices, size)
            assert len(got) == len(expected)
            for mine, ref in zip(got, expected):
                np.testing.assert_array_equal(mine, ref)
            # Every element appears exactly once, in order.
            np.testing.assert_array_equal(np.concatenate(got), indices)
            # No chunk exceeds the requested size.
            assert max(len(c) for c in got) <= size

    def test_chunks_are_views_not_copies(self):
        from repro.core.transfer import split_chunks

        indices = np.arange(16)
        for chunk in split_chunks(indices, 4):
            assert chunk.base is indices


class TestStriping:
    """Streamer-level multifd behaviour (pipeline_depth interaction)."""

    def _stream(self, env, nblocks, *, multifd_channels, pipeline_depth):
        from repro.net import MultiFD

        src, dst, sd, dd, _ = make_disk_pair(env, nblocks=nblocks)
        src.write(0, nblocks)
        chan = Channel(env, Link(env, 125 * MB, 0))
        mfd = (MultiFD(env, chan, multifd_channels)
               if multifd_channels > 1 else None)
        cfg = MigrationConfig(chunk_blocks=64, pipeline_depth=pipeline_depth,
                              multifd_channels=multifd_channels)
        streamer = BlockStreamer(env, sd, src, dd, dst, chan, cfg,
                                 multifd=mfd)

        def proc(env):
            return (yield from streamer.stream(np.arange(nblocks)))

        stats = env.run(until=env.process(proc(env)))
        assert dst.identical_to(src)
        return stats, mfd

    @pytest.mark.parametrize("depth", [1, 2, 8])
    @pytest.mark.parametrize("nchannels", [2, 4])
    def test_pipeline_depth_times_multifd(self, depth, nchannels):
        """Every depth x fan-out combination moves all blocks and spreads
        traffic across every lane (each buffer is depth-bounded, so a slow
        lane backpressures the shared reader without deadlock)."""
        env = Environment()
        stats, mfd = self._stream(env, 1000, multifd_channels=nchannels,
                                  pipeline_depth=depth)
        assert stats.units_sent == 1000
        assert all(chan.total_bytes > 0 for chan in mfd.channels)
        assert mfd.total_bytes == stats.bytes_sent

    def test_striped_byte_total_matches_single_channel(self):
        baseline, _ = self._stream(Environment(), 1000, multifd_channels=1,
                                   pipeline_depth=4)
        striped, _ = self._stream(Environment(), 1000, multifd_channels=4,
                                  pipeline_depth=4)
        assert striped.bytes_sent == baseline.bytes_sent
        assert striped.units_sent == baseline.units_sent

    def test_single_chunk_batch_skips_striping(self):
        """A batch that fits one chunk rides the base channel even when a
        MultiFD is attached (striping one chunk would only add overhead)."""
        env = Environment()
        from repro.net import MultiFD

        src, dst, sd, dd, _ = make_disk_pair(env, nblocks=32)
        src.write(0, 32)
        chan = Channel(env, Link(env, 125 * MB, 0))
        mfd = MultiFD(env, chan, 4)
        streamer = BlockStreamer(env, sd, src, dd, dst, chan,
                                 MigrationConfig(chunk_blocks=64),
                                 multifd=mfd)

        def proc(env):
            return (yield from streamer.stream(np.arange(32)))

        stats = env.run(until=env.process(proc(env)))
        assert stats.units_sent == 32
        assert mfd.total_bytes == 0
        assert chan.total_bytes == stats.bytes_sent


class TestRangeStreaming:
    """The first pre-copy iteration streams ``range(nblocks)``: the same
    chunks, bytes and timeline as ``np.arange(nblocks)``, without a
    whole-disk index array."""

    #: Two segments and a partial third (smaller disks are dense).
    NBLOCKS = 2 * SEGMENT_BLOCKS + 1000

    def _streamer(self, env, nblocks, nchannels):
        from repro.net import MultiFD

        src, dst, sd, dd, _ = make_disk_pair(env, nblocks=nblocks)
        src.write(0, nblocks)
        src.write(37, 3)  # one dense segment among compact ones
        chan = Channel(env, Link(env, 125 * MB, 0))
        mfd = MultiFD(env, chan, nchannels) if nchannels > 1 else None
        cfg = MigrationConfig(chunk_blocks=1000, multifd_channels=nchannels)
        return (BlockStreamer(env, sd, src, dd, dst, chan, cfg, multifd=mfd),
                src, dst)

    def test_chunk_ranges_match_split_chunks(self):
        from repro.core.transfer import ChunkRanges, split_chunks

        for start, stop, size in [(0, 10, 3), (5, 1000, 7), (3, 70001, 256),
                                  (0, 600, 1), (7, 8, 5)]:
            ranges = ChunkRanges(start, stop, size)
            expected = split_chunks(np.arange(start, stop), size)
            assert len(ranges) == len(expected)
            assert all(np.array_equal(a, b)
                       for a, b in zip(ranges, expected))
            assert all(np.array_equal(ranges[k], expected[k])
                       for k in range(len(expected)))
        with pytest.raises(IndexError):
            ChunkRanges(0, 10, 3)[4]

    @pytest.mark.parametrize("nchannels", [1, 3])
    def test_range_streams_like_the_index_array(self, nchannels):
        n = self.NBLOCKS
        results = []
        for indices in (np.arange(n), range(n)):
            env = Environment()
            streamer, src, dst = self._streamer(env, n, nchannels)

            def proc(env, streamer=streamer, indices=indices):
                return (yield from streamer.stream(indices))

            stats = env.run(until=env.process(proc(env)))
            assert dst.identical_to(src)
            results.append((stats.units_sent, stats.bytes_sent, env.now))
        assert results[0] == results[1]

    @pytest.mark.parametrize("nchannels", [1, 3])
    def test_unconfirmed_indices_stay_exact(self, nchannels):
        n = self.NBLOCKS
        pending = []
        for indices in (np.arange(n), range(n)):
            env = Environment()
            streamer, src, dst = self._streamer(env, n, nchannels)

            def proc(env, streamer=streamer, indices=indices):
                return (yield from streamer.stream(indices))

            env.process(proc(env))
            env.run(until=1.0)  # mid-batch
            unconfirmed = streamer.unconfirmed_indices()
            landed = np.setdiff1d(np.arange(n), unconfirmed)
            assert 0 < unconfirmed.size < n
            assert np.array_equal(dst.export_blocks(landed)[0],
                                  src.export_blocks(landed)[0])
            pending.append(unconfirmed)
        assert np.array_equal(pending[0], pending[1])

    def test_out_of_range_range_rejected(self):
        env = Environment()
        streamer, _, _ = self._streamer(env, 100, 1)

        def proc(env):
            return (yield from streamer.stream(range(50, 101)))

        with pytest.raises(StorageError):
            env.run(until=env.process(proc(env)))
