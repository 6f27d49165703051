"""Pipelined bulk-state transfer (disk blocks and memory pages).

Pre-copy moves gigabytes; doing it one block-event at a time would drown
the event loop.  Instead a chunk (default 1 MiB of blocks) is the unit of
work, and three overlapped stages — source disk read, network send,
destination disk write — run as coupled processes with a small buffer
between them, so the achieved rate is set by the slowest stage (as in a
real implementation) rather than the sum of all three.

Pipeline shape and invariants (see docs/TRANSFER.md for the full layer
guide):

* **Stages couple through a bounded Store.**  The reader may run at most
  ``config.pipeline_depth`` chunks ahead of the sender; the writer is
  driven by channel delivery, which the channel keeps in send order.
  Backpressure therefore propagates stage to stage: a slow network stalls
  the reader once the buffer fills, a slow destination disk stalls
  deliveries in the mailbox.
* **Completion = destination durability.**  ``stream()`` returns only
  when every chunk has been *written* at the destination (a completion
  barrier over all stage processes), never merely when the source
  finished sending.  The pre-copy loop's dirty-rate arithmetic depends on
  this.
* **Confirmation tracking for the failure path.**  The streamer records
  which chunks the destination confirmed; after a mid-batch network
  failure :meth:`BlockStreamer.unconfirmed_indices` names exactly the
  blocks that may never have landed, and the retry re-marks them dirty.
* **Adaptive stack hooks** (both optional, both default-off): a
  :class:`~repro.net.delta.DeltaCache` re-encodes re-sent chunks as
  deltas in the send stage, and a :class:`~repro.net.multifd.MultiFD`
  stripes chunks round-robin across N sub-channels with per-lane
  pipelining.  With neither installed the code path is byte-for-byte the
  single-channel pipeline above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from ..net.channel import Channel
from ..net.delta import DeltaCache
from ..net.messages import BlockDataMsg, MemoryPagesMsg
from ..net.multifd import MultiFD
from ..sim import Store
from ..storage.disk import PhysicalDisk
from ..storage.vbd import VirtualBlockDevice
from ..vm.memory import GuestMemory
from .config import MigrationConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment


@dataclass
class StreamStats:
    """Outcome of one streamed batch."""

    units_sent: int = 0
    bytes_sent: int = 0


def split_chunks(indices: np.ndarray, chunk_size: int) -> list[np.ndarray]:
    """Split ``indices`` into ceil(n/chunk_size) nearly-equal chunks.

    Boundaries match ``np.array_split`` exactly (the first ``n % nchunks``
    chunks get one extra element), but the chunks are plain views of the
    one input array — no temporary division arrays per call.  An empty
    input yields no chunks.
    """
    n = indices.size
    if n == 0:
        return []
    nchunks = (n + chunk_size - 1) // chunk_size
    base, extra = divmod(n, nchunks)
    chunks = []
    pos = 0
    for i in range(nchunks):
        step = base + 1 if i < extra else base
        chunks.append(indices[pos:pos + step])
        pos += step
    return chunks


class ChunkRanges:
    """The chunks :func:`split_chunks` would cut from ``arange(start, stop)``,
    kept as bounds.

    Chunk ``k`` becomes an index array only when it is read, so streaming
    a whole disk (the first pre-copy iteration) never holds a whole-disk
    index array.
    """

    __slots__ = ("start", "stop", "_count", "_base", "_extra")

    #: Chunks per index array the iterator cuts views from.
    BATCH = 256

    def __init__(self, start: int, stop: int, chunk_size: int) -> None:
        n = stop - start
        self.start = start
        self.stop = stop
        self._count = (n + chunk_size - 1) // chunk_size
        self._base, self._extra = divmod(n, max(self._count, 1))

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, k: int) -> np.ndarray:
        if not 0 <= k < self._count:
            raise IndexError(k)
        lo = self.start + k * self._base + min(k, self._extra)
        hi = lo + self._base + (k < self._extra)
        return np.arange(lo, hi, dtype=np.int64)

    def __iter__(self):
        # Chunks are views of one index array per batch of chunks: as
        # cheap as split_chunks' views, at batch-sized memory.
        count, base, extra = self._count, self._base, self._extra
        lo = self.start
        for first in range(0, count, self.BATCH):
            last = min(first + self.BATCH, count)
            hi = lo + (last - first) * base + max(
                0, min(last, extra) - first)
            batch = np.arange(lo, hi, dtype=np.int64)
            pos = 0
            for k in range(first, last):
                step = base + (k < extra)
                yield batch[pos:pos + step]
                pos += step
            lo = hi


class BlockStreamer:
    """Moves disk blocks source→destination with stage pipelining."""

    def __init__(
        self,
        env: "Environment",
        src_disk: PhysicalDisk,
        src_vbd: VirtualBlockDevice,
        dst_disk: PhysicalDisk,
        dst_vbd: VirtualBlockDevice,
        channel: Channel,
        config: MigrationConfig,
        multifd: Optional[MultiFD] = None,
        delta: Optional[DeltaCache] = None,
    ) -> None:
        self.env = env
        self.src_disk = src_disk
        self.src_vbd = src_vbd
        self.dst_disk = dst_disk
        self.dst_vbd = dst_vbd
        self.channel = channel
        self.config = config
        #: Optional striped sub-channels; None = single-channel pipeline.
        self.multifd = multifd
        #: Optional XBZRLE-style cache; None = full-content sends.
        self.delta = delta
        #: Chunks of the in-flight (or last) batch, in send order, plus how
        #: many the destination has confirmed written — so a failed batch
        #: can report exactly which blocks never landed.
        self._chunks: "list[np.ndarray] | ChunkRanges" = []
        self._confirmed = 0
        #: Striped batches confirm out of send order; this per-chunk flag
        #: list replaces the prefix counter then (None on the single path).
        self._confirmed_flags: Optional[list[bool]] = None
        #: Called with each chunk's indices right after the destination
        #: confirms the write — the durable-bitmap hook that lets the
        #: source journal "these blocks are no longer pending".
        self.chunk_written = None

    def unconfirmed_indices(self) -> np.ndarray:
        """Blocks of the current batch not yet written at the destination.

        Single channel: the write stage is FIFO, so the confirmed chunks
        are exactly the prefix of the send order and everything after is
        conservatively treated as lost (an in-flight delivery may still
        land, but within one link latency — negligible against any retry
        backoff).  Multifd: each stripe is FIFO but stripes interleave,
        so confirmation is tracked per chunk instead.
        """
        chunks = self._chunks
        if self._confirmed_flags is not None:
            pending = [chunks[k] for k, done
                       in enumerate(self._confirmed_flags) if not done]
        else:
            pending = [chunks[k]
                       for k in range(self._confirmed, len(chunks))]
        if not pending:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(pending)

    def stream(self, indices: np.ndarray, category: str = "disk",
               limited: bool = True) -> Generator:
        """Transfer the given blocks; returns :class:`StreamStats`.

        ``yield from`` inside a process.  Completion means the destination
        has *written* every block, not merely that the source finished
        sending.  ``indices`` is an index array, or a ``range`` of blocks
        (the first pre-copy iteration's whole disk): a range is cut into
        the same chunks as ``arange`` would be, as :class:`ChunkRanges`.
        """
        self._chunks = []
        self._confirmed = 0
        self._confirmed_flags = None
        contiguous = isinstance(indices, range)
        if not contiguous:
            indices = np.asarray(indices, dtype=np.int64)
        total = len(indices) if contiguous else int(indices.size)
        if total == 0:
            return StreamStats()

        env = self.env
        cfg = self.config
        # Validate the whole batch once against both devices: every chunk
        # below is a view of this one array (or a sub-range of this one
        # range), so the per-chunk export and import skip their own bounds
        # reduce.
        if contiguous:
            ends = np.array([indices[0], indices[-1]], dtype=np.int64)
            self.src_vbd.validate_indices(ends)
            self.dst_vbd.validate_indices(ends)
            chunks = ChunkRanges(indices.start, indices.stop,
                                 cfg.chunk_blocks)
        else:
            indices = self.src_vbd.validate_indices(indices)
            self.dst_vbd.validate_indices(indices)
            chunks = split_chunks(indices, cfg.chunk_blocks)
        block_size = self.src_vbd.block_size
        prio = cfg.migration_disk_priority
        self._chunks = chunks
        if self.multifd is not None and len(chunks) > 1:
            stats = yield from self._stream_striped(
                chunks, category, limited, block_size, prio, contiguous,
                total)
            return stats
        ready: Store = Store(env, capacity=cfg.pipeline_depth)

        def reader(env):
            for chunk in chunks:
                yield from self.src_disk.read(chunk.size * block_size,
                                              priority=prio)
                yield ready.put(self._export(chunk, contiguous, block_size))

        def sender(env):
            sent_bytes = 0
            for _ in range(len(chunks)):
                msg = yield ready.get()
                if self.delta is not None:
                    yield from self.delta.encode(env, msg)
                tracer = env.tracer
                span = (tracer.begin("chunk", category="transfer",
                                     blocks=msg.nblocks)
                        if tracer.enabled else None)
                yield from self.channel.send(msg, category=category,
                                             limited=limited)
                wire = msg.wire_nbytes
                if span is not None:
                    tracer.end(span, bytes=wire)
                sent_bytes += wire
            return sent_bytes

        def writer(env):
            for _ in range(len(chunks)):
                msg = yield self.channel.recv()
                yield from self.dst_disk.write(msg.nblocks * block_size,
                                               priority=prio)
                self.dst_vbd.import_blocks(msg.indices, msg.stamps, msg.data,
                                           validated=True,
                                           stamp_offset=msg.stamp_offset)
                self._confirmed += 1
                if self.chunk_written is not None:
                    self.chunk_written(msg.indices)

        read_proc = env.process(reader(env), name="stream:read")
        send_proc = env.process(sender(env), name="stream:send")
        write_proc = env.process(writer(env), name="stream:write")
        result = yield env.all_of([read_proc, send_proc, write_proc])
        return StreamStats(units_sent=total,
                           bytes_sent=int(result[send_proc]))

    def _export(self, chunk: np.ndarray, contiguous: bool,
                block_size: int) -> BlockDataMsg:
        """Read one chunk at the source into its wire message; a chunk of
        a range also carries its stamps' run offset, if it has one."""
        offset = None
        if contiguous:
            start = int(chunk[0])
            offset = self.src_vbd.run_offset(start, start + chunk.size)
        stamps, data = self.src_vbd.export_blocks(
            chunk, validated=True, contiguous=contiguous)
        return BlockDataMsg(chunk, stamps, data, block_size,
                            stamp_offset=offset)

    def _stream_striped(self, chunks, category, limited, block_size,
                        prio, contiguous, total) -> Generator:
        """Multifd path: one shared reader fans chunks out round-robin to
        per-lane sender/writer pairs; a completion barrier joins them.

        The source disk is still one spindle, so a single reader stage
        feeds all lanes in chunk order (lane ``k % N`` gets chunk ``k``)
        — head-of-line blocking on a full lane buffer is deliberate, it
        is what one read stream into N sockets does.  Each lane has its
        own ``pipeline_depth`` read-ahead buffer and preserves in-order
        delivery internally; cross-lane ordering is unconstrained, so
        chunk completion is tracked by position (``lane + i * N``) in
        :attr:`_confirmed_flags` rather than a FIFO prefix count.
        """
        env = self.env
        cfg = self.config
        mfd = self.multifd
        n = mfd.nchannels
        # Lane ``i`` carries chunks ``i, i + n, ...`` (MultiFD.lanes).
        counts = [len(range(lane, len(chunks), n)) for lane in range(n)]
        flags = self._confirmed_flags = [False] * len(chunks)
        buffers = [Store(env, capacity=cfg.pipeline_depth) for _ in range(n)]

        def reader(env):
            for k, chunk in enumerate(chunks):
                yield from self.src_disk.read(chunk.size * block_size,
                                              priority=prio)
                yield buffers[k % n].put(
                    self._export(chunk, contiguous, block_size))

        def sender(env, lane):
            chan = mfd.channels[lane]
            sent_bytes = 0
            for _ in range(counts[lane]):
                msg = yield buffers[lane].get()
                if self.delta is not None:
                    yield from self.delta.encode(env, msg)
                tracer = env.tracer
                span = (tracer.begin("chunk", category="transfer",
                                     blocks=msg.nblocks, lane=lane)
                        if tracer.enabled else None)
                yield from chan.send(msg, category=category, limited=limited)
                wire = msg.wire_nbytes
                if span is not None:
                    tracer.end(span, bytes=wire)
                sent_bytes += wire
            return sent_bytes

        def writer(env, lane):
            chan = mfd.channels[lane]
            for i in range(counts[lane]):
                msg = yield chan.recv()
                yield from self.dst_disk.write(msg.nblocks * block_size,
                                               priority=prio)
                self.dst_vbd.import_blocks(msg.indices, msg.stamps, msg.data,
                                           validated=True,
                                           stamp_offset=msg.stamp_offset)
                flags[lane + i * n] = True
                if self.chunk_written is not None:
                    self.chunk_written(msg.indices)

        read_proc = env.process(reader(env), name="stream:read")
        send_procs = [env.process(sender(env, lane),
                                  name=f"stream:send:fd{lane}")
                      for lane in range(n)]
        write_procs = [env.process(writer(env, lane),
                                   name=f"stream:write:fd{lane}")
                       for lane in range(n)]
        # Completion barrier: the batch commits only once every lane's
        # writer has drained — no chunk may still be in flight.
        result = yield env.all_of([read_proc, *send_procs, *write_procs])
        sent_bytes = sum(int(result[proc]) for proc in send_procs)
        return StreamStats(units_sent=total, bytes_sent=sent_bytes)


class PageStreamer:
    """Moves memory pages source→destination.

    Pages come straight from RAM, so there is no disk stage — the transfer
    is network-bound (plus a small per-page mapping cost folded into the
    message size).  Supports the same optional delta cache and multifd
    striping as :class:`BlockStreamer`; the memory pre-copy rounds are
    where XBZRLE pays off most (hot pages are re-sent every round).
    """

    def __init__(
        self,
        env: "Environment",
        src_mem: GuestMemory,
        dst_mem: Optional[GuestMemory],
        channel: Channel,
        config: MigrationConfig,
        multifd: Optional[MultiFD] = None,
        delta: Optional[DeltaCache] = None,
    ) -> None:
        self.env = env
        self.src_mem = src_mem
        self.dst_mem = dst_mem
        self.channel = channel
        self.config = config
        self.multifd = multifd
        self.delta = delta

    def stream(self, indices: np.ndarray, category: str = "memory",
               limited: bool = True) -> Generator:
        """Transfer the given pages; returns :class:`StreamStats`."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return StreamStats()

        env = self.env
        cfg = self.config
        chunks = split_chunks(indices, cfg.mem_chunk_pages)
        if self.multifd is not None and len(chunks) > 1:
            stats = yield from self._stream_striped(chunks, category, limited)
            return stats

        def receiver(env):
            for _ in range(len(chunks)):
                msg = yield self.channel.recv()
                if self.dst_mem is not None:
                    self.dst_mem.import_pages(msg.indices, msg.stamps)

        def sender(env):
            sent_bytes = 0
            for chunk in chunks:
                stamps = self.src_mem.export_pages(chunk)
                msg = MemoryPagesMsg(chunk, stamps, self.src_mem.page_size)
                if self.delta is not None:
                    yield from self.delta.encode(env, msg)
                tracer = env.tracer
                span = (tracer.begin("chunk", category="transfer",
                                     pages=msg.npages)
                        if tracer.enabled else None)
                yield from self.channel.send(msg, category=category,
                                             limited=limited)
                wire = msg.wire_nbytes
                if span is not None:
                    tracer.end(span, bytes=wire)
                sent_bytes += wire
            return sent_bytes

        recv_proc = env.process(receiver(env), name="pages:recv")
        send_proc = env.process(sender(env), name="pages:send")
        result = yield env.all_of([send_proc, recv_proc])
        return StreamStats(units_sent=int(indices.size),
                           bytes_sent=int(result[send_proc]))

    def _stream_striped(self, chunks, category, limited) -> Generator:
        """Multifd path: per-lane sender/receiver pairs over the stripes.

        Pages are exported at send time (no disk read stage), so each
        lane's sender walks its own stripe independently; the completion
        barrier still joins every lane before the round commits.
        """
        env = self.env
        mfd = self.multifd
        lanes = mfd.lanes(chunks)

        def receiver(env, lane):
            chan = mfd.channels[lane]
            for _ in range(len(lanes[lane])):
                msg = yield chan.recv()
                if self.dst_mem is not None:
                    self.dst_mem.import_pages(msg.indices, msg.stamps)

        def sender(env, lane):
            chan = mfd.channels[lane]
            sent_bytes = 0
            for chunk in lanes[lane]:
                stamps = self.src_mem.export_pages(chunk)
                msg = MemoryPagesMsg(chunk, stamps, self.src_mem.page_size)
                if self.delta is not None:
                    yield from self.delta.encode(env, msg)
                tracer = env.tracer
                span = (tracer.begin("chunk", category="transfer",
                                     pages=msg.npages, lane=lane)
                        if tracer.enabled else None)
                yield from chan.send(msg, category=category, limited=limited)
                wire = msg.wire_nbytes
                if span is not None:
                    tracer.end(span, bytes=wire)
                sent_bytes += wire
            return sent_bytes

        send_procs = [env.process(sender(env, lane),
                                  name=f"pages:send:fd{lane}")
                      for lane in range(mfd.nchannels)]
        recv_procs = [env.process(receiver(env, lane),
                                  name=f"pages:recv:fd{lane}")
                      for lane in range(mfd.nchannels)]
        result = yield env.all_of([*send_procs, *recv_procs])
        sent_bytes = sum(int(result[proc]) for proc in send_procs)
        total = sum(int(chunk.size) for chunk in chunks)
        return StreamStats(units_sent=total, bytes_sent=sent_bytes)
