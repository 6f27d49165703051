"""Virtual Block Device (VBD) — the migrated local disk storage.

Substitution note (see DESIGN.md §2): instead of 40 GB of real bytes, each
block carries a **write-generation stamp** — a ``uint64`` drawn from a
monotonically increasing :class:`GenerationClock` shared by every disk in an
experiment.  Two disks hold identical content for block *N* exactly when
their stamps for *N* are equal, so migration consistency checks are exact
and O(n) regardless of disk size.  An optional byte-backed mode stores real
data for small disks, letting integrity tests verify actual content
end-to-end.

Stamps live in fixed segments of :data:`SEGMENT_BLOCKS` blocks.  While a
segment holds one ascending run — stamp ``block + offset`` on ``[lo, hi)``,
zero elsewhere, which is what a prefill or an in-order first-iteration
import leaves — it is kept as the three integers ``(lo, hi, offset)``; the
first write or import that breaks the run *materializes* it into one lazily
zeroed dense array (an anonymous mapping: untouched pages cost no memory).
So a disk's stamp memory follows what was written to it, not its size, the
way the paper's layered block-bitmap allocates leaves only where writes
land.  A device whose segments are all dense, which includes every device
smaller than one segment, runs exactly the one-array code.
"""

from __future__ import annotations

import hashlib
import mmap
from typing import Iterator, Optional

import numpy as np

from ..errors import ConsistencyError, StorageError
from ..units import BLOCK_SIZE

#: log2 of :data:`SEGMENT_BLOCKS`.
SEGMENT_SHIFT = 16
#: Blocks per stamp segment: 512 KiB of dense stamps once materialized.
SEGMENT_BLOCKS = 1 << SEGMENT_SHIFT
#: ``0 .. 4095``: a run materializes as this plus a scalar, 4,096 blocks
#: at a time, written straight into the dense array with no temporary.
_RAMP = np.arange(4096, dtype=np.uint64)
_RAMP.flags.writeable = False


def _untouched_zeros(n: int) -> np.ndarray:
    """``n`` zero stamps in a private anonymous mapping of their own.

    Its pages cost memory only once written.  ``np.zeros`` gives that
    only while the allocator maps the request afresh: glibc serves
    requests under 32 MiB from its heap once a mapped block has been
    freed, and clears them there.
    """
    return np.frombuffer(mmap.mmap(-1, n * 8, flags=mmap.MAP_PRIVATE),
                         dtype=np.uint64)


class GenerationClock:
    """Issues globally unique, monotonically increasing write generations.

    Share one clock between the source and destination disks of an
    experiment (and across repeated migrations, for IM) so that stamp
    equality always means "same version of the block".
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 1) -> None:
        self._next = int(start)

    def tick(self, count: int = 1) -> int:
        """Reserve ``count`` generations; returns the first one."""
        first = self._next
        self._next += count
        return first

    @property
    def current(self) -> int:
        """The next generation that will be issued."""
        return self._next


def _merge_run(run: tuple[int, int, int], start: int, stop: int,
               offset: int) -> Optional[tuple[int, int, int]]:
    """The single run a compact segment holds after stamps ``block +
    offset`` land on ``[start, stop)`` inside it, or None if it would
    hold more than one."""
    lo, hi, off = run
    if lo == hi or (start <= lo and hi <= stop):
        return start, stop, offset
    if off == offset and start <= hi and lo <= stop:
        return min(start, lo), max(stop, hi), offset
    return None


class VirtualBlockDevice:
    """A disk image addressed in fixed-size blocks.

    Parameters
    ----------
    nblocks:
        Number of blocks on the device.
    block_size:
        Bytes per block (default 4 KiB, the paper's bit granularity).
    clock:
        Shared :class:`GenerationClock`; a private one is created if omitted.
    data:
        If True, also keep real bytes per block (small disks only) so that
        integrity tests can checksum actual content.  Byte-backed devices
        keep every stamp segment dense.
    """

    __slots__ = ("nblocks", "block_size", "clock", "_gen", "_runs",
                 "_ncompact", "_table", "_data")

    def __init__(
        self,
        nblocks: int,
        block_size: int = BLOCK_SIZE,
        clock: Optional[GenerationClock] = None,
        data: bool = False,
    ) -> None:
        if nblocks <= 0:
            raise StorageError(f"disk must have at least one block, got {nblocks}")
        if block_size <= 0:
            raise StorageError(f"block size must be positive, got {block_size}")
        self.nblocks = int(nblocks)
        self.block_size = int(block_size)
        self.clock = clock if clock is not None else GenerationClock()
        #: Per-block write generation; 0 = never written (all-zero content).
        #: Authoritative for dense segments only; a compact segment's part
        #: stays untouched zero.
        compact = not data and self.nblocks >= SEGMENT_BLOCKS
        self._gen = (_untouched_zeros(self.nblocks) if compact
                     else np.zeros(self.nblocks, dtype=np.uint64))
        nsegs = (self.nblocks + SEGMENT_BLOCKS - 1) >> SEGMENT_SHIFT
        #: Per segment: None = dense, or ``(lo, hi, offset)`` = compact,
        #: stamp ``block + offset`` on ``[lo, hi)`` and zero elsewhere.  A
        #: fresh device is all compact and empty (``lo == hi``): it is
        #: known to be zero without reading it.  A device smaller than one
        #: segment starts dense: compacting it would save under 512 KiB,
        #: and its first guest write would materialize it anyway.
        self._runs: list[Optional[tuple[int, int, int]]]
        self._data: Optional[np.ndarray] = None
        if data:
            self._data = np.zeros((self.nblocks, self.block_size), dtype=np.uint8)
        if compact:
            self._runs = [(seg << SEGMENT_SHIFT, seg << SEGMENT_SHIFT, 0)
                          for seg in range(nsegs)]
        else:
            self._runs = [None] * nsegs
        #: Compact segments; 0 = every operation runs the dense code.
        self._ncompact = nsegs - self._runs.count(None)
        #: Per-segment ``(lo, hi, offset)`` arrays for vectorized lookups
        #: (dense segments ``lo == hi == 0``); None = stale.
        self._table: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    # -- geometry ----------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total device size in bytes."""
        return self.nblocks * self.block_size

    @property
    def has_data(self) -> bool:
        """True if this device stores real bytes as well as stamps."""
        return self._data is not None

    def _check_extent(self, block: int, nblocks: int) -> None:
        if nblocks < 1:
            raise StorageError(f"extent must cover >= 1 block, got {nblocks}")
        if not (0 <= block and block + nblocks <= self.nblocks):
            raise StorageError(
                f"extent [{block}, {block + nblocks}) outside device of "
                f"{self.nblocks} blocks")

    # -- stamp segments ------------------------------------------------------

    def _absorb(self, start: int, stop: int, offset: int) -> bool:
        """Record stamps ``block + offset`` on ``[start, stop)`` in the
        compact segments the extent covers, if each keeps a single run.

        Otherwise materialize every compact segment the extent touches
        and return False: the caller stores the extent densely.
        """
        runs = self._runs
        first = start >> SEGMENT_SHIFT
        last = (stop - 1) >> SEGMENT_SHIFT
        if first == last:
            # One segment: the usual case (a chunk, a guest write), with
            # _merge_run inlined.
            run = runs[first]
            if run is None:
                return False
            lo, hi, off = run
            if lo == hi or (start <= lo and hi <= stop):
                runs[first] = (start, stop, offset)
            elif off == offset and start <= hi and lo <= stop:
                runs[first] = (min(start, lo), max(stop, hi), offset)
            else:
                self._materialize(first)
                return False
            self._table = None
            return True
        pieces = []
        for seg in range(first, last + 1):
            run = runs[seg]
            merged = None if run is None else _merge_run(
                run, max(start, seg << SEGMENT_SHIFT),
                min(stop, (seg + 1) << SEGMENT_SHIFT), offset)
            if merged is None:
                for seg in range(first, last + 1):
                    if runs[seg] is not None:
                        self._materialize(seg)
                return False
            pieces.append(merged)
        runs[first:last + 1] = pieces
        self._table = None
        return True

    def _materialize(self, seg: int) -> None:
        """Turn compact segment ``seg`` dense."""
        lo, hi, off = self._runs[seg]
        gen = self._gen
        for start in range(lo, hi, _RAMP.size):
            stop = min(start + _RAMP.size, hi)
            np.add(_RAMP[:stop - start], start + off, out=gen[start:stop])
        self._runs[seg] = None
        self._ncompact -= 1
        self._table = None

    def _materialize_at(self, indices: np.ndarray) -> None:
        """Materialize the compact segments holding any of ``indices``."""
        first = int(indices.min()) >> SEGMENT_SHIFT
        last = int(indices.max()) >> SEGMENT_SHIFT
        runs = self._runs
        segs = None
        for seg in range(first, last + 1):
            if runs[seg] is None:
                continue
            if first < seg < last:
                # Inside the span but maybe not hit: look before paying
                # 512 KiB for it.
                if segs is None:
                    segs = indices >> SEGMENT_SHIFT
                if not (segs == seg).any():
                    continue
            self._materialize(seg)

    def _run_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._table is None:
            nsegs = len(self._runs)
            lo = np.zeros(nsegs, dtype=np.int64)
            hi = np.zeros(nsegs, dtype=np.int64)
            off = np.zeros(nsegs, dtype=np.int64)
            for seg, run in enumerate(self._runs):
                if run is not None:
                    lo[seg], hi[seg], off[seg] = run
            self._table = (lo, hi, off)
        return self._table

    def _range_stamps(self, start: int, stop: int) -> np.ndarray:
        """A fresh array of the stamps of blocks ``[start, stop)``."""
        if not self._ncompact:
            return self._gen[start:stop].copy()
        runs = self._runs
        first = start >> SEGMENT_SHIFT
        last = (stop - 1) >> SEGMENT_SHIFT
        out = self._gen[start:stop].copy()
        for seg in range(first, last + 1):
            run = runs[seg]
            if run is not None:
                lo, hi = max(run[0], start), min(run[1], stop)
                if lo < hi:
                    out[lo - start:hi - start] = np.arange(
                        lo + run[2], hi + run[2], dtype=np.uint64)
        return out

    def _segment(self, seg: int) -> np.ndarray:
        """Stamps of segment ``seg``: a view if dense, else a fresh array."""
        start = seg << SEGMENT_SHIFT
        stop = min(start + SEGMENT_BLOCKS, self.nblocks)
        if self._runs[seg] is None:
            return self._gen[start:stop]
        return self._range_stamps(start, stop)

    def _segment_pairs(self, other: "VirtualBlockDevice"
                       ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """``(first block, stamps here, stamps there)`` per segment, skipping
        segments both devices hold as the same run."""
        for seg, (mine, theirs) in enumerate(zip(self._runs, other._runs)):
            if mine is not None and mine == theirs:
                continue
            yield seg << SEGMENT_SHIFT, self._segment(seg), other._segment(seg)

    def run_offset(self, start: int, stop: int) -> Optional[int]:
        """``offset`` if every block of ``[start, stop)`` lies in a compact
        run with stamp ``block + offset`` (one offset for all), else None.

        Reads no stamps: a range-streamed chunk carries the answer to the
        destination, which can then keep the run compact too.
        """
        runs = self._runs
        seg = start >> SEGMENT_SHIFT
        run = runs[seg]
        if run is None or run[0] > start:
            return None
        offset = run[2]
        while run[1] < stop:
            # The run must fill its segment and go on in the next one.
            seg += 1
            if run[1] != seg << SEGMENT_SHIFT:
                return None
            run = runs[seg]
            if run is None or run[0] != seg << SEGMENT_SHIFT \
                    or run[2] != offset:
                return None
        return offset

    # -- guest-side I/O ------------------------------------------------------

    def write(self, block: int, nblocks: int = 1,
              payload: Optional[np.ndarray] = None) -> int:
        """Overwrite ``nblocks`` blocks from ``block``; returns first new gen.

        Each written block gets a fresh, unique generation.  In byte mode a
        deterministic pattern derived from the generation fills the block
        unless an explicit ``payload`` (shape ``(nblocks, block_size)``) is
        given.  A write that keeps its segments' runs (a prefill of a fresh
        device) costs O(segments).
        """
        self._check_extent(block, nblocks)
        first = self.clock.tick(nblocks)
        if self._ncompact and self._absorb(block, block + nblocks,
                                           first - block):
            return first
        if self._data is None and nblocks <= 8:
            # Scalar stamp stores: ~2x cheaper than materialising an arange
            # for the short extents guest writes overwhelmingly are.
            gen = self._gen
            for i in range(nblocks):
                gen[block + i] = first + i
            return first
        self._gen[block:block + nblocks] = np.arange(
            first, first + nblocks, dtype=np.uint64)
        if self._data is not None:
            if payload is not None:
                payload = np.asarray(payload, dtype=np.uint8)
                if payload.shape != (nblocks, self.block_size):
                    raise StorageError(
                        f"payload shape {payload.shape} != "
                        f"({nblocks}, {self.block_size})")
                self._data[block:block + nblocks] = payload
            else:
                # Deterministic content derived from the generation stamp.
                gens = self._gen[block:block + nblocks, None]
                lanes = np.arange(self.block_size, dtype=np.uint64)[None, :]
                self._data[block:block + nblocks] = (
                    (gens * np.uint64(2654435761) + lanes) & np.uint64(0xFF)
                ).astype(np.uint8)
        return first

    def read(self, block: int, nblocks: int = 1) -> np.ndarray:
        """Return the generation stamps of the requested extent (a copy)."""
        self._check_extent(block, nblocks)
        return self._range_stamps(block, block + nblocks)

    def read_data(self, block: int, nblocks: int = 1) -> np.ndarray:
        """Return real bytes for the extent (byte mode only)."""
        if self._data is None:
            raise StorageError("device was created without data backing")
        self._check_extent(block, nblocks)
        return self._data[block:block + nblocks].copy()

    # -- migration-side transfer ---------------------------------------------

    def export_blocks(self, indices: np.ndarray, *, validated: bool = False,
                      contiguous: bool = False
                      ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Capture ``(stamps, data)`` for the given block numbers.

        This is what the source reads when it pushes or pre-copies blocks.
        Both arrays are fresh copies: later writes never show through.
        ``validated=True`` skips the bounds check for indices that already
        came out of :meth:`validate_indices` (the bulk pipeline checks a
        whole batch once, then exports it chunk by chunk).
        ``contiguous=True`` promises ``indices`` is ``indices[0] +
        arange(n)`` (a range-streamed chunk), so the stamps are sliced, or
        made by one ``arange`` inside a compact run, instead of gathered.
        """
        if not validated:
            indices = self.validate_indices(indices)
        if contiguous and indices.size:
            start = int(indices[0])
            stop = start + indices.size
            if not self._ncompact:
                return (self._gen[start:stop].copy(),
                        None if self._data is None
                        else self._data[start:stop].copy())
            run = self._runs[start >> SEGMENT_SHIFT]
            if run is not None and run[0] <= start and stop <= run[1]:
                # Inside one run: one arange, no reduce.
                return np.arange(start + run[2], stop + run[2],
                                 dtype=np.uint64), None
            return self._range_stamps(start, stop), None
        # Integer-array indexing already copies; no second copy needed.
        stamps = self._gen[indices]
        if self._ncompact:
            lo, hi, off = self._run_table()
            segs = indices >> SEGMENT_SHIFT
            hit = (indices >= lo[segs]) & (indices < hi[segs])
            if hit.any():
                stamps = np.where(
                    hit, (indices + off[segs]).astype(np.uint64), stamps)
        data = self._data[indices] if self._data is not None else None
        return stamps, data

    def import_blocks(
        self,
        indices: np.ndarray,
        stamps: np.ndarray,
        data: Optional[np.ndarray] = None,
        *,
        validated: bool = False,
        stamp_offset: Optional[int] = None,
    ) -> None:
        """Install transferred blocks (the destination's disk update).

        ``validated`` is as for :meth:`export_blocks`; the stamps shape
        is checked either way.  ``stamp_offset`` promises ``indices`` is
        contiguous and ``stamps == indices + stamp_offset`` (what
        :meth:`run_offset` said of a range-streamed chunk at the source),
        so a run can stay compact here without reading the stamps.
        """
        if not validated:
            indices = self.validate_indices(indices)
        stamps = np.asarray(stamps, dtype=np.uint64)
        if stamps.shape != indices.shape:
            raise StorageError(
                f"stamps shape {stamps.shape} != indices shape {indices.shape}")
        if self._ncompact and indices.size:
            if stamp_offset is None:
                self._materialize_at(indices)
            else:
                start = int(indices[0])
                if self._absorb(start, start + indices.size, stamp_offset):
                    return
        self._gen[indices] = stamps
        if self._data is not None:
            if data is None:
                raise StorageError(
                    "byte-backed device requires data with imported blocks")
            self._data[indices] = np.asarray(data, dtype=np.uint8)

    def validate_indices(self, indices: np.ndarray) -> np.ndarray:
        """``indices`` as int64 block numbers; raises :class:`StorageError`
        if any lies outside the device."""
        indices = np.asarray(indices, dtype=np.int64)
        # One reduce checks both bounds: a negative int64 reinterprets as a
        # uint64 far above any valid block number.
        if indices.size and int(indices.view(np.uint64).max()) >= self.nblocks:
            raise StorageError("block indices out of device range")
        return indices

    # -- consistency ---------------------------------------------------------

    def allocated_indices(self) -> np.ndarray:
        """Blocks that have ever been written (generation > 0).

        This is the paper's "track all the writes since the Guest OS
        installation" alternative (§VII): a never-written block is all
        zeroes on any fresh device, so a guest-aware migration can skip it
        entirely.
        """
        parts = []
        for seg, run in enumerate(self._runs):
            if run is None:
                hits = np.flatnonzero(self._segment(seg))
                parts.append(hits + (seg << SEGMENT_SHIFT))
            else:
                parts.append(np.arange(run[0], run[1], dtype=np.int64))
        return np.concatenate(parts)

    @property
    def allocated_fraction(self) -> float:
        """Fraction of the device that has ever been written."""
        count = 0
        for seg, run in enumerate(self._runs):
            if run is None:
                count += int(np.count_nonzero(self._segment(seg)))
            else:
                count += run[1] - run[0]
        return count / self.nblocks

    def max_stamp(self) -> int:
        """The newest generation any block holds (0 on a fresh device):
        the floor a clock must pass before stamping writes to this
        device's contents (the sharded cluster's Lamport merge)."""
        best = 0
        for seg, run in enumerate(self._runs):
            if run is None:
                best = max(best, int(self._segment(seg).max()))
            elif run[0] < run[1]:
                best = max(best, run[1] - 1 + run[2])
        return best

    def snapshot(self) -> np.ndarray:
        """A copy of all generation stamps (for later diffing)."""
        return self._range_stamps(0, self.nblocks)

    def diff_blocks(self, other: "VirtualBlockDevice") -> np.ndarray:
        """Block numbers whose content differs between the two devices."""
        self._require_same_geometry(other)
        parts = [np.flatnonzero(mine != theirs) + start
                 for start, mine, theirs in self._segment_pairs(other)]
        return (np.concatenate(parts) if parts
                else np.empty(0, dtype=np.int64))

    def identical_to(self, other: "VirtualBlockDevice") -> bool:
        """True iff every block matches (stamps, and bytes in byte mode)."""
        self._require_same_geometry(other)
        if not all(np.array_equal(mine, theirs)
                   for _, mine, theirs in self._segment_pairs(other)):
            return False
        if self._data is not None and other._data is not None:
            return bool(np.array_equal(self._data, other._data))
        return True

    def assert_identical(self, other: "VirtualBlockDevice") -> None:
        """Raise :class:`ConsistencyError` listing mismatched blocks if any."""
        diff = self.diff_blocks(other)
        if diff.size:
            sample = diff[:10].tolist()
            raise ConsistencyError(
                f"{diff.size} blocks differ between devices; first: {sample}")
        if (self._data is not None and other._data is not None
                and not np.array_equal(self._data, other._data)):
            raise ConsistencyError("stamps match but byte contents differ")

    def checksum(self) -> int:
        """Order-sensitive content checksum (stamps; plus bytes in byte mode).

        A BLAKE2b digest over the stamps, segment by segment, so equal
        contents give equal checksums in any process and whatever the
        segments' layout.
        """
        digest = hashlib.blake2b(digest_size=8)
        for seg in range(len(self._runs)):
            digest.update(self._segment(seg))
        if self._data is not None:
            digest.update(self._data)
        return int.from_bytes(digest.digest(), "big")

    def _require_same_geometry(self, other: "VirtualBlockDevice") -> None:
        if (self.nblocks, self.block_size) != (other.nblocks, other.block_size):
            raise StorageError(
                f"geometry mismatch: {self.nblocks}x{self.block_size} vs "
                f"{other.nblocks}x{other.block_size}")

    def __repr__(self) -> str:
        mode = "bytes" if self.has_data else "stamps"
        return (f"<VirtualBlockDevice {self.nblocks} x {self.block_size} B "
                f"({mode})>")
