"""Virtual Block Device (VBD) — the migrated local disk storage.

Substitution note (see DESIGN.md §2): instead of 40 GB of real bytes, each
block carries a **write-generation stamp** — a ``uint64`` drawn from a
monotonically increasing :class:`GenerationClock` shared by every disk in an
experiment.  Two disks hold identical content for block *N* exactly when
their stamps for *N* are equal, so migration consistency checks are exact
and O(n) regardless of disk size.  An optional byte-backed mode stores real
data for small disks, letting integrity tests verify actual content
end-to-end.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConsistencyError, StorageError
from ..units import BLOCK_SIZE


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
        integrity tests can checksum actual content.
    """

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
        self._gen = np.zeros(self.nblocks, dtype=np.uint64)
        self._data: Optional[np.ndarray] = None
        if data:
            self._data = np.zeros((self.nblocks, self.block_size), dtype=np.uint8)

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

    # -- guest-side I/O ------------------------------------------------------

    def write(self, block: int, nblocks: int = 1,
              payload: Optional[np.ndarray] = None) -> int:
        """Overwrite ``nblocks`` blocks from ``block``; returns first new gen.

        Each written block gets a fresh, unique generation.  In byte mode a
        deterministic pattern derived from the generation fills the block
        unless an explicit ``payload`` (shape ``(nblocks, block_size)``) is
        given.
        """
        self._check_extent(block, nblocks)
        first = self.clock.tick(nblocks)
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
        return self._gen[block:block + nblocks].copy()

    def read_data(self, block: int, nblocks: int = 1) -> np.ndarray:
        """Return real bytes for the extent (byte mode only)."""
        if self._data is None:
            raise StorageError("device was created without data backing")
        self._check_extent(block, nblocks)
        return self._data[block:block + nblocks].copy()

    # -- migration-side transfer ---------------------------------------------

    def export_blocks(self, indices: np.ndarray, *, validated: bool = False
                      ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Capture ``(stamps, data)`` for the given block numbers.

        This is what the source reads when it pushes or pre-copies blocks.
        Both arrays are fresh copies: later writes never show through.
        ``validated=True`` skips the bounds check for indices that already
        came out of :meth:`validate_indices` (the bulk pipeline checks a
        whole batch once, then exports it chunk by chunk).
        """
        if not validated:
            indices = self.validate_indices(indices)
        # Integer-array indexing already copies; no second copy needed.
        stamps = self._gen[indices]
        data = self._data[indices] if self._data is not None else None
        return stamps, data

    def import_blocks(
        self,
        indices: np.ndarray,
        stamps: np.ndarray,
        data: Optional[np.ndarray] = None,
        *,
        validated: bool = False,
    ) -> None:
        """Install transferred blocks (the destination's disk update).

        ``validated`` is as for :meth:`export_blocks`; the stamps shape
        is checked either way.
        """
        if not validated:
            indices = self.validate_indices(indices)
        stamps = np.asarray(stamps, dtype=np.uint64)
        if stamps.shape != indices.shape:
            raise StorageError(
                f"stamps shape {stamps.shape} != indices shape {indices.shape}")
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
        return np.flatnonzero(self._gen != 0)

    @property
    def allocated_fraction(self) -> float:
        """Fraction of the device that has ever been written."""
        return float((self._gen != 0).mean())

    def snapshot(self) -> np.ndarray:
        """A copy of all generation stamps (for later diffing)."""
        return self._gen.copy()

    def diff_blocks(self, other: "VirtualBlockDevice") -> np.ndarray:
        """Block numbers whose content differs between the two devices."""
        self._require_same_geometry(other)
        return np.flatnonzero(self._gen != other._gen)

    def identical_to(self, other: "VirtualBlockDevice") -> bool:
        """True iff every block matches (stamps, and bytes in byte mode)."""
        self._require_same_geometry(other)
        if not np.array_equal(self._gen, other._gen):
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
        """Order-sensitive content checksum (stamps; plus bytes in byte mode)."""
        acc = hash(self._gen.tobytes())
        if self._data is not None:
            acc ^= hash(self._data.tobytes())
        return acc

    def _require_same_geometry(self, other: "VirtualBlockDevice") -> None:
        if (self.nblocks, self.block_size) != (other.nblocks, other.block_size):
            raise StorageError(
                f"geometry mismatch: {self.nblocks}x{self.block_size} vs "
                f"{other.nblocks}x{other.block_size}")

    def __repr__(self) -> str:
        mode = "bytes" if self.has_data else "stamps"
        return (f"<VirtualBlockDevice {self.nblocks} x {self.block_size} B "
                f"({mode})>")
