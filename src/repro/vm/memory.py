"""Guest physical memory with dirty-page tracking.

Memory uses the same generation-stamp substitution as the VBD: each page
carries a ``uint64`` write generation, and Xen-style shadow-mode dirty
logging is a :class:`~repro.bitmap.flat.FlatBitmap` over pages.  The memory
pre-copier scans and resets the dirty map per round exactly like the disk
pre-copier scans the block-bitmap.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..bitmap import FlatBitmap
from ..errors import StorageError
from ..storage.vbd import GenerationClock
from ..units import PAGE_SIZE


class GuestMemory:
    """``npages`` of guest RAM with optional dirty logging."""

    def __init__(
        self,
        npages: int,
        page_size: int = PAGE_SIZE,
        clock: Optional[GenerationClock] = None,
    ) -> None:
        if npages <= 0:
            raise StorageError(f"memory must have at least one page, got {npages}")
        self.npages = int(npages)
        self.page_size = int(page_size)
        self.clock = clock if clock is not None else GenerationClock()
        self._gen = np.zeros(self.npages, dtype=np.uint64)
        self._dirty: Optional[FlatBitmap] = None

    @property
    def nbytes(self) -> int:
        return self.npages * self.page_size

    # -- dirty logging (Xen shadow mode) ---------------------------------

    @property
    def logging(self) -> bool:
        """True while dirty logging is enabled."""
        return self._dirty is not None

    def start_logging(self) -> None:
        """Enable dirty logging with a clean map."""
        self._dirty = FlatBitmap(self.npages)

    def stop_logging(self) -> FlatBitmap:
        """Disable logging and return the final dirty map."""
        if self._dirty is None:
            raise StorageError("dirty logging is not enabled")
        final, self._dirty = self._dirty, None
        return final

    def swap_dirty(self) -> FlatBitmap:
        """Take the current round's dirty map, installing a clean one.

        This is the per-round handoff of iterative memory pre-copy.
        """
        if self._dirty is None:
            raise StorageError("dirty logging is not enabled")
        taken, self._dirty = self._dirty, FlatBitmap(self.npages)
        return taken

    def dirty_count(self) -> int:
        """Pages dirtied since the last swap (0 when not logging)."""
        return self._dirty.count() if self._dirty is not None else 0

    def dirty_indices(self) -> np.ndarray:
        if self._dirty is None:
            return np.empty(0, dtype=np.int64)
        return self._dirty.dirty_indices()

    # -- guest-side writes -------------------------------------------------

    def touch(self, indices: np.ndarray) -> None:
        """The guest writes the given pages."""
        indices = self._check_indices(indices)
        size = indices.size
        if size == 0:
            return
        first = self.clock.tick(size)
        self._gen[indices] = np.arange(first, first + size, dtype=np.uint64)
        if self._dirty is not None:
            # Already validated against npages == nbits just above.
            self._dirty._set_many_unchecked(indices)

    def touch_range(self, start: int, count: int) -> None:
        """The guest writes ``count`` consecutive pages from ``start``."""
        if not (0 <= start and start + count <= self.npages):
            raise StorageError(
                f"page range [{start}, {start + count}) outside memory")
        if count == 0:
            return
        first = self.clock.tick(count)
        self._gen[start:start + count] = np.arange(
            first, first + count, dtype=np.uint64)
        if self._dirty is not None:
            self._dirty.set_range(start, count)

    # -- migration transfer ------------------------------------------------

    def export_pages(self, indices: np.ndarray) -> np.ndarray:
        """Capture page stamps for transfer (a fresh copy: integer-array
        indexing already copies)."""
        return self._gen[self._check_indices(indices)]

    def import_pages(self, indices: np.ndarray, stamps: np.ndarray) -> None:
        """Install transferred pages."""
        indices = self._check_indices(indices)
        stamps = np.asarray(stamps, dtype=np.uint64)
        if stamps.shape != indices.shape:
            raise StorageError("stamps/indices shape mismatch")
        self._gen[indices] = stamps

    def snapshot(self) -> np.ndarray:
        return self._gen.copy()

    def identical_to(self, other: "GuestMemory") -> bool:
        if (self.npages, self.page_size) != (other.npages, other.page_size):
            return False
        return bool(np.array_equal(self._gen, other._gen))

    def _check_indices(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        # One reduce checks both bounds: a negative int64 reinterprets as a
        # uint64 far above any valid page number.
        if indices.size and int(indices.view(np.uint64).max()) >= self.npages:
            raise StorageError("page indices out of range")
        return indices

    def __repr__(self) -> str:
        state = "logging" if self.logging else "plain"
        return f"<GuestMemory {self.npages} x {self.page_size} B ({state})>"
