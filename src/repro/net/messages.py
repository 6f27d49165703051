"""Wire messages exchanged by the migration protocol.

Every message knows its payload size; the channel adds a fixed per-message
header so that "amount of migrated data" includes protocol overhead, as the
paper's metric definition requires (§III-A: the amount is always larger
than the raw state size "because there must be some redundancy for
synchronization and protocols").

Wire format (see docs/TRANSFER.md for the full layer description)::

    wire_nbytes = payload_nbytes + HEADER_NBYTES

* ``payload_nbytes`` is message-specific: bulk messages charge their
  content plus a per-unit locator (8 bytes per block/page index), control
  messages a small fixed size.
* ``HEADER_NBYTES`` is the fixed framing every message pays (type tag,
  lengths, checksum).  Headers are never compressed.

Bulk messages (:class:`BlockDataMsg`, :class:`MemoryPagesMsg`) support an
:attr:`encoded_nbytes` override: when the transfer pipeline's
:class:`~repro.net.delta.DeltaCache` re-encodes a chunk as deltas against
previously-sent contents, it stamps the smaller on-wire payload size here.
``None`` (the default) keeps the nominal full-content size, so runs
without delta compression are bit-identical.  The simulated *content*
(indices, generation stamps, optional data) always travels whole — only
the charged wire bytes change, exactly as a real delta codec reconstructs
the full block at the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..units import BLOCK_SIZE, PAGE_SIZE

#: Fixed framing overhead per message (type tag, lengths, checksum).
HEADER_NBYTES = 64


@dataclass
class Message:
    """Base class; concrete messages define :attr:`payload_nbytes`."""

    @property
    def payload_nbytes(self) -> int:
        raise NotImplementedError

    @property
    def wire_nbytes(self) -> int:
        """Bytes this message occupies on the wire, header included."""
        return self.payload_nbytes + HEADER_NBYTES


@dataclass
class BlockDataMsg(Message):
    """A batch of disk blocks (pre-copy chunk, post-copy push, or pull reply)."""

    #: Block numbers (an ndarray; read several times per chunk, so the
    #: size accessors below do not re-wrap it).
    indices: np.ndarray
    stamps: np.ndarray
    data: Optional[np.ndarray] = None
    block_size: int = BLOCK_SIZE
    #: True when this batch answers a pull request (sent preferentially).
    pulled: bool = False
    #: Delta-encoded on-wire payload size; None = full content.  Stamped
    #: by :meth:`repro.net.delta.DeltaCache.encode`.
    encoded_nbytes: Optional[int] = None

    @property
    def nblocks(self) -> int:
        return self.indices.size

    @property
    def payload_nbytes(self) -> int:
        if self.encoded_nbytes is not None:
            return self.encoded_nbytes
        # Block content dominates; per-block index costs 8 bytes.
        return self.nblocks * (self.block_size + 8)


@dataclass
class BitmapMsg(Message):
    """The block-bitmap shipped during freeze-and-copy."""

    nbits: int
    dirty_indices: np.ndarray
    serialized_nbytes: int

    @property
    def payload_nbytes(self) -> int:
        return self.serialized_nbytes


@dataclass
class PullRequestMsg(Message):
    """Destination asks the source for one still-dirty block."""

    block: int
    request_id: int = 0

    @property
    def payload_nbytes(self) -> int:
        return 16


@dataclass
class MemoryPagesMsg(Message):
    """A batch of guest memory pages (pre-copy round or final dirty set)."""

    #: Page numbers (an ndarray, like :attr:`BlockDataMsg.indices`).
    indices: np.ndarray
    stamps: np.ndarray
    page_size: int = PAGE_SIZE
    #: Delta-encoded on-wire payload size; None = full content.  Stamped
    #: by :meth:`repro.net.delta.DeltaCache.encode`.
    encoded_nbytes: Optional[int] = None

    @property
    def npages(self) -> int:
        return self.indices.size

    @property
    def payload_nbytes(self) -> int:
        if self.encoded_nbytes is not None:
            return self.encoded_nbytes
        return self.npages * (self.page_size + 8)


@dataclass
class CPUStateMsg(Message):
    """Run-time CPU state (registers, pending interrupts, ...)."""

    state_nbytes: int = 8 * 1024

    @property
    def payload_nbytes(self) -> int:
        return self.state_nbytes


@dataclass
class DeltaMsg(Message):
    """Bradford-style delta: written data + location + size (baseline only)."""

    block: int
    nblocks: int
    block_size: int = BLOCK_SIZE
    stamps: Optional[np.ndarray] = None
    data: Optional[np.ndarray] = None

    @property
    def payload_nbytes(self) -> int:
        return self.nblocks * self.block_size + 16


@dataclass
class ControlMsg(Message):
    """Protocol control traffic (handshakes, phase transitions, acks)."""

    tag: str = "ctl"
    info: Any = None
    extra_nbytes: int = 0

    @property
    def payload_nbytes(self) -> int:
        return 32 + self.extra_nbytes


@dataclass
class PhaseMark:
    """Not a wire message: a locally recorded phase-transition timestamp."""

    phase: str
    time: float
    detail: dict = field(default_factory=dict)
