"""Point-to-point network link model.

One :class:`Link` is a single transmission direction with a serialization
resource (one frame on the wire at a time), a line rate, and a propagation
latency.  A :class:`DuplexLink` bundles the two directions of a full-duplex
Ethernet connection — migration data flows source→destination while pull
requests flow destination→source without contending with it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..errors import NetworkError
from ..sim import Resource, Timeout
from ..units import Gbps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment


class Link:
    """One direction of a network path."""

    def __init__(
        self,
        env: "Environment",
        bandwidth: float = 1 * Gbps,
        latency: float = 100e-6,
        name: str = "link",
    ) -> None:
        if bandwidth <= 0:
            raise NetworkError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise NetworkError(f"latency cannot be negative, got {latency}")
        self.env = env
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.name = name
        self._wire = Resource(env, capacity=1)
        self.bytes_sent = 0
        self.busy_time = 0.0
        #: Cached ``(registry, counter)`` for the per-transmit byte metric,
        #: so the hot path skips the name build and registry lookup.  Keyed
        #: on registry identity: instrumenting the env rebuilds the cache.
        self._bytes_counter = None
        #: Optional :class:`~repro.faults.injector.LinkFaultState` installed
        #: by a fault injector.  None (the default) keeps the pristine
        #: fast path: no extra branches taken, timing byte-identical.
        self.faults = None

    def transmission_time(self, nbytes: int) -> float:
        """Serialization delay for ``nbytes`` at line rate."""
        return nbytes / self.bandwidth

    @property
    def effective_latency(self) -> float:
        """Propagation latency including any active degradation window."""
        if self.faults is None:
            return self.latency
        return self.latency + self.faults.extra_latency(self.env.now)

    def transmit(self, nbytes: int, priority: int = 0) -> Generator:
        """Occupy the wire for ``nbytes``; ``yield from`` inside a process.

        Returns once the last byte is on the wire — add :attr:`latency`
        before the receiver may see it (the channel does this).  ``priority``
        lets urgent traffic (pulled blocks) jump the queue.

        With a fault state installed, a transmit starting inside a blackout
        stalls until the window ends (or raises
        :class:`~repro.errors.NetworkError` once the stall exceeds the
        plan's send timeout), and active degradation windows stretch the
        serialization delay by the inverse of their bandwidth factor.
        """
        if nbytes < 0:
            raise NetworkError(f"negative transmit size {nbytes}")
        # try/finally rather than the context-manager form: this runs once
        # per message and the protocol calls are pure overhead here.
        wire = self._wire
        grant = wire.request(priority)
        try:
            yield grant
            if self.faults is not None:
                yield from self.faults.gate(self)
                duration = (self.transmission_time(nbytes)
                            / self.faults.bandwidth_factor(self.env.now))
            else:
                duration = self.transmission_time(nbytes)
            yield Timeout(self.env, duration)
            self.busy_time += duration
        finally:
            wire.release(grant)
        self.bytes_sent += nbytes
        metrics = self.env.metrics
        cached = self._bytes_counter
        if cached is None or cached[0] is not metrics:
            cached = self._bytes_counter = (
                metrics, metrics.counter(f"link.{self.name}.bytes"))
        cached[1].inc(nbytes)

    @property
    def queue_length(self) -> int:
        return self._wire.queue_length

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(self.busy_time / elapsed, 1.0)

    def __repr__(self) -> str:
        return (f"<Link {self.name!r} {self.bandwidth / Gbps:.2f} Gbps "
                f"lat={self.latency * 1e6:.0f} µs>")


class DuplexLink:
    """A full-duplex connection between two machines."""

    def __init__(
        self,
        env: "Environment",
        bandwidth: float = 1 * Gbps,
        latency: float = 100e-6,
        name: str = "lan",
    ) -> None:
        self.forward = Link(env, bandwidth, latency, name=f"{name}:fwd")
        self.backward = Link(env, bandwidth, latency, name=f"{name}:rev")

    @property
    def bytes_sent(self) -> int:
        return self.forward.bytes_sent + self.backward.bytes_sent
