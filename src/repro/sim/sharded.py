"""Sharded simulation: one event heap per rack, conservatively synced.

At datacenter scale (ROADMAP: 1,000+ hosts, 10,000+ VMs) a single
:class:`~repro.sim.engine.Environment` serializes every rack's events
through one heap and walks one giant object graph, which is where the
wall clock goes.  :class:`ShardedEngine` runs one Environment per rack
*shard* and advances them in **conservative lookahead windows**
(Chandy–Misra–Bryant style, time-stepped):

* Racks only influence each other across the inter-rack fabric, whose
  minimum one-way link latency ``L`` is exported by
  :meth:`repro.net.topology.Topology.lookahead`.  No event a shard
  executes at time ``t`` can affect another shard before ``t + L``.
* Each window computes ``t_next`` — the earliest pending event (or
  queued cross-shard message) across all shards — and advances shards
  to ``horizon = t_next + L`` in a fixed, deterministic shard order.
* Cross-shard interactions travel through :meth:`send`: a message
  carries its earliest-visibility time and a callback; it is applied at
  the first window boundary at or after that time (arrival visibility
  is quantized to boundaries — deterministic, and never early).

**Due shards and lazy clocks.**  A window only runs the shards that
have work in it: each shard's next work time (event-queue head or inbox
head, whichever is earlier) sits in a min-heap keyed by ``(time,
position)``, and a window pops the shards keyed at or before its
horizon, plus any shard a message was sent to, and runs them in
registration order.  A shard with nothing due keeps its clock where it
was; it is landed on the latest boundary (a clock-only
``Environment.run``) before it next runs, before a message is applied
to it, and whenever control leaves the engine (:meth:`step_window`,
:meth:`run` and :meth:`settle` returning).  So every clock outside code
sees is the one a run of every shard to every boundary would give, and
the boundaries, message-application instants and ``windows`` count are
exactly those of that loop.

**Application lookahead fast path.**  Message *sources* (e.g. in-flight
cross-rack migrations) register via :meth:`add_source`/
:meth:`remove_source`.  While no source is registered and no message is
queued, no shard can possibly influence another, so the window widens
to the caller's ``until`` — each shard then runs its whole span back to
back on a small heap with a hot cache, which is where the sharded
engine's throughput win over the monolithic engine comes from (the
conservative L-windows are only paid while cross-rack traffic is
actually in flight).

Determinism: shard order is fixed (registration order), window
boundaries are a pure function of event times, and messages apply in
(visibility time, sequence number) order — two runs of the same
scenario produce identical states, reports, and byte ledgers.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from ..errors import SimulationError
from .engine import Environment

INF = float("inf")

#: A cross-shard message callback: ``fn(env)`` runs with the *target*
#: shard's environment, at that shard's current (boundary) time.
MessageFn = Callable[[Environment], None]


class Shard:
    """One rack-local simulation: a name, an Environment, an inbox."""

    __slots__ = ("name", "index", "env", "inbox")

    def __init__(self, name: str, env: Environment, index: int) -> None:
        self.name = name
        self.index = index
        self.env = env
        #: Heap of (visible_at, seq, fn) cross-shard messages awaiting
        #: a window boundary >= visible_at.
        self.inbox: list[tuple[float, int, MessageFn]] = []

    def __repr__(self) -> str:
        return (f"<Shard {self.name!r} now={self.env.now:g} "
                f"inbox={len(self.inbox)}>")


class ShardedEngine:
    """Coordinates per-shard Environments under conservative lookahead."""

    def __init__(self, lookahead: float) -> None:
        if lookahead <= 0.0:
            raise SimulationError(
                f"lookahead must be positive, got {lookahead!r}")
        self.lookahead = float(lookahead)
        self._shards: list[Shard] = []
        self._by_name: dict[str, Shard] = {}
        self._seq = 0
        #: Registered cross-shard message sources (in-flight cross-rack
        #: migrations and the like).  While zero, windows widen to the
        #: caller's horizon.
        self._sources = 0
        #: Messages queued across every inbox.
        self._queued = 0
        # Window-loop state, live only inside :meth:`_advance`.
        #: Latest window boundary of the running loop: every shard's
        #: clock is at least this once landed.  Each loop lands every
        #: clock on its way out, so the next loop starts from -inf (and
        #: a shard registered between loops catches up window by window).
        self._boundary = -INF
        #: Per position in ``_shards``: next work time, or None while the
        #: shard runs (or waits to run) in the current window.
        self._keys: Optional[list[Optional[float]]] = None
        #: Lazy min-heap of (key, position); stale when key != _keys[pos].
        self._heap: list[tuple[float, int]] = []
        #: Positions sent to since they last ran: due next window.
        self._marked: list[int] = []
        #: Min-heap of positions still to run in the current window, and
        #: the position running now.
        self._due: Optional[list[int]] = None
        self._cursor = -1
        #: Synchronisation windows executed.
        self.windows = 0
        #: Messages delivered across shards.
        self.messages_delivered = 0

    # -- construction ------------------------------------------------------

    def add_shard(self, name: str, env: Optional[Environment] = None
                  ) -> Shard:
        """Register a shard; order of registration is execution order."""
        if name in self._by_name:
            raise SimulationError(f"duplicate shard name {name!r}")
        shard = Shard(name, env if env is not None else Environment(),
                      len(self._shards))
        self._shards.append(shard)
        self._by_name[name] = shard
        return shard

    @property
    def shards(self) -> list[Shard]:
        return list(self._shards)

    def shard(self, name: str) -> Shard:
        try:
            return self._by_name[name]
        except KeyError:
            raise SimulationError(f"no shard named {name!r}") from None

    # -- cross-shard messaging ---------------------------------------------

    def send(self, target: str, visible_at: float, fn: MessageFn) -> None:
        """Queue ``fn`` to run in shard ``target`` at the first window
        boundary at or after ``visible_at``.

        Safe to call from inside any shard's processes (that is the
        normal case: a cross-rack migration completing in its source
        shard hands the domain to the destination shard) — but only
        while a source is registered via :meth:`add_source`.  That
        contract is what makes the wide-window fast path sound: with no
        sources live, the coordinator *knows* no send can happen.
        """
        if self._sources <= 0:
            raise SimulationError(
                "send() without a registered source; wrap cross-shard "
                "activity in add_source()/remove_source()")
        shard = self.shard(target)
        self._seq += 1
        when = float(visible_at)
        heapq.heappush(shard.inbox, (when, self._seq, fn))
        self._queued += 1
        if self._keys is not None:
            self._mark(shard.index, when)

    def _mark(self, pos: int, when: float) -> None:
        """Make the shard at ``pos``, just sent a message visible at
        ``when``, due: in this window if it has not run yet (a later
        shard), else in the next one."""
        keys = self._keys
        key = keys[pos]
        if key is None:
            return  # running or due now; re-keyed after it runs
        if self._due is not None and pos > self._cursor:
            keys[pos] = None
            heapq.heappush(self._due, pos)
            return
        if when < key:
            keys[pos] = when
            heapq.heappush(self._heap, (when, pos))
        self._marked.append(pos)

    def add_source(self) -> None:
        """Declare a live cross-shard message source (disables the
        wide-window fast path until :meth:`remove_source`)."""
        self._sources += 1

    def remove_source(self) -> None:
        if self._sources <= 0:
            raise SimulationError("remove_source() without add_source()")
        self._sources -= 1

    @property
    def quiescent(self) -> bool:
        """True when no cross-shard interaction is possible right now."""
        return self._sources == 0 and self._queued == 0

    # -- the conservative loop ---------------------------------------------

    def _deliver_due(self, shard: Shard) -> None:
        """Apply inbox messages visible by the shard's current time."""
        inbox = shard.inbox
        env = shard.env
        while inbox and inbox[0][0] <= env.now:
            _when, _seq, fn = heapq.heappop(inbox)
            self._queued -= 1
            self.messages_delivered += 1
            fn(env)

    def _land(self) -> None:
        """Move every lagging clock up to the latest boundary."""
        boundary = self._boundary
        for shard in self._shards:
            if shard.env.now < boundary:
                shard.env.run(until=boundary)

    def _rekey_all(self) -> None:
        """Key every shard by its next work time; mark the ones holding a
        message that is already visible at their (landed) clock."""
        boundary = self._boundary
        keys: list[Optional[float]] = []
        heap = []
        marked = []
        for pos, shard in enumerate(self._shards):
            key = shard.env.peek()
            if shard.inbox:
                head = shard.inbox[0][0]
                if head < key:
                    key = head
                if head <= max(shard.env.now, boundary):
                    marked.append(pos)
            keys.append(key)
            if key < INF:
                heap.append((key, pos))
        heapq.heapify(heap)
        self._keys, self._heap, self._marked = keys, heap, marked

    def _t_next(self) -> float:
        """Earliest pending work (event or message) across all shards."""
        heap = self._heap
        keys = self._keys
        while heap:
            key, pos = heap[0]
            if keys[pos] == key:
                return key
            heapq.heappop(heap)
        return INF

    def _window(self, horizon: float) -> None:
        """One conservative window: run the due shards to ``horizon``.

        Runs once per window while cross-rack work is in flight, so it
        reads ``Environment._now`` directly (as the event classes do)."""
        self.windows += 1
        keys = self._keys
        heap = self._heap
        heappop = heapq.heappop
        due = []
        if self._marked:
            for pos in self._marked:
                if keys[pos] is not None:
                    keys[pos] = None
                    due.append(pos)
            self._marked = []
        while heap and heap[0][0] <= horizon:
            key, pos = heappop(heap)
            if keys[pos] == key:
                keys[pos] = None
                due.append(pos)
        if len(due) > 1:
            heapq.heapify(due)
        self._due = due
        shards = self._shards
        boundary = self._boundary
        while due:
            pos = self._cursor = heappop(due)
            shard = shards[pos]
            env = shard.env
            inbox = shard.inbox
            if env._now < boundary:
                env.run(until=boundary)
            if inbox and inbox[0][0] <= env._now:
                self._deliver_due(shard)
            if env._now < horizon or env.peek() <= horizon:
                env.run(until=horizon)
            key = env.peek()
            if inbox and inbox[0][0] < key:
                key = inbox[0][0]
            keys[pos] = key
            if key < INF:
                heapq.heappush(heap, (key, pos))
        self._due = None
        self._cursor = -1
        if horizon > boundary:
            self._boundary = horizon

    def _wide_window(self, until: Optional[float]) -> None:
        """No possible cross-shard influence (send() requires a
        registered source, and there are none): run each shard's whole
        remaining span in one hot pass."""
        self.windows += 1
        self._land()
        self._keys = None  # sends during the pass only queue; re-keyed below
        if until is None:
            for shard in self._shards:
                shard.env.run()
        else:
            for shard in self._shards:
                if shard.env.now < until or shard.env.peek() <= until:
                    shard.env.run(until=until)
        self._rekey_all()

    def _advance(self, until: Optional[float] = None, once: bool = False,
                 settle: bool = False) -> bool:
        """The window loop behind :meth:`step_window`, :meth:`run` and
        :meth:`settle`: step windows until out of work (every queue idle
        and every inbox empty, or the next work item beyond ``until``),
        after one window if ``once``, or on reaching quiescence if
        ``settle``.  Lands every clock on the way out; returns whether
        a window ran."""
        shards = self._shards
        if not shards:
            raise SimulationError("no shards registered")
        self._boundary = -INF
        self._rekey_all()
        stepped = False
        try:
            while not (settle and self._sources == 0
                       and self._queued == 0):
                t_next = self._t_next()
                if t_next == INF or (until is not None and t_next > until):
                    break
                if self._sources == 0 and self._queued == 0:
                    self._wide_window(None if until is None
                                      else float(until))
                else:
                    horizon = t_next + self.lookahead
                    if until is not None and horizon > until:
                        horizon = float(until)
                    self._window(horizon)
                stepped = True
                if once:
                    break
        finally:
            self._keys = self._due = None
            self._land()
        return stepped

    def step_window(self, until: Optional[float] = None) -> bool:
        """Execute one synchronization window; False when no work was
        available (every queue idle and every inbox empty, or the next
        work item lies beyond ``until``)."""
        return self._advance(until, once=True)

    def settle(self) -> None:
        """Step windows until the engine is quiescent (no source live
        and no message queued) or no shard has work left."""
        if not self.quiescent:
            self._advance(settle=True)

    def run(self, until: Optional[float] = None) -> None:
        """Advance every shard to ``until`` (or until all work drains).

        With ``until`` given, all shard clocks equal it on return and
        every message visible by then has been applied.  With
        ``until=None`` the engine runs until no shard holds a pending
        event or message — beware perpetual background processes, which
        make that never happen (use a horizon or :meth:`step_window`).
        """
        self._advance(until)
        # Land every clock on the requested horizon and flush messages
        # that became visible by it.
        if until is not None:
            final = float(until)
            for shard in self._shards:
                if shard.env.now < final:
                    shard.env.run(until=final)
                self._deliver_due(shard)

    # -- merged views ------------------------------------------------------

    @property
    def now(self) -> float:
        """The trailing clock across shards (all equal at boundaries
        once landed)."""
        if not self._shards:
            return 0.0
        return min(shard.env.now for shard in self._shards)

    @property
    def events_processed(self) -> int:
        """Total events dispatched across every shard."""
        return sum(shard.env.events_processed for shard in self._shards)

    def stats(self) -> dict:
        """Per-shard progress snapshot (events, clock, inbox depth)."""
        return {
            shard.name: dict(events=shard.env.events_processed,
                             now=shard.env.now,
                             inbox=len(shard.inbox))
            for shard in self._shards
        }

    def __repr__(self) -> str:
        return (f"<ShardedEngine {len(self._shards)} shards "
                f"lookahead={self.lookahead:g} windows={self.windows}>")
