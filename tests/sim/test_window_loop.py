"""Differential test of ShardedEngine's due-shard window loop.

``ReferenceEngine`` below keeps the straightforward conservative loop:
every window scans every shard for ``t_next``, then delivers and runs
*every* shard up to the horizon in registration order.  The production
engine runs only the shards due in a window and lands idle clocks
lazily; on seeded random schedules both must produce the same per-shard
``(time, label)`` logs, delivery instants, ``windows`` counts, return
values and shard clocks after every ``step_window``/``run`` call.
"""

import heapq
import random

import pytest

from repro.errors import SimulationError
from repro.sim import ShardedEngine


class ReferenceEngine(ShardedEngine):
    """The per-shard-per-window loop the due-shard loop must match."""

    def send(self, target, visible_at, fn):
        if self._sources <= 0:
            raise SimulationError("send() without a registered source")
        shard = self.shard(target)
        self._seq += 1
        heapq.heappush(shard.inbox, (float(visible_at), self._seq, fn))

    @property
    def quiescent(self):
        return self._sources == 0 and not any(
            shard.inbox for shard in self._shards)

    def _deliver_due(self, shard):
        inbox = shard.inbox
        env = shard.env
        while inbox and inbox[0][0] <= env.now:
            _when, _seq, fn = heapq.heappop(inbox)
            self.messages_delivered += 1
            fn(env)

    def _t_next(self):
        t = float("inf")
        for shard in self._shards:
            peek = shard.env.peek()
            if peek < t:
                t = peek
            if shard.inbox and shard.inbox[0][0] < t:
                t = shard.inbox[0][0]
        return t

    def step_window(self, until=None):
        if not self._shards:
            raise SimulationError("no shards registered")
        shards = self._shards
        t_next = self._t_next()
        if t_next == float("inf"):
            return False
        if until is not None and t_next > until:
            return False
        if self.quiescent:
            self.windows += 1
            if until is None:
                for shard in shards:
                    shard.env.run()
                return True
            for shard in shards:
                if shard.env.now < until or shard.env.peek() <= until:
                    shard.env.run(until=float(until))
            return True
        horizon = t_next + self.lookahead
        if until is not None and horizon > until:
            horizon = float(until)
        self.windows += 1
        for shard in shards:
            self._deliver_due(shard)
            if shard.env.now < horizon or shard.env.peek() <= horizon:
                shard.env.run(until=horizon)
        return True

    def settle(self):
        while not self.quiescent:
            if not self.step_window():
                break

    def run(self, until=None):
        while self.step_window(until=until):
            pass
        if until is not None:
            final = float(until)
            for shard in self._shards:
                if shard.env.now < final:
                    shard.env.run(until=final)
                self._deliver_due(shard)


#: Delays drawn from a coarse grid (plus a few off-grid ones) so timers
#: in different shards tie at the same instant and at window boundaries.
_GRID = (0.0, 0.01, 0.02, 0.05, 0.1)


class _Schedule:
    """One seeded random schedule, replayable on either engine."""

    def __init__(self, engine_cls, seed: int) -> None:
        self.rng = random.Random(seed)
        self.lookahead = self.rng.choice((0.01, 0.015, 0.05))
        self.engine = engine_cls(lookahead=self.lookahead)
        nshards = self.rng.randint(2, 6)
        self.names = [f"s{i}" for i in range(nshards)]
        self.shards = [self.engine.add_shard(name) for name in self.names]
        self.log = {name: [] for name in self.names}
        self.trace = []
        #: No new sends while shard groups run narrowed.
        self.quiet = False
        for shard in self.shards:
            for j in range(self.rng.randint(0, 3)):
                self.start_timer(shard, f"t{j}")

    def delay(self) -> float:
        if self.rng.random() < 0.7:
            return self.rng.choice(_GRID)
        return round(self.rng.uniform(0.0, 0.08), 4)

    def start_timer(self, shard, label: str) -> None:
        ticks = self.rng.randint(1, 12)
        sends = self.rng.random() < 0.5
        shard.env.process(self.timer(shard, label, ticks, sends), name=label)

    def timer(self, shard, label: str, ticks: int, sends: bool):
        env = shard.env
        for k in range(ticks):
            yield env.timeout(self.delay())
            self.log[shard.name].append((env.now, f"{label}.{k}"))
            if sends and not self.quiet and self.rng.random() < 0.3:
                self.engine.add_source()
                self.send(env, f"{shard.name}/{label}.{k}", hops=0)

    def send(self, env, tag: str, hops: int) -> None:
        """Send from a shard (at its clock) to a random shard; the message
        holds the caller's source until its chain ends."""
        target = self.rng.choice(self.names)
        visible = env.now
        if self.rng.random() < 0.2:
            visible += self.rng.choice((0.0, self.lookahead, 0.03))
        self.engine.send(target, visible,
                         lambda dst: self.deliver(dst, target, tag, hops))

    def deliver(self, env, target: str, tag: str, hops: int) -> None:
        self.log[target].append((env.now, f"msg:{tag}#{hops}"))
        roll = self.rng.random()
        if roll < 0.4 and hops < 4:
            # Re-send at the delivery instant, i.e. exactly at a boundary.
            self.send(env, tag, hops + 1)
            return
        if roll < 0.6:
            self.start_timer(self.engine.shard(target), f"{tag}@{hops}")
        self.engine.remove_source()

    def record(self, op: str, result) -> None:
        self.trace.append((op, result, self.engine.windows,
                           self.engine.messages_delivered,
                           self.engine.quiescent,
                           tuple(shard.env.now for shard in self.shards),
                           tuple(len(shard.inbox) for shard in self.shards)))

    def outside_send(self) -> None:
        """A send from outside the engine, between calls, at one shard's
        clock (which may trail or lead the target's)."""
        self.engine.add_source()
        src = self.rng.choice(self.shards)
        self.send(src.env, f"out@{src.name}", hops=0)

    def run_groups(self, horizon: float) -> None:
        """Drain two shard groups one after the other with the engine
        narrowed to each (``run_forked``'s inline path), under a live
        source so the groups step narrow windows."""
        self.quiet = True
        self.engine.add_source()
        half = self.rng.randint(1, len(self.names) - 1)
        groups = [self.names[:half], self.names[half:]]
        until = None
        if self.rng.random() < 0.5:
            until = round(horizon + self.rng.uniform(0.0, 0.3), 3)
        out = self.engine.run_forked(
            until=until, groups=groups, nworkers=0,
            extract=lambda shard: (shard.env.now,
                                   shard.env.events_processed))
        self.engine.remove_source()
        self.quiet = False
        self.record(f"groups<={until}", sorted(out.items()))

    def drive(self) -> "_Schedule":
        rng = self.rng
        horizon = 0.0
        for _ in range(rng.randint(3, 8)):
            roll = rng.random()
            if roll < 0.35:
                for _ in range(rng.randint(1, 25)):
                    self.record("step", self.engine.step_window())
            elif roll < 0.5:
                until = round(horizon + rng.uniform(0.0, 0.3), 3)
                self.record(f"step<={until}",
                            self.engine.step_window(until=until))
            elif roll < 0.75:
                horizon = round(horizon + rng.uniform(0.0, 0.4), 3)
                self.engine.run(until=horizon)
                self.record(f"run<={horizon}", None)
            elif roll < 0.8:
                self.engine.settle()
                self.record("settle", None)
            elif roll < 0.9 and self.engine.quiescent:
                self.run_groups(horizon)
            else:
                self.outside_send()
                self.record("outside-send", None)
            if rng.random() < 0.3:
                shard = rng.choice(self.shards)
                self.start_timer(shard, f"late{len(self.trace)}")
        # Drain to the end: a run without horizon leaves shard clocks
        # apart, then more cross-shard work must still land the same.
        self.engine.run()
        self.record("run", None)
        for _ in range(2):
            self.outside_send()
            shard = rng.choice(self.shards)
            self.start_timer(shard, f"tail{len(self.trace)}")
            for _ in range(rng.randint(1, 10)):
                self.record("step", self.engine.step_window())
            self.engine.run()
            self.record("run", None)
        return self


@pytest.mark.parametrize("seed", range(120))
def test_due_shard_loop_matches_reference(seed):
    ref = _Schedule(ReferenceEngine, seed).drive()
    new = _Schedule(ShardedEngine, seed).drive()
    assert new.log == ref.log
    assert new.trace == ref.trace
    assert new.engine.windows == ref.engine.windows


def test_schedules_exercise_the_hard_cases():
    """The random schedules must reach several due shards in one
    window, messages applied at boundaries, and diverged clocks."""
    multi_due = boundary_sends = diverged = 0
    for seed in range(120):
        sched = _Schedule(ReferenceEngine, seed).drive()
        for _op, _res, _w, _d, _q, clocks, _inbox in sched.trace:
            diverged += len(set(clocks)) > 1
        for entries in sched.log.values():
            boundary_sends += sum(1 for _t, label in entries
                                  if label.startswith("msg:")
                                  and not label.endswith("#0"))
        times = sorted(t for entries in sched.log.values()
                       for t, _label in entries)
        multi_due += sum(1 for a, b in zip(times, times[1:])
                         if 0.0 < b - a < sched.lookahead)
    assert multi_due > 0 and boundary_sends > 0 and diverged > 0


def test_single_due_shard_window_costs_one_run_and_one_peek(monkeypatch):
    """A lone busy shard: each window runs it once and peeks once; the
    idle shards are not touched until control leaves the engine."""
    from repro.sim.engine import Environment

    engine = ShardedEngine(lookahead=0.01)
    busy = engine.add_shard("busy")
    for i in range(3):
        engine.add_shard(f"idle{i}")

    def ticker(env):
        for _ in range(50):
            yield env.timeout(0.05)

    busy.env.process(ticker(busy.env), name="tick")
    engine.add_source()
    engine.step_window()  # absorb the process-start event
    calls = {"run": 0, "peek": 0}
    run, peek = Environment.run, Environment.peek

    def counted_run(self, until=None):
        calls["run"] += 1
        return run(self, until)

    def counted_peek(self):
        calls["peek"] += 1
        return peek(self)

    monkeypatch.setattr(Environment, "run", counted_run)
    monkeypatch.setattr(Environment, "peek", counted_peek)
    before = engine.windows
    engine.run(until=2.0)
    windows = engine.windows - before
    # One run + one peek per window, plus a constant for entry (one peek
    # per shard) and exit (landing the idle clocks, the final flush).
    assert windows > 30
    assert calls["run"] <= windows + 8
    assert calls["peek"] <= windows + 4
    assert all(shard.env.now == 2.0 for shard in engine.shards)
