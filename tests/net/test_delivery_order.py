"""Same-instant delivery order: a regression pin on the channel's queue slot.

A channel delivery must take exactly the place in the event queue that a
dedicated delivery process would: the arrival time is fixed by an URGENT
event at the send instant, and the message lands in the mailbox when the
arrival timeout fires.  These tests line up two equal-latency channels
and two plain timers on the same instants and pin who runs first, so a
change to that queue slot (a NORMAL-priority hop in place of the URGENT
one, say) fails here before it can move a simulated result.
"""

from repro.net import Channel, ControlMsg, Link
from repro.sim import Environment

#: ControlMsg() is 96 wire bytes, so 96 B/s serialises it in exactly 1 s.
WIRE_S = 1.0
LATENCY = 0.5
ARRIVAL = WIRE_S + LATENCY
#: A timer that reaches the send instant just after both senders do.
LATE_DELAYS = (0.0, WIRE_S, LATENCY)


def _rig():
    env = Environment()
    chan_a = Channel(env, Link(env, bandwidth=96, latency=LATENCY), name="a")
    chan_b = Channel(env, Link(env, bandwidth=96, latency=LATENCY), name="b")
    assert ControlMsg().wire_nbytes == 96
    return env, chan_a, chan_b


def _sender(env, chan, tag, log):
    yield from chan.send(ControlMsg(tag=tag))
    log.append(("sent", tag, env.now))


def _timer(env, tag, delays, log, probe=None):
    for delay in delays:
        yield env.timeout(delay)
    log.append(("timer", tag, env.now,
                probe() if probe is not None else None))


def _receiver(env, chan, log):
    msg = yield chan.recv()
    log.append(("recv", msg.tag, env.now))


class TestSameInstantDelivery:
    def test_resume_order_with_waiting_receivers(self):
        env, chan_a, chan_b = _rig()
        log = []
        env.process(_receiver(env, chan_a, log))
        env.process(_receiver(env, chan_b, log))
        # Both timers land on the arrival instant.  "early" creates its
        # timeout at t=0, before either send finishes; "late" creates its
        # last timeout at the send instant, after both senders resumed
        # (its t=0 hop queues its 1 s timeout behind theirs).
        env.process(_timer(env, "early", [ARRIVAL], log))
        env.process(_sender(env, chan_a, "a", log))
        env.process(_sender(env, chan_b, "b", log))
        env.process(_timer(env, "late", LATE_DELAYS, log))
        env.run()
        assert log == [
            ("sent", "a", WIRE_S),
            ("sent", "b", WIRE_S),
            ("timer", "early", ARRIVAL, None),
            ("timer", "late", ARRIVAL, None),
            ("recv", "a", ARRIVAL),
            ("recv", "b", ARRIVAL),
        ]

    def test_mailbox_contents_seen_by_same_instant_timers(self):
        env, chan_a, chan_b = _rig()
        log = []

        def pending():
            return (chan_a.pending, chan_b.pending)

        env.process(_timer(env, "early", [ARRIVAL], log, pending))
        env.process(_sender(env, chan_a, "a", log))
        env.process(_sender(env, chan_b, "b", log))
        env.process(_timer(env, "late", LATE_DELAYS, log, pending))
        env.run()
        # The timeout created at t=0 fires before either arrival.  The one
        # created at the send instant queues behind both arrivals: each
        # was fixed by an URGENT event that ran before the timer resumed.
        assert log == [
            ("sent", "a", WIRE_S),
            ("sent", "b", WIRE_S),
            ("timer", "early", ARRIVAL, (0, 0)),
            ("timer", "late", ARRIVAL, (1, 1)),
        ]

    def test_mailbox_order_is_send_order(self):
        env, chan_a, _chan_b = _rig()
        got = []

        def burst(env):
            for tag in ("x", "y", "z"):
                yield from chan_a.send(ControlMsg(tag=tag))

        def drain(env):
            yield env.timeout(10.0)
            assert chan_a.pending == 3
            for _ in range(3):
                msg = yield chan_a.recv()
                got.append((msg.tag, env.now))

        env.process(burst(env))
        env.process(drain(env))
        env.run()
        assert got == [("x", 10.0), ("y", 10.0), ("z", 10.0)]

    def test_zero_latency_delivery_precedes_same_instant_timers(self):
        env = Environment()
        chan = Channel(env, Link(env, bandwidth=96, latency=0.0))
        log = []

        env.process(_timer(env, "early", [WIRE_S], log,
                           lambda: chan.pending))
        env.process(_sender(env, chan, "a", log))
        env.process(_timer(env, "late", (0.0, WIRE_S, 0.0), log,
                           lambda: chan.pending))
        env.run()
        assert log == [
            ("timer", "early", WIRE_S, 0),
            ("sent", "a", WIRE_S),
            ("timer", "late", WIRE_S, 1),
        ]
