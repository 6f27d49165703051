"""Unit tests for Resource / Store / Container."""

import pytest

from repro.errors import SimulationError
from repro.sim import Container, Environment, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_serializes_users(self, env):
        res = Resource(env, capacity=1)
        log = []

        def user(env, name):
            with res.request() as req:
                yield req
                log.append((env.now, name, "in"))
                yield env.timeout(1)
            log.append((env.now, name, "out"))

        env.process(user(env, "a"))
        env.process(user(env, "b"))
        env.run()
        assert log == [(0, "a", "in"), (1, "a", "out"),
                       (1, "b", "in"), (2, "b", "out")]

    def test_capacity_two_allows_overlap(self, env):
        res = Resource(env, capacity=2)
        done = []

        def user(env, name):
            with res.request() as req:
                yield req
                yield env.timeout(1)
            done.append((env.now, name))

        for name in "abc":
            env.process(user(env, name))
        env.run()
        assert done == [(1, "a"), (1, "b"), (2, "c")]

    def test_priority_order(self, env):
        res = Resource(env, capacity=1)
        order = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(1)

        def user(env, name, prio):
            yield env.timeout(0.1)  # arrive while held
            with res.request(priority=prio) as req:
                yield req
                order.append(name)

        env.process(holder(env))
        env.process(user(env, "low", 5))
        env.process(user(env, "high", 1))
        env.run()
        assert order == ["high", "low"]

    def test_cancel_waiting_request(self, env):
        res = Resource(env, capacity=1)

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(2)

        def impatient(env):
            req = res.request()
            yield env.timeout(1)
            req.release()  # give up while still queued
            return "gave up"

        env.process(holder(env))
        p = env.process(impatient(env))
        assert env.run(until=p) == "gave up"
        assert res.queue_length == 0

    def test_count_and_queue_length(self, env):
        res = Resource(env, capacity=1)
        res.request()
        res.request()
        assert res.count == 1
        assert res.queue_length == 1


class TestStore:
    def test_fifo_order(self, env):
        store = Store(env)
        got = []

        def producer(env):
            for i in range(3):
                yield store.put(i)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        times = []

        def consumer(env):
            item = yield store.get()
            times.append((env.now, item))

        def producer(env):
            yield env.timeout(5)
            yield store.put("x")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert times == [(5, "x")]

    def test_bounded_put_blocks(self, env):
        store = Store(env, capacity=1)
        log = []

        def producer(env):
            yield store.put("a")
            log.append(("put a", env.now))
            yield store.put("b")
            log.append(("put b", env.now))

        def consumer(env):
            yield env.timeout(2)
            item = yield store.get()
            log.append((f"got {item}", env.now))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert ("put b", 2) in log

    def test_put_nowait_wakes_getters_like_put(self, env):
        # Two waiting getters, fed once through put() and once through
        # put_nowait(): the same items reach them at the same instants.
        def run(deposit):
            env = Environment()
            store = Store(env)
            log = []

            def getter(env, tag):
                item = yield store.get()
                log.append((tag, item, env.now))

            def producer(env):
                yield env.timeout(1)
                deposit(store, "x")
                deposit(store, "y")
                deposit(store, "z")

            env.process(getter(env, "g1"))
            env.process(getter(env, "g2"))
            env.process(producer(env))
            env.run()
            return log, list(store.items)

        via_put = run(lambda store, item: store.put(item))
        via_nowait = run(lambda store, item: store.put_nowait(item))
        assert via_nowait == via_put
        assert via_nowait == ([("g1", "x", 1), ("g2", "y", 1)], ["z"])

    def test_put_nowait_on_full_store_rejected(self, env):
        store = Store(env, capacity=1)
        store.put_nowait("a")
        with pytest.raises(SimulationError):
            store.put_nowait("b")
        assert list(store.items) == ["a"]

    def test_invalid_capacity(self, env):
        with pytest.raises(SimulationError):
            Store(env, capacity=0)


class TestContainer:
    def test_levels(self, env):
        c = Container(env, capacity=10, init=4)
        assert c.level == 4

    def test_get_blocks_until_enough(self, env):
        c = Container(env, capacity=10, init=0)
        at = []

        def getter(env):
            yield c.get(5)
            at.append(env.now)

        def putter(env):
            for _ in range(5):
                yield env.timeout(1)
                yield c.put(1)

        env.process(getter(env))
        env.process(putter(env))
        env.run()
        assert at == [5]

    def test_put_blocks_at_capacity(self, env):
        c = Container(env, capacity=2, init=2)
        at = []

        def putter(env):
            yield c.put(1)
            at.append(env.now)

        def getter(env):
            yield env.timeout(3)
            yield c.get(1)

        env.process(putter(env))
        env.process(getter(env))
        env.run()
        assert at == [3]

    def test_impossible_get_rejected(self, env):
        c = Container(env, capacity=2)
        with pytest.raises(SimulationError):
            c.get(5)

    def test_negative_amounts_rejected(self, env):
        c = Container(env, capacity=2)
        with pytest.raises(SimulationError):
            c.put(-1)
        with pytest.raises(SimulationError):
            c.get(-1)
