"""Per-layer host-time accounting, measured from outside the program.

:class:`LayerTrace` wraps the public entry points of each ``repro``
package (listed in :data:`ENTRY_POINTS`) while it is installed, and
restores the originals on :meth:`LayerTrace.uninstall`.  Nothing in
``src/`` is edited.

* A plain call is one span of its layer.
* A generator entry point (``Domain.io``, ``PhysicalDisk.io``,
  ``Channel.send``...) is driven by a wrapper generator that times every
  resume as its own span, so the time a migration or a disk request
  spends parked in the event queue is never billed to it.
* Every process handed to ``Environment.process`` is wrapped the same
  way and billed to the package that defined its generator function
  (``repro.workloads`` loops go to ``workloads``, a cluster job to
  ``cluster``, the benchmark's own guest tickers to ``bench``).

A layer's self time is the time inside its spans minus the time inside
spans nested in them, whatever their layer;
:meth:`LayerTrace.corrected_self_s` also takes out the tracer's own
cost, calibrated by :func:`calibrate`.  The wrappers add no
simulated events and no yields, so a traced run must produce exactly
the simulated results of an untraced one; the benchmark checks this.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from time import perf_counter

#: The repository's layers, in reporting order.
LAYERS = ("sim", "vm", "storage", "bitmap", "net", "core", "cluster",
          "workloads")
#: Buckets for time outside the named layers: the benchmark's own guest
#: code, and ``repro`` packages no workload is meant to reach.
EXTRA_BUCKETS = ("bench", "other")

#: layer -> [(module, class, methods)].  ``"*"`` means every public
#: function defined on the class itself (properties, class/static
#: methods and abstract methods excluded).  Hot helpers that only their
#: own layer calls on the guest I/O path (``Host.driver_of``,
#: ``BackendDriver.apply``, ``VirtualBlockDevice.write``,
#: ``GenerationClock.tick``, ``PhysicalDisk.service_time``) are left
#: out: a span there would measure nothing but the tracer.
ENTRY_POINTS = {
    "sim": [
        ("repro.sim.engine", "Environment",
         ["run", "process", "schedule", "event", "all_of", "any_of"]),
        ("repro.sim.events", "Timeout", ["__init__"]),
        ("repro.sim.resources", "Resource", ["request", "release"]),
        ("repro.sim.resources", "Store", ["put", "get"]),
        ("repro.sim.sharded", "ShardedEngine", ["step_window", "run",
                                                "send"]),
    ],
    "vm": [
        ("repro.vm.domain", "Domain", "*"),
        ("repro.vm.memory", "GuestMemory", "*"),
        ("repro.vm.host", "Host", ["prepare_vbd", "attach_domain",
                                   "detach_domain", "crash", "restart"]),
    ],
    "storage": [
        ("repro.storage.blkback", "BackendDriver",
         ["start_tracking", "stop_tracking", "swap_tracking", "submit",
          "submit_coalesced", "quiesce", "serve_direct"]),
        ("repro.storage.disk", "PhysicalDisk", ["io"]),
        ("repro.storage.vbd", "VirtualBlockDevice",
         ["read_data", "export_blocks", "import_blocks", "allocated_indices",
          "snapshot", "diff_blocks", "identical_to", "assert_identical",
          "checksum"]),
    ],
    "bitmap": [
        ("repro.bitmap.base", "BlockBitmap", "*"),
        ("repro.bitmap.flat", "FlatBitmap", "*"),
        ("repro.bitmap.layered", "LayeredBitmap", "*"),
    ],
    "net": [
        ("repro.net.channel", "Channel", "*"),
        ("repro.net.link", "Link", ["transmit"]),
        ("repro.net.topology", "Topology", "*"),
        ("repro.net.ratelimit", "TokenBucket", "*"),
    ],
    "core": [
        ("repro.core.manager", "Migrator", "*"),
        ("repro.core.transfer", "BlockStreamer", "*"),
        ("repro.core.transfer", "PageStreamer", "*"),
        ("repro.core.precopy", "DiskPreCopier", "*"),
        ("repro.core.memcopy", "MemoryPreCopier", "*"),
        ("repro.core.postcopy", "PostCopySynchronizer", "*"),
    ],
    "cluster": [
        ("repro.cluster.scheduler", "ClusterScheduler", "*"),
        ("repro.cluster.sharded", "ShardedCluster", "*"),
        ("repro.cluster.hostmanager", "HostManager", "*"),
    ],
    "workloads": [
        ("repro.workloads.base", "Workload", "*"),
        ("repro.workloads.iomodel", "MemoryDirtier", "*"),
    ],
}

#: Span kinds: a plain call, a call that creates a wrapped generator,
#: and one resume of a wrapped generator.
KINDS = CALL, GEN_CALL, RESUME = 0, 1, 2

#: Exact per-entry-point counters the benchmark reports by name.
COUNTED = {
    "sim.timeouts": ("Timeout.__init__",),
    "sim.resource_requests": ("Resource.request",),
    "vm.io_calls": ("Domain.io", "Domain.io_batch"),
    "storage.submits": ("BackendDriver.submit",),
    "storage.disk_ios": ("PhysicalDisk.io",),
    "net.sends": ("Channel.send",),
    "core.streams": ("BlockStreamer.stream", "PageStreamer.stream"),
    "cluster.submits": ("ClusterScheduler.submit",),
    "cluster.transplants": ("transplant",),
}


def _layer_of_code(filename: str, package_dir: str) -> str:
    """The layer a generator's code belongs to, from its source path."""
    if not filename.startswith(package_dir + os.sep):
        return "bench"
    top = os.path.relpath(filename, package_dir).split(os.sep)[0]
    return top if top in LAYERS else "other"


def _public_functions(cls) -> list[str]:
    names = []
    for name, value in vars(cls).items():
        if name.startswith("_") or not inspect.isfunction(value):
            continue
        if getattr(value, "__isabstractmethod__", False):
            continue
        names.append(name)
    return names


class LayerTrace:
    """Self time, call counts and spans per layer for one traced run.

    Use as ``trace.install()`` before the run's set-up (so every object
    is built against the wrapped classes), ``trace.on = True`` around
    the measured part, and ``trace.uninstall()`` afterwards.
    """

    def __init__(self, run_id: str, span_cap: int = 20_000) -> None:
        self.run_id = run_id
        self.on = False
        #: bucket -> ``[name, self seconds, spans opened per kind...,
        #: spans opened directly inside it per kind...]``.  The tracer's
        #: own cost per span lands in both span counts, and
        #: :meth:`corrected_self_s` takes it back.
        self._acc = {bucket: [bucket, 0.0] + [0] * (2 * len(KINDS))
                     for bucket in LAYERS + EXTRA_BUCKETS}
        #: ``Class.method`` -> ``(layer, [calls while recording])``.
        self._counters: dict[str, tuple[str, list]] = {}
        #: Simulated seconds spent queued, not served: in
        #: ``PhysicalDisk.io`` beyond its service time, in
        #: ``Link.transmit`` beyond its serialisation time.
        self.disk_queue_sim_s = 0.0
        self.link_queue_sim_s = 0.0
        #: ``[name, layer, start, end, parent index, own index]``, kept
        #: until ``span_cap``; later spans are only counted.
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self._open, self._close = self._span_ops(span_cap)

    # -- span bookkeeping ---------------------------------------------------

    def _span_ops(self, cap: int):
        """The open/close pair every wrapper calls (closures: this is
        the tracer's hot path)."""
        stack = self._stack
        spans = self.spans
        clock = perf_counter
        child = 2 + len(KINDS)

        def open_span(acc: list, kind: int, name: str) -> list:
            if stack:
                parent = stack[-1]
                parent[0][child + kind] += 1
                parent_record = parent[3]
            else:
                parent_record = None
            acc[2 + kind] += 1
            record = None
            if len(spans) < cap:
                record = [name, acc[0], 0.0, 0.0,
                          parent_record[5] if parent_record else -1,
                          len(spans)]
                spans.append(record)
            frame = [acc, clock(), 0.0, record]
            stack.append(frame)
            return frame

        def close_span(frame: list) -> None:
            end = clock()
            stack.pop()
            duration = end - frame[1]
            frame[0][1] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            record = frame[3]
            if record is not None:
                record[2] = frame[1]
                record[3] = end

        return open_span, close_span

    def _counter(self, layer: str, name: str) -> list:
        cell = [0]
        self._counters[name] = (layer, cell)
        return cell

    # -- wrappers -----------------------------------------------------------

    def _drive(self, acc: list, name: str, gen, sim_clock=None,
               on_done=None):
        """Delegate to ``gen``, timing each resume as a span of ``acc``'s
        bucket.  With ``sim_clock`` (an environment) and ``on_done``,
        calls ``on_done(sim_start, sim_end)`` when ``gen`` returns."""
        trace = self
        open_span, close_span = self._open, self._close
        send_value = None
        thrown = None
        sim_start = sim_clock.now if sim_clock is not None else None
        while True:
            frame = open_span(acc, RESUME, name) if trace.on else None
            try:
                if thrown is None:
                    item = gen.send(send_value)
                else:
                    item = gen.throw(thrown)
            except StopIteration as stop:
                if frame is not None:
                    close_span(frame)
                    if on_done is not None:
                        on_done(sim_start, sim_clock.now)
                return stop.value
            except BaseException:
                if frame is not None:
                    close_span(frame)
                raise
            if frame is not None:
                close_span(frame)
            thrown = None
            try:
                send_value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into ``gen``
                thrown = exc
                send_value = None

    def _wrap(self, layer: str, name: str, fn):
        trace = self
        acc = self._acc[layer]
        cell = self._counter(layer, name)
        open_span, close_span = self._open, self._close
        if inspect.isgeneratorfunction(fn):
            hook = self._sim_hooks().get(name)
            drive = self._drive

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not trace.on:
                    return fn(*args, **kwargs)
                cell[0] += 1
                frame = open_span(acc, GEN_CALL, name)
                try:
                    gen = fn(*args, **kwargs)
                    if hook is None:
                        return drive(acc, name, gen)
                    return drive(acc, name, gen, args[0].env,
                                 hook(*args, **kwargs))
                finally:
                    close_span(frame)
            return gen_wrapper

        @functools.wraps(fn)
        def call_wrapper(*args, **kwargs):
            if not trace.on:
                return fn(*args, **kwargs)
            cell[0] += 1
            frame = open_span(acc, CALL, name)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(frame)
        return call_wrapper

    def _sim_hooks(self) -> dict:
        """Generator entry points whose simulated queueing is measured.

        Each maps the call's arguments to an ``on_done(start, end)``
        that adds ``end - start - <service time>`` to a queue total.
        """
        trace = self

        def disk(disk, nbytes, is_write, priority=0):
            service = disk.service_time(nbytes, is_write)

            def done(start, end):
                trace.disk_queue_sim_s += end - start - service
            return done

        def link(link, nbytes, priority=0):
            wire = link.transmission_time(nbytes)

            def done(start, end):
                trace.link_queue_sim_s += end - start - wire
            return done

        return {"PhysicalDisk.io": disk, "Link.transmit": link}

    def _wrap_process(self, fn):
        """``Environment.process``: also bill the process body to the
        package that defined its generator."""
        trace = self
        package_dir = os.path.dirname(
            importlib.import_module("repro").__file__)

        @functools.wraps(fn)
        def process(env, generator, name=None):
            code = getattr(generator, "gi_code", None)
            if code is not None:
                layer = _layer_of_code(code.co_filename, package_dir)
                wrapped = trace._drive(trace._acc[layer],
                                       f"proc:{code.co_qualname}", generator)
                wrapped.__name__ = generator.__name__
                generator = wrapped
            return fn(env, generator, name)
        return process

    def _wrap_send(self, fn):
        """``ShardedEngine.send``: time the delivered message (a
        cross-rack transplant) as cluster work."""
        timed_apply = self._wrap("cluster", "transplant",
                                 lambda message_fn, env: message_fn(env))

        @functools.wraps(fn)
        def send(engine, target, visible_at, message_fn):
            return fn(engine, target, visible_at,
                      functools.partial(timed_apply, message_fn))
        return send

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer trace already installed")
        for layer, entries in ENTRY_POINTS.items():
            for module_name, class_name, methods in entries:
                cls = getattr(importlib.import_module(module_name),
                              class_name)
                names = (_public_functions(cls) if methods == "*"
                         else methods)
                for method in names:
                    original = vars(cls)[method]
                    label = f"{class_name}.{method}"
                    wrapped = self._wrap(layer, label, original)
                    if label == "Environment.process":
                        wrapped = self._wrap_process(wrapped)
                    elif label == "ShardedEngine.send":
                        wrapped = self._wrap_send(wrapped)
                    self._patches.append((cls, method, original))
                    setattr(cls, method, wrapped)

    def uninstall(self) -> None:
        self.on = False
        for cls, method, original in reversed(self._patches):
            setattr(cls, method, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    @property
    def self_s(self) -> dict:
        """Raw self time per bucket, tracer cost included."""
        return {bucket: acc[1] for bucket, acc in self._acc.items()}

    @property
    def layer_calls(self) -> dict:
        """Calls into each bucket's wrapped entry points."""
        out = dict.fromkeys(self._acc, 0)
        for layer, cell in self._counters.values():
            out[layer] += cell[0]
        return out

    @property
    def spans_total(self) -> int:
        return sum(sum(acc[2:2 + len(KINDS)]) for acc in self._acc.values())

    def counted(self, metric: str) -> int:
        return sum(self._counters[name][1][0] for name in COUNTED[metric]
                   if name in self._counters)

    def corrected_self_s(self, costs) -> dict:
        """Self time per bucket less the tracer's own cost.

        ``costs`` is :func:`calibrate`'s ``(inside, outside)`` pair per
        span kind: what a span adds inside its own window, and what it
        adds to its parent's.
        """
        out = {}
        for bucket, acc in self._acc.items():
            seconds = acc[1]
            for kind, (inside, outside) in enumerate(costs):
                seconds -= (inside * acc[2 + kind]
                            + outside * acc[2 + len(KINDS) + kind])
            out[bucket] = max(0.0, seconds)
        return out

    def dump_chrome(self, path: str) -> str:
        """Write the kept spans as a Chrome trace (``chrome://tracing``)."""
        base = self.spans[0][2] if self.spans else 0.0
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": self.run_id}}]
        for name, layer, start, end, parent, index in self.spans:
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - base) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": index, "parent": parent,
                         "run": self.run_id}})
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events,
                       "otherData": {"run": self.run_id,
                                     "spans_total": self.spans_total,
                                     "spans_kept": len(self.spans)}}, fh)
        return path


class _Probe:
    def noop(self) -> None:
        pass

    def steps(self, count: int):
        for _ in range(count):
            yield None


def calibrate(spans: int = 20_000, rounds: int = 7):
    """The tracer's own cost, ``[(inside, outside)]`` per span kind.

    Times wrapped no-ops of each kind against bare ones, inside a parent
    span; the smallest of ``rounds`` measurements is kept.
    """
    probe = _Probe()
    best = [[float("inf")] * 2 for _ in KINDS]
    for _ in range(rounds):
        for kind in KINDS:
            trace = LayerTrace("calibration", span_cap=0)
            if kind == CALL:
                bare, timed = _Probe.noop, trace._wrap("other", "probe",
                                                       _Probe.noop)
            elif kind == GEN_CALL:
                bare, timed = _Probe.steps, trace._wrap("other", "probe",
                                                        _Probe.steps)
            start = perf_counter()
            if kind == RESUME:
                for _ in probe.steps(spans):
                    pass
            else:
                for _ in range(spans):
                    bare(probe, 0) if kind == GEN_CALL else bare(probe)
            bare_s = (perf_counter() - start) / spans
            trace.on = True
            parent = trace._open(trace._acc["bench"], CALL, "parent")
            if kind == RESUME:
                for _ in trace._drive(trace._acc["other"], "probe",
                                      probe.steps(spans)):
                    pass
            else:
                for _ in range(spans):
                    timed(probe, 0) if kind == GEN_CALL else timed(probe)
            trace._close(parent)
            costs = (trace.self_s["other"] / spans - bare_s,
                     trace.self_s["bench"] / spans - bare_s)
            best[kind] = [min(a, b) for a, b in zip(best[kind], costs)]
    return [(max(inside, 0.0), max(outside, 0.0))
            for inside, outside in best]
