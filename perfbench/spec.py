"""What the benchmark measures, and why: the record behind BENCHMARK.json.

``BENCHMARK.json`` holds only the keys its runner reads.  This module
holds the rest: each workload's reasons, every metric's unit, better
direction and clock (host or simulated), which metrics the runner gates
and with what bound, and which layer metric should move which
end-to-end metric on which workload.  ``python3 perfbench/run.py
--spec`` prints it and checks that BENCHMARK.json agrees with it.
"""

from __future__ import annotations

from scenarios import GEOMETRY

WORKLOADS = {
    "paper_roundtrip": [
        "the paper's own experiment (Table I): the only workload with a "
        "reference result",
        "the only one where a migration contends with its own guest on "
        "one disk",
        "puts a read-heavy guest (video) beside a write-heavy one "
        "(bonnie), so a storage or bitmap change that helps writes at "
        "the cost of reads shows",
    ],
    "dc_wave": [
        "guest I/O and the event engine dominate it: 10,000 tickers "
        "under 300 small intra-rack migrations",
        "a guest-I/O fast path must show its gain here; a "
        "migration-layer change should leave it flat",
    ],
    "xrack_drain": [
        "the only workload with surrogate transplant, cross-shard "
        "messages, multi-hop fabric contention and narrow lookahead "
        "windows",
        "cluster, net and sharded-engine changes show here; a guest-I/O "
        "fast path should barely move it",
    ],
}

# Each metric: unit, better, clock ("host" time, "sim"ulated, or an
# exact "count"), and for end-to-end metrics the runner gate's bound
# (None: printed by every run, not gated; see README.md for why).  Host
# seconds are normalised to the speed probe's nominal (clock.py).
END_TO_END = {
    "wall_s": dict(unit="s", better="lower", clock="host", bound=0.24,
                   what="build through teardown of one iteration, median"),
    "setup_s": dict(unit="s", better="lower", clock="host", bound=0.25,
                    what="testbed build plus guest start, median of at "
                         "least 9 set-ups"),
    "run_s": dict(unit="s", better="lower", clock="host", bound=0.24,
                  what="first submit until every job drained and was "
                       "audited, median"),
    "peak_rss_mb": dict(unit="MiB", better="lower", clock="host",
                        bound=0.1,
                        what="peak resident memory of a process that ran "
                             "only this workload"),
    "sim_makespan_s": dict(unit="s", better="lower", clock="sim",
                           bound=0.1,
                           what="first submit to last job end; summed "
                                "over the three paper testbeds"),
    "sim_migration_s.p50": dict(unit="s", better="lower", clock="sim",
                                bound=0.1,
                                what="per-migration total migration "
                                     "time, median"),
    "sim_downtime_ms.p50": dict(unit="ms", better="lower", clock="sim",
                                bound=None, what="per-migration downtime, "
                                                 "median"),
    "sim_downtime_ms.tail": dict(unit="ms", better="lower", clock="sim",
                                 bound=None,
                                 what="highest percentile with at least "
                                      "10 samples beyond it (the maximum "
                                      "when there are 10 or fewer)"),
    "sim_migrated_mb": dict(unit="MiB", better="lower", clock="sim",
                            bound=0.1, what="all wire bytes of all "
                                            "migrations"),
    "jobs_failed_frac": dict(unit="fraction", better="lower",
                             clock="count", bound=None,
                             what="failed over attempted migrations; "
                                  "also the result's failed/attempted"),
    "paper_err_pct": dict(unit="%", better="lower", clock="sim",
                          bound=None, workloads=("paper_roundtrip",),
                          what="mean absolute relative error of total "
                               "time, downtime and data against "
                               "PAPER_TABLE1 (9 values)"),
}

GATED = [name for name, m in END_TO_END.items() if m["bound"] is not None]

_LAYER_UNITS = dict(self_s=("s", "host", "host time inside the layer's "
                                          "wrapped calls, minus nested "
                                          "layer spans"),
                    calls=("count", "count", "calls into the layer's "
                                              "wrapped entry points"))
PER_LAYER = {}
for _layer in ("sim", "vm", "storage", "bitmap", "net", "core", "cluster",
               "workloads"):
    for _suffix, (_unit, _clock, _what) in _LAYER_UNITS.items():
        PER_LAYER[f"{_layer}.{_suffix}"] = dict(unit=_unit, better="lower",
                                                clock=_clock, what=_what)
PER_LAYER.update({
    "sim.events": dict(unit="count", better="lower", clock="count",
                       what="events dispatched by every environment"),
    "sim.timeouts": dict(unit="count", better="lower", clock="count",
                         what="Timeout events built"),
    "sim.resource_requests": dict(unit="count", better="lower",
                                  clock="count",
                                  what="Resource.request calls"),
    "sim.host_us_per_event": dict(unit="us", better="lower", clock="host",
                                  what="sim.self_s over sim.events"),
    "sim.windows": dict(unit="count", better="lower", clock="count",
                        what="sharded-engine synchronisation windows"),
    "vm.io_calls": dict(unit="count", better="lower", clock="count",
                        what="Domain.io and Domain.io_batch calls"),
    "storage.submits": dict(unit="count", better="lower", clock="count",
                            what="BackendDriver.submit calls"),
    "storage.disk_ios": dict(unit="count", better="lower", clock="count",
                             what="PhysicalDisk.io calls"),
    "storage.disk_queue_sim_s": dict(unit="s", better="lower", clock="sim",
                                     what="simulated time in "
                                          "PhysicalDisk.io beyond its "
                                          "service time"),
    "net.sends": dict(unit="count", better="lower", clock="count",
                      what="Channel.send calls"),
    "net.wire_mb": dict(unit="MiB", better="lower", clock="sim",
                        what="Link.bytes_sent over every host egress "
                             "link; equals sim_migrated_mb"),
    "net.link_queue_sim_s": dict(unit="s", better="lower", clock="sim",
                                 what="simulated time in Link.transmit "
                                      "beyond its serialisation time"),
    "core.streams": dict(unit="count", better="lower", clock="count",
                         what="BlockStreamer/PageStreamer.stream calls"),
    "core.precopy_iterations": dict(unit="count", better="lower",
                                    clock="count",
                                    what="disk pre-copy iterations"),
    "core.postcopy_pushed_blocks": dict(unit="count", better="lower",
                                        clock="count",
                                        what="blocks pushed in post-copy"),
    "core.disk_amplification": dict(unit="ratio", better="lower",
                                    clock="sim",
                                    what="disk-category wire bytes over "
                                         "the bytes of every migrated VBD"),
    "cluster.submits": dict(unit="count", better="lower", clock="count",
                            what="ClusterScheduler.submit calls"),
    "cluster.transplants": dict(unit="count", better="lower", clock="count",
                                what="cross-rack transplants delivered"),
    "cluster.queue_wait_sim_s": dict(unit="s", better="lower", clock="sim",
                                     what="sum of job.queue_time"),
    "trace.overhead_frac": dict(unit="fraction", better="lower",
                                clock="host",
                                what="traced run_s over untraced run_s, "
                                     "minus 1"),
    "obs.overhead_frac": dict(unit="fraction", better="lower", clock="host",
                              what="run_s with observe=True over run_s "
                                   "without, minus 1"),
})

#: (layer metrics, end-to-end metrics they should move, workloads).
LAYER_MAP = [
    (("sim.self_s", "sim.events", "sim.timeouts", "sim.resource_requests",
      "sim.host_us_per_event"), ("run_s",), ("dc_wave", "paper_roundtrip")),
    (("sim.windows",), ("run_s",), ("xrack_drain",)),
    (("vm.self_s", "vm.io_calls"), ("run_s",), ("dc_wave",)),
    (("storage.self_s", "storage.submits", "storage.disk_ios"), ("run_s",),
     ("dc_wave",)),
    (("storage.disk_queue_sim_s",),
     ("sim_makespan_s", "sim_downtime_ms.p50", "sim_downtime_ms.tail"),
     ("paper_roundtrip",)),
    (("bitmap.self_s", "bitmap.calls"), ("run_s",), ("paper_roundtrip",)),
    (("net.self_s", "net.sends"), ("run_s",),
     ("xrack_drain", "paper_roundtrip")),
    (("net.wire_mb",), ("sim_migrated_mb",),
     ("paper_roundtrip", "dc_wave", "xrack_drain")),
    (("net.link_queue_sim_s",), ("sim_makespan_s",), ("xrack_drain",)),
    (("core.self_s", "core.streams"), ("run_s",),
     ("paper_roundtrip", "xrack_drain")),
    (("core.precopy_iterations", "core.postcopy_pushed_blocks",
      "core.disk_amplification"), ("sim_migrated_mb",),
     ("paper_roundtrip",)),
    (("cluster.self_s", "cluster.submits", "cluster.transplants",
      "cluster.queue_wait_sim_s"), ("run_s", "sim_makespan_s"),
     ("xrack_drain", "dc_wave")),
    (("workloads.self_s",), ("run_s",), ("paper_roundtrip",)),
    (("obs.overhead_frac",), (), ()),
]

#: Seeds: tune on 0-9; keep 1000 aside to confirm a claimed gain.
HELD_OUT_SEED = 1000


def record() -> dict:
    """The full benchmark record, as printed by ``run.py --spec``."""
    return {
        "workloads": {name: {"geometry": GEOMETRY[name], "why": why}
                      for name, why in WORKLOADS.items()},
        "end_to_end": END_TO_END,
        "gated": GATED,
        "per_layer": PER_LAYER,
        "layer_map": [{"layer_metrics": list(layer),
                       "moves": list(e2e), "on": list(on)}
                      for layer, e2e, on in LAYER_MAP],
        "held_out_seed": HELD_OUT_SEED,
        "reference": "repro.analysis.experiments.PAPER_TABLE1",
    }
