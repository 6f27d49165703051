"""The three wall-clock scenarios tracked in ``BENCH_PERF.json``.

Each scenario returns a plain dict with at least ``wall_s`` (host
seconds), ``events`` (engine events processed) and ``events_per_sec``.
All scenarios are deterministic in *simulated* behaviour; only the wall
clock varies run to run, which is why the runner takes best-of-N.

* ``engine`` — a synthetic event-loop microbench: timeout ping-pong plus
  contended :class:`~repro.sim.Resource` cycling, no migration machinery.
  Isolates the heap/callback/process-driver cost.
* ``table1_tpm`` — the paper's Table I specweb TPM migration (scaled),
  i.e. the repo's bread-and-butter single-migration path.
* ``evacuate_32vm`` — a 32-VM host evacuation through the cluster
  scheduler: the ROADMAP-scale stress case that motivated the hot-path
  overhaul.
* ``transfer_stack`` — the bonnie Table-I migration with the adaptive
  transfer stack fully enabled (delta cache + multifd + auto-converge),
  guarding the overhead of the opt-in fast paths in
  :mod:`repro.core.transfer`.
* ``scale_1k_host`` — the datacenter evacuation wave from
  ``bench_scale.py`` on the **sharded** per-rack engine (full geometry:
  1,000 hosts / 10,000 VMs, 300 intra-rack evacuations under 10,000
  background tickers).  ``wall_s`` tracks the sharded run; the
  monolithic run of the identical wave rides along in ``mono_wall_s`` /
  ``speedup`` so the sharded engine's advantage is recorded in-tree.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..",
                                "src"))


def _result(wall: float, events: int, sim_time: float, **extra) -> dict:
    out = dict(wall_s=wall, events=events,
               events_per_sec=events / wall if wall > 0 else 0.0,
               sim_time=sim_time)
    out.update(extra)
    return out


def engine(smoke: bool = False) -> dict:
    """Pure event-engine throughput: no disks, no bitmaps, no migration."""
    from repro.sim import Environment
    from repro.sim.resources import Resource

    nprocs = 50
    horizon = 2.0 if smoke else 20.0
    env = Environment()
    resource = Resource(env, capacity=2)

    def worker(env, i):
        delay = 1e-3 + i * 1e-5
        while True:
            request = resource.request()
            yield request
            yield env.timeout(delay)
            resource.release(request)
            yield env.timeout(delay * 2)

    for i in range(nprocs):
        env.process(worker(env, i), name=f"worker:{i}")
    start = perf_counter()
    env.run(until=horizon)
    wall = perf_counter() - start
    return _result(wall, env.events_processed, env.now, nprocs=nprocs)


def table1_tpm(smoke: bool = False) -> dict:
    """Wall-clock for one Table-I specweb TPM migration."""
    from repro.analysis.experiments import run_table1_experiment

    scale = 0.005 if smoke else 0.02
    start = perf_counter()
    report, bed = run_table1_experiment("specweb", scale=scale)
    wall = perf_counter() - start
    return _result(wall, bed.env.events_processed, bed.env.now,
                   scale=scale,
                   total_migration_time=report.total_migration_time,
                   migrated_bytes=report.migrated_bytes)


def evacuate_32vm(smoke: bool = False) -> dict:
    """Wall-clock for evacuating a host carrying 32 VMs (star cluster)."""
    bench_dir = os.path.join(os.path.dirname(__file__), "..")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    from bench_evacuate import evacuate_once

    nblocks, npages = (512, 64) if smoke else (8192, 1024)
    start = perf_counter()
    stats, bed = evacuate_once(concurrency=8, nvms=32,
                               nblocks=nblocks, npages=npages)
    wall = perf_counter() - start
    return _result(wall, bed.env.events_processed, bed.env.now,
                   nvms=32, nblocks=nblocks, npages=npages,
                   makespan=stats["makespan"],
                   mean_downtime=stats["mean_downtime"])


def transfer_stack(smoke: bool = False) -> dict:
    """Wall-clock for a Table-I bonnie migration with the full adaptive
    transfer stack on (delta cache + 4x multifd + auto-converge)."""
    from repro.analysis.experiments import FULL_DISK_BLOCKS, build_testbed
    from repro.core import MigrationConfig
    from repro.units import MiB

    scale = 0.005 if smoke else 0.02
    cache_mb = max(int(FULL_DISK_BLOCKS * scale), 256) * 4096 / MiB
    cfg = MigrationConfig(delta_cache_mb=cache_mb, multifd_channels=4,
                          auto_converge=True)
    start = perf_counter()
    bed = build_testbed("bonnie", scale=scale, config=cfg)
    bed.start_workload()
    bed.run_for(20.0)
    report = bed.migrate()
    wall = perf_counter() - start
    return _result(wall, bed.env.events_processed, bed.env.now,
                   scale=scale, migrated_bytes=report.migrated_bytes,
                   total_migration_time=report.total_migration_time,
                   delta_hits=report.extra["delta_disk"]["hits"])


def scale_1k_host(smoke: bool = False) -> dict:
    """Wall-clock for the sharded datacenter evacuation wave (plus the
    monolithic run of the same wave, for the recorded speedup)."""
    bench_dir = os.path.join(os.path.dirname(__file__), "..")
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    import bench_scale

    geometry = dict(bench_scale.SMOKE if smoke else bench_scale.FULL)
    out = bench_scale.compare_once(**geometry)
    sharded = out["sharded"]
    return _result(sharded["wall_s"], sharded["events"],
                   sharded["sim_time"], **geometry,
                   nvms_migrated=sharded["nvms"],
                   makespan=sharded["makespan"],
                   mono_wall_s=out["mono"]["wall_s"],
                   mono_events=out["mono"]["events"],
                   speedup=out["speedup"])


#: Name -> callable(smoke) for the runner; insertion order is run order.
SCENARIOS = {
    "engine": engine,
    "table1_tpm": table1_tpm,
    "evacuate_32vm": evacuate_32vm,
    "transfer_stack": transfer_stack,
    "scale_1k_host": scale_1k_host,
}
