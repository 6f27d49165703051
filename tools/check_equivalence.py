#!/usr/bin/env python3
"""Equivalence gate for simulator optimizations.

Hot-path work (engine fast lanes, cached bitmap popcounts, vectorized
dirty-marking, ...) is only admissible when it is *behavior-preserving*:
the optimized simulator must produce :class:`~repro.core.MigrationReport`
objects bit-identical to fixtures captured before the optimization.  This
script runs a fixed set of deterministic scenarios — all five registered
migration schemes, one fault-injected incremental-retry run, sharded
cluster waves, a cross-rack drain under guest dirtiers, cross-rack moves
between busy racks and a bonnie TPM/IM round trip — and compares every
field of every report (floats included, exactly) against
``tests/fixtures/equivalence.json``.

Usage::

    PYTHONPATH=src python tools/check_equivalence.py            # verify
    PYTHONPATH=src python tools/check_equivalence.py --capture  # re-baseline

``--capture`` rewrites the fixture file from the current code and is only
legitimate when the simulation semantics intentionally changed (new
scheme behaviour, changed defaults) — never to paper over an optimization
that drifted.  The CI job runs the verify mode on every push.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "..", "tests",
                            "fixtures", "equivalence.json")

#: Bump when scenarios themselves change (forces an explicit re-capture).
SCENARIO_VERSION = 3


def _report_dict(report) -> dict:
    """A plain-JSON projection of a MigrationReport (exact floats)."""
    return dataclasses.asdict(report)


def _run_scheme(scheme: str) -> dict:
    from repro.analysis.experiments import run_baseline_experiment

    report, bed, _migration = run_baseline_experiment(
        scheme, workload="specweb", scale=0.01, seed=0)
    return {"report": _report_dict(report),
            "final_now": bed.env.now,
            "workload_bytes": bed.workload.bytes_processed}


def _run_fault_retry() -> dict:
    from repro.analysis.experiments import build_testbed
    from repro.core import MigrationRetrier
    from repro.faults import FaultInjector, FaultPlan

    bed = build_testbed("specweb", scale=0.01, seed=0)
    bed.start_workload()
    bed.run_for(5.0)
    # Kill the first attempt mid disk pre-copy; the retry resumes from the
    # surviving tracking bitmap (incremental), so the fixture covers the
    # failure-teardown path *and* the IM resume path.
    plan = (FaultPlan(send_timeout=0.05)
            .blackout(duration=0.5, phase="precopy-disk", offset=0.05))
    FaultInjector(bed.env, plan).inject(bed.migrator)
    retrier = MigrationRetrier(bed.migrator, max_attempts=3,
                               initial_backoff=0.3, incremental=True)
    proc = retrier.migrate_process(bed.domain, bed.destination,
                                   workload_name=bed.workload.name)
    report = bed.env.run(until=proc)
    if report.attempts < 2:
        raise AssertionError(
            "fault-retry scenario did not actually fail+retry "
            f"(attempts={report.attempts}); fixture would be meaningless")
    return {"report": _report_dict(report),
            "final_now": bed.env.now,
            "workload_bytes": bed.workload.bytes_processed}


#: The sharded-equivalence wave: (VM name, destination host name).
#: Two contending intra-rack flows per rack plus one cross-rack
#: migration that transplants between shards through the core.
_SHARDED_MOVES = (
    ("vm-host00-0", "host01"),
    ("vm-host00-1", "host01"),
    ("vm-host03-0", "host04"),
    ("vm-host03-1", "host04"),
    ("vm-host02-0", "host05"),
)


def _ledger(topology) -> dict:
    """Directional link name -> bytes sent (non-zero links only)."""
    ledger = {}
    for duplex in topology.links.values():
        for link in (duplex.forward, duplex.backward):
            if link.bytes_sent:
                ledger[link.name] = ledger.get(link.name, 0) + link.bytes_sent
    return dict(sorted(ledger.items()))


def _run_sharded_cluster() -> dict:
    """The same 2-rack migration wave on the monolithic engine and on
    the sharded per-rack engine; asserts reports and byte ledgers are
    identical, then fixtures the (shared) result."""
    from repro.cluster import build_cluster, build_sharded_cluster

    bed = build_cluster(nhosts=6, vms_per_host=2, wiring="rack",
                        rack_size=3, nblocks=512, npages=64,
                        max_concurrent=8)
    by_name = {domain.name: domain for domain in bed.domains}
    mono_jobs = [bed.scheduler.submit(by_name[vm], bed.host(dest))
                 for vm, dest in _SHARDED_MOVES]
    bed.scheduler.drain(mono_jobs)
    mono = {"reports": [_report_dict(job.report) for job in mono_jobs],
            "makespan": bed.scheduler.makespan(mono_jobs),
            "ledger": _ledger(bed.migrator.topology)}

    cluster = build_sharded_cluster(nracks=2, hosts_per_rack=3,
                                    vms_per_host=2, nblocks=512,
                                    npages=64, max_concurrent=8)
    by_name = {domain.name: domain for domain in cluster.domains}
    shard_jobs = [cluster.submit(by_name[vm], dest)
                  for vm, dest in _SHARDED_MOVES]
    cluster.drain(shard_jobs)
    cluster.assert_conserved()
    sharded = {"reports": [_report_dict(job.report) for job in shard_jobs],
               "makespan": cluster.makespan(shard_jobs),
               "ledger": cluster.link_ledger()}

    diffs: list = []
    _diff("sharded-vs-mono", json.loads(json.dumps(mono)),
          json.loads(json.dumps(sharded)), diffs)
    if diffs:
        raise AssertionError(
            "sharded engine diverged from monolithic on the fixture "
            "wave:\n    " + "\n    ".join(diffs[:20]))
    return mono


def _run_sharded_parallel() -> dict:
    """The same migration wave on two identical sharded clusters, one
    drained inline and one with forked workers; asserts job outcomes,
    makespan and byte ledgers are identical, then fixtures the (shared)
    result.  On platforms without fork the parallel side degrades to
    inline execution with identical semantics, so the fixture still
    verifies."""
    from repro.cluster import build_sharded_cluster

    def run_wave(workers: str) -> dict:
        cluster = build_sharded_cluster(nracks=2, hosts_per_rack=3,
                                        vms_per_host=2, nblocks=512,
                                        npages=64, max_concurrent=8,
                                        workers=workers)
        by_name = {domain.name: domain for domain in cluster.domains}
        jobs = [cluster.submit(by_name[vm], dest)
                for vm, dest in _SHARDED_MOVES]
        if workers == "fork":
            cluster.drain(jobs, nworkers=2)
        else:
            cluster.drain(jobs)
            cluster.assert_conserved()
        return {"reports": [_report_dict(job.report) for job in jobs],
                "makespan": cluster.makespan(jobs),
                "ledger": cluster.link_ledger()}

    inline = run_wave("inline")
    parallel = run_wave("fork")
    diffs: list = []
    _diff("parallel-vs-inline", json.loads(json.dumps(inline)),
          json.loads(json.dumps(parallel)), diffs)
    if diffs:
        raise AssertionError(
            "forked drain diverged from inline on the fixture wave:\n    "
            + "\n    ".join(diffs[:20]))
    return inline


#: Guest write period of the cross-rack drain's dirtiers (sim seconds).
_DIRTY_TICK = 0.05


def _dirtier(env, domain, base: int, pages, phase: float):
    """Light guest load on a moving VM: 4 blocks and a few pages every
    :data:`_DIRTY_TICK`, until the VM is handed to another shard."""
    yield env.timeout(phase)
    while domain.env is env:
        yield from domain.write(base, 4)
        if domain.env is env and domain.running:
            domain.touch_memory(pages)
        yield env.timeout(_DIRTY_TICK)


def _run_xrack_drain() -> dict:
    """Every VM of rack 0 (32 of them) moves cross-rack, round-robin
    over a seeded order of the other racks' hosts, while its guest keeps
    dirtying blocks and pages: surrogate transplant, multi-hop fabric
    contention, and a guest contending with the pipeline on one disk.
    Same-instant grants, deliveries and guest writes all race here, so
    any change to their relative dispatch order shows in the fixture."""
    import numpy as np

    from repro.cluster import build_sharded_cluster

    cluster = build_sharded_cluster(nracks=4, hosts_per_rack=8,
                                    vms_per_host=4, nblocks=4096,
                                    npages=256, max_concurrent=8, seed=0)
    rng = np.random.default_rng(0)
    rack0 = cluster.shards[0]
    env = rack0.env
    vms = sorted((d for h in rack0.hosts for d in h.domains),
                 key=lambda d: d.domain_id)
    others = [h.name for shard in cluster.shards[1:] for h in shard.hosts]
    others = [others[i] for i in rng.permutation(len(others))]
    moves = []
    for i, vm in enumerate(vms):
        base = int(rng.integers(0, 4096 - 4))
        pages = np.sort(rng.choice(256, 8, replace=False))
        phase = float(rng.uniform(0.0, _DIRTY_TICK))
        env.process(_dirtier(env, vm, base, pages, phase),
                    name=f"dirtier:{vm.name}")
        moves.append((vm, others[i % len(others)]))
    jobs = [cluster.submit(vm, dest) for vm, dest in moves]
    cluster.drain(jobs)
    cluster.assert_conserved()
    return {"reports": [_report_dict(job.report) for job in jobs],
            "makespan": cluster.makespan(jobs),
            "ledger": cluster.link_ledger()}


def _ticker(env, domain, base: int, nblocks: int, phase: float):
    """Perpetual guest writer on a VM that stays put: ``nblocks`` blocks
    every 20 ms."""
    yield env.timeout(phase)
    while True:
        yield from domain.write(base, nblocks)
        yield env.timeout(0.02)


def _arrival_dirtier(env, domain, base: int, pages, ticks: int):
    """Guest load restarted on the destination side of a transplant:
    ``ticks`` rounds of 4 blocks and a few pages."""
    for _ in range(ticks):
        yield from domain.write(base, 4)
        if domain.running:
            domain.touch_memory(pages)
        yield env.timeout(_DIRTY_TICK)


def _run_xrack_busy_racks() -> dict:
    """Cross-rack moves in both directions while every rack is busy:
    each rack's stay-put VMs run perpetual tickers, moving VMs dirty
    until handed over, and each arrival restarts a dirtier in the
    destination shard.  Sync windows therefore hold several due shards,
    and transplants land in shards with pending events of their own, so
    a change to when (or at which clock) a message is applied shows in
    the arrival instants, the windows count and the reports."""
    import numpy as np

    from repro.cluster import build_sharded_cluster

    nracks, nblocks, npages = 4, 2048, 64
    # One migration at a time per rack: later moves out of a rack run
    # while earlier arrivals already dirty that rack's disks.
    cluster = build_sharded_cluster(nracks=nracks, hosts_per_rack=4,
                                    vms_per_host=2, nblocks=nblocks,
                                    npages=npages, max_concurrent=1, seed=0)
    rng = np.random.default_rng(7)
    arrivals: list = []

    def on_arrival(dest_env, domain) -> None:
        arrivals.append([domain.name, domain.host.name, dest_env.now])
        base = int(rng.integers(0, nblocks - 4))
        pages = np.sort(rng.choice(npages, 4, replace=False))
        dest_env.process(_arrival_dirtier(dest_env, domain, base, pages, 20),
                         name=f"arrival-dirtier:{domain.name}")

    moves = []
    for r, shard in enumerate(cluster.shards):
        env = shard.env
        vms = sorted((d for h in shard.hosts for d in h.domains),
                     key=lambda d: d.domain_id)
        # One mover on each of the first three hosts; every other VM
        # ticks, harder in higher racks, so the racks drift apart.
        movers = vms[0:6:2]
        for vm in vms:
            if vm in movers:
                continue
            size = 4 * (r + 1)
            env.process(_ticker(env, vm, int(rng.integers(0, nblocks - size)),
                                size, float(rng.uniform(0.0, 0.02))),
                        name=f"ticker:{vm.name}")
        for i, vm in enumerate(movers):
            base = int(rng.integers(0, nblocks - 4))
            pages = np.sort(rng.choice(npages, 4, replace=False))
            phase = float(rng.uniform(0.0, _DIRTY_TICK))
            env.process(_dirtier(env, vm, base, pages, phase),
                        name=f"dirtier:{vm.name}")
            # Rack r sends to racks r+1, r+2, r+3: every pair of racks
            # exchanges VMs in both directions.  Destinations are the
            # movers' own hosts there, so arrivals contend with the
            # migrations still leaving those hosts.
            dest_shard = cluster.shards[(r + 1 + i) % nracks]
            dest = dest_shard.hosts[int(rng.integers(0, 3))].name
            moves.append((vm, dest))
    jobs = [cluster.submit(vm, dest, on_arrival=on_arrival)
            for vm, dest in moves]
    cluster.drain(jobs)
    cluster.assert_conserved()
    return {"reports": [_report_dict(job.report) for job in jobs],
            "makespan": cluster.makespan(jobs),
            "ledger": cluster.link_ledger(),
            "arrivals": arrivals,
            "windows": cluster.engine.windows,
            "clocks": [shard.env.now for shard in cluster.shards]}


def _run_bonnie_roundtrip() -> dict:
    """Table II in miniature: bonnie TPM out, a dwell on the
    destination, IM back — the write-heavy guest contends with the
    transfer pipeline on one disk throughout."""
    from repro.analysis.experiments import run_table2_experiment

    primary, back, bed = run_table2_experiment(
        "bonnie", scale=0.01, seed=0, warmup=2.0, dwell=3.0)
    return {"primary": _report_dict(primary),
            "back": _report_dict(back),
            "final_now": bed.env.now,
            "workload_bytes": bed.workload.bytes_processed}


def scenarios() -> dict:
    """Name -> thunk for every fixture scenario (deterministic order)."""
    from repro.analysis.experiments import BASELINE_SCHEMES

    table = {}
    for scheme in BASELINE_SCHEMES:
        table[f"scheme:{scheme}"] = (
            lambda scheme=scheme: _run_scheme(scheme))
    table["fault-retry:incremental"] = _run_fault_retry
    table["cluster:sharded-vs-monolithic"] = _run_sharded_cluster
    table["cluster:sharded-parallel-vs-inline"] = _run_sharded_parallel
    table["cluster:xrack-drain-dirtied"] = _run_xrack_drain
    table["cluster:xrack-busy-racks"] = _run_xrack_busy_racks
    table["roundtrip:bonnie-tpm-im"] = _run_bonnie_roundtrip
    return table


def _diff(path: str, expected, actual, out: list) -> None:
    """Collect human-readable leaf differences between two JSON trees."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                out.append(f"{path}.{key}: unexpected (={actual[key]!r})")
            elif key not in actual:
                out.append(f"{path}.{key}: missing (was {expected[key]!r})")
            else:
                _diff(f"{path}.{key}", expected[key], actual[key], out)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(f"{path}: length {len(expected)} -> {len(actual)}")
        for i, (e, a) in enumerate(zip(expected, actual)):
            _diff(f"{path}[{i}]", e, a, out)
    elif expected != actual:
        out.append(f"{path}: {expected!r} -> {actual!r}")


def capture(path: str) -> int:
    results = {}
    for name, thunk in scenarios().items():
        print(f"capture {name} ...", flush=True)
        results[name] = thunk()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"version": SCENARIO_VERSION, "scenarios": results},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(results)} reference scenarios to {path}")
    return 0


def verify(path: str, max_diffs: int = 20) -> int:
    if not os.path.exists(path):
        print(f"ERROR: no fixture file at {path}; "
              "run with --capture on known-good code first")
        return 2
    with open(path) as fh:
        fixture = json.load(fh)
    if fixture.get("version") != SCENARIO_VERSION:
        print(f"ERROR: fixture version {fixture.get('version')} != "
              f"scenario version {SCENARIO_VERSION}; re-capture needed")
        return 2

    failed = []
    for name, thunk in scenarios().items():
        expected = fixture["scenarios"].get(name)
        if expected is None:
            print(f"FAIL {name}: not in fixture file")
            failed.append(name)
            continue
        actual = thunk()
        # Round-trip through JSON so float representation is compared on
        # identical footing with the stored fixture.
        actual = json.loads(json.dumps(actual))
        diffs: list = []
        _diff(name, expected, actual, diffs)
        if diffs:
            print(f"FAIL {name}: {len(diffs)} field(s) differ")
            for line in diffs[:max_diffs]:
                print(f"    {line}")
            if len(diffs) > max_diffs:
                print(f"    ... and {len(diffs) - max_diffs} more")
            failed.append(name)
        else:
            print(f"PASS {name}")

    if failed:
        print(f"\nEQUIVALENCE BROKEN: {len(failed)}/{len(fixture['scenarios'])} "
              f"scenario(s) diverged: {', '.join(failed)}")
        return 1
    print(f"\nAll {len(fixture['scenarios'])} scenarios bit-identical "
          "to the reference fixtures.")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--capture", action="store_true",
                        help="rewrite the reference fixtures from current "
                             "code (only when semantics intentionally change)")
    parser.add_argument("--fixture", default=FIXTURE_PATH,
                        help="fixture file path (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.capture:
        return capture(args.fixture)
    return verify(args.fixture)


if __name__ == "__main__":
    sys.exit(main())
