"""The benchmark's three workloads, each split into set-up and run.

A workload is a list of *legs*.  ``setup(seed, observe)`` builds one
leg's testbed and starts its guests; ``run(state)`` submits the
migrations, drains them and audits the result into a :class:`Leg`.
Every random choice is drawn from ``numpy.random.default_rng(seed)``
(or the testbed's own ``seed``), so one seed always gives the same
inputs.  All legs use the default inline engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.experiments import build_testbed
from repro.cluster import audit_link_bytes, build_sharded_cluster
from repro.net.topology import RoutedPath

#: Guest write period of the datacenter tickers and the cross-rack
#: dirtiers (simulated seconds).
TICK = 0.05
#: The datacenter tickers start together, as in ``bench_scale.py``,
#: each up to this much late (seeded): a host's ten tickers still queue
#: on its disk every tick, which is the load the wave is meant to carry.
JITTER = 0.001

#: Workload geometry, echoed in the benchmark's report.
GEOMETRY = {
    "paper_roundtrip": dict(
        guests=("specweb", "video", "bonnie"), scale=1.0,
        vbd_blocks=10_001_920, mem_pages=131_072, link="1 Gbps",
        warmup_s=20.0, dwell_s=30.0),
    "dc_wave": dict(
        racks=25, hosts_per_rack=40, vms_per_host=10, vbd_blocks=256,
        mem_pages=32, evacuate_per_rack=12, ticker_blocks=2,
        tick_s=TICK, ticker_jitter_s=JITTER),
    "xrack_drain": dict(
        racks=4, hosts_per_rack=8, vms_per_host=4, vbd_blocks=65_536,
        mem_pages=4_096, max_concurrent=8, dirty_blocks=4,
        dirty_pages=8, tick_s=TICK),
}


@dataclass
class Leg:
    """What one leg's run produced, for metrics and checks."""

    #: Migration reports; for ``paper_roundtrip`` ``[TPM out, IM back]``.
    reports: list
    #: Migrations attempted / failed.
    attempted: int
    failed: int
    #: First submit to last job end, simulated seconds.
    makespan: float
    #: Bytes injected into the network: ``Link.bytes_sent`` summed over
    #: every link a migration channel enters the network on.
    wire_bytes: int
    #: Bytes of every VBD the leg migrated, each counted once.
    vbd_bytes: int
    events: int
    windows: int = 0
    queue_wait_sim_s: float = 0.0
    #: (check name, passed, detail).
    checks: list = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))


def injected_bytes(migrations) -> int:
    """Bytes hosts put on the wire, from the links' own counters.

    Every channel's path starts on its sending host's egress link, and
    hosts do not forward, so each egress link is the first hop of every
    path through it and is counted once.
    """
    first_hops = {}
    for migration in migrations:
        for channel in migration.channels:
            link = channel.link
            hop = link.hops[0] if isinstance(link, RoutedPath) else link
            first_hops[id(hop)] = hop
    return sum(hop.bytes_sent for hop in first_hops.values())


def _placement_check(leg: Leg, hosts, surrogates, domains,
                     expected: dict) -> None:
    """Every domain ends on exactly one live host, and moved domains on
    the host they were sent to."""
    where: dict[int, list] = {}
    for host in list(hosts) + list(surrogates):
        for domain in host.domains:
            where.setdefault(domain.domain_id, []).append(host)
    bad = []
    for domain in domains:
        homes = where.get(domain.domain_id, [])
        if (len(homes) != 1 or homes[0] is not domain.host
                or homes[0].crashed
                or getattr(homes[0], "is_surrogate", False)):
            bad.append(domain.name)
        elif (domain.domain_id in expected
              and domain.host.name != expected[domain.domain_id]):
            bad.append(domain.name)
    leg.check("one_live_host", not bad,
              f"{len(bad)} misplaced, e.g. {bad[:3]}" if bad else "")


def _report_checks(leg: Leg) -> None:
    unverified = [r for r in leg.reports if not r.consistency_verified]
    leg.check("consistency_verified", not unverified,
              f"{len(unverified)} reports unverified")
    reported = sum(r.migrated_bytes for r in leg.reports)
    leg.check("wire_equals_reports", leg.wire_bytes == reported,
              f"links {leg.wire_bytes} B vs reports {reported} B")


# -- paper_roundtrip ---------------------------------------------------------

class PaperRoundtrip:
    """The paper's two-machine testbed at full geometry: TPM out, dwell,
    IM back, once per guest (specweb, video, bonnie)."""

    name = "paper_roundtrip"
    geometry = GEOMETRY[name]
    legs = geometry["guests"]

    def setup(self, leg: str, seed: int, observe: bool = False):
        bed = build_testbed(leg, scale=self.geometry["scale"], seed=seed,
                            observe=observe)
        bed.start_workload()
        return bed

    def run(self, bed) -> Leg:
        bed.run_for(self.geometry["warmup_s"])
        primary = bed.migrate()
        bed.run_for(self.geometry["dwell_s"])
        back = bed.migrate()
        migrations = bed.migrator.migrations
        leg = Leg(reports=[primary, back], attempted=2, failed=0,
                  makespan=back.ended_at - primary.started_at,
                  wire_bytes=injected_bytes(migrations),
                  vbd_bytes=bed.domain.vbd.nbytes,
                  events=bed.env.events_processed)
        _report_checks(leg)
        leg.check("im_incremental", back.incremental and
                  not primary.incremental, "back-migration ran as full TPM")
        bad = [a for a in audit_link_bytes(migrations) if not a.conserved]
        leg.check("link_bytes_conserved", not bad, repr(bad[:2]))
        _placement_check(leg, [bed.source, bed.destination], [],
                         [bed.domain],
                         {bed.domain.domain_id: bed.source.name})
        return leg


# -- sharded workloads -------------------------------------------------------

class _ShardedWorkload:
    """Run half shared by the sharded workloads: ``setup`` returns the
    cluster and its ``(domain, destination host name)`` moves."""

    def run(self, state) -> Leg:
        cluster, moves = state
        jobs = [cluster.submit(vm, dest) for vm, dest in moves]
        cluster.drain(jobs)
        expected = {vm.domain_id: dest for vm, dest in moves}
        return _sharded_leg(cluster, jobs, expected)


def _sharded_leg(cluster, jobs, expected: dict) -> Leg:
    reports = [job.report for job in jobs if job.report is not None]
    migrations = [m for shard in cluster.shards
                  for m in shard.migrator.migrations]
    failed = sum(not job.succeeded for job in jobs)
    leg = Leg(reports=reports, attempted=len(jobs), failed=failed,
              makespan=cluster.makespan(jobs),
              wire_bytes=injected_bytes(migrations),
              vbd_bytes=sum(job.domain.vbd.nbytes for job in jobs
                            if job.succeeded),
              events=cluster.events_processed,
              windows=cluster.engine.windows,
              queue_wait_sim_s=sum(job.queue_time for job in jobs))
    leg.check("jobs_succeeded", failed == 0,
              f"{failed} of {len(jobs)} failed: "
              f"{[str(j.error) for j in jobs if not j.succeeded][:2]}")
    _report_checks(leg)
    try:
        cluster.assert_conserved()
        leg.check("link_bytes_conserved", True)
    except AssertionError as exc:
        leg.check("link_bytes_conserved", False, str(exc)[:200])
    leg.check("no_surrogate_residents", not cluster.surrogate_residents())
    surrogates = [s for shard in cluster.shards
                  for s in shard.surrogates.values()]
    _placement_check(leg, cluster.hosts, surrogates, cluster.domains,
                     expected)
    return leg


class DcWave(_ShardedWorkload):
    """A 1,000-host / 10,000-VM datacenter under background guest
    writes, evacuating 12 VMs per rack to rack-local hosts."""

    name = "dc_wave"
    geometry = GEOMETRY[name]
    legs = ("wave",)

    def setup(self, leg: str, seed: int, observe: bool = False):
        g = self.geometry
        cluster = build_sharded_cluster(
            nracks=g["racks"], hosts_per_rack=g["hosts_per_rack"],
            vms_per_host=g["vms_per_host"], nblocks=g["vbd_blocks"],
            npages=g["mem_pages"], max_concurrent=10 ** 6, seed=seed,
            observe=observe)
        rng = np.random.default_rng(seed)
        for shard in cluster.shards:
            for host in shard.hosts:
                for domain in sorted(host.domains,
                                     key=lambda d: d.domain_id):
                    base = int(rng.integers(0, g["vbd_blocks"]
                                            - g["ticker_blocks"]))
                    phase = float(rng.uniform(0.0, JITTER))
                    shard.env.process(
                        _ticker(shard.env, domain, base,
                                g["ticker_blocks"], phase),
                        name=f"ticker:{domain.name}")
        moves = []
        for shard in cluster.shards:
            vms = sorted((d for h in shard.hosts for d in h.domains),
                         key=lambda d: d.domain_id)
            victims = vms[:g["evacuate_per_rack"]]
            sources = {vm.host.name for vm in victims}
            targets = [h.name for h in shard.hosts if h.name not in sources]
            moves.extend((vm, targets[i % len(targets)])
                         for i, vm in enumerate(victims))
        return cluster, moves


def _ticker(env, domain, base: int, nblocks: int, phase: float):
    """Perpetual guest writer: ``nblocks`` blocks every :data:`TICK`."""
    yield env.timeout(phase)
    while True:
        yield from domain.write(base, nblocks)
        yield env.timeout(TICK)


def _dirtier(env, domain, base: int, nblocks: int, pages, phase: float):
    """Light guest load on a moving VM; stops once the VM is handed
    over to another shard (its ``env`` changes)."""
    yield env.timeout(phase)
    while domain.env is env:
        yield from domain.write(base, nblocks)
        if domain.env is env and domain.running:
            domain.touch_memory(pages)
        yield env.timeout(TICK)


class XrackDrain(_ShardedWorkload):
    """Every VM of rack 0 moves cross-rack, round-robin over the other
    racks' hosts: migration-dominated, multi-hop, narrow windows."""

    name = "xrack_drain"
    geometry = GEOMETRY[name]
    legs = ("drain",)

    def setup(self, leg: str, seed: int, observe: bool = False):
        g = self.geometry
        cluster = build_sharded_cluster(
            nracks=g["racks"], hosts_per_rack=g["hosts_per_rack"],
            vms_per_host=g["vms_per_host"], nblocks=g["vbd_blocks"],
            npages=g["mem_pages"], max_concurrent=g["max_concurrent"],
            seed=seed, observe=observe)
        rng = np.random.default_rng(seed)
        rack0 = cluster.shards[0]
        vms = sorted((d for h in rack0.hosts for d in h.domains),
                     key=lambda d: d.domain_id)
        others = [h.name for shard in cluster.shards[1:]
                  for h in shard.hosts]
        order = [others[i] for i in rng.permutation(len(others))]
        moves = []
        for i, vm in enumerate(vms):
            base = int(rng.integers(0, g["vbd_blocks"] - g["dirty_blocks"]))
            pages = np.sort(rng.choice(g["mem_pages"], g["dirty_pages"],
                                       replace=False))
            phase = float(rng.uniform(0.0, TICK))
            rack0.env.process(
                _dirtier(rack0.env, vm, base, g["dirty_blocks"], pages,
                         phase), name=f"dirtier:{vm.name}")
            moves.append((vm, order[i % len(order)]))
        return cluster, moves


WORKLOADS = {w.name: w for w in (PaperRoundtrip(), DcWave(), XrackDrain())}
