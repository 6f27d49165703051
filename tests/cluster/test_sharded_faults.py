"""Faults against the sharded engine: per-shard plan splitting, clean
cross-rack failure, surrogate-transplant rollback, surrogates that crash
with their real hosts, the transplant's clock merge, and fault windows
straddling the conservative lookahead boundary."""

import pytest

from repro.cluster import build_sharded_cluster, check_invariants
from repro.cluster.chaos import ChaosConfig, run_chaos
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.storage.vbd import SEGMENT_BLOCKS

SMALL = dict(nblocks=256, npages=64)
#: The engine's conservative window length (min inter-rack latency).
LOOKAHEAD = 100e-6


def sharded(**kw):
    return build_sharded_cluster(nracks=2, hosts_per_rack=2,
                                 vms_per_host=1, **SMALL, **kw)


def domain_on(cluster, host_name):
    (domain,) = [d for d in cluster.domains if d.host.name == host_name]
    return domain


class TestInjectFaults:
    def test_crashes_narrow_per_shard_link_faults_replicate(self):
        cluster = sharded()
        plan = (FaultPlan()
                .crash("host00", at=50.0)
                .crash("host02", at=50.0)
                .partition(["rack1"], duration=1.0, at=50.0))
        injectors = cluster.inject_faults(plan)
        assert len(injectors) == len(cluster.shards) == 2
        assert [c.host for c in injectors[0].plan.crashes] == ["host00"]
        assert [c.host for c in injectors[1].plan.crashes] == ["host02"]
        # Partition cuts can touch any shard's replica fabric, so every
        # shard keeps the full spec.
        assert all(inj.plan.partitions == plan.partitions
                   for inj in injectors)

    def test_double_injection_rejected(self):
        cluster = sharded()
        cluster.inject_faults(FaultPlan().crash("host00", at=50.0))
        with pytest.raises(ReproError, match="already injected"):
            cluster.inject_faults(FaultPlan())


class TestCrossRackFailure:
    def test_partition_fails_precopy_cleanly(self):
        cluster = sharded()
        expected = {d.domain_id for d in cluster.domains}
        plan = (FaultPlan(send_timeout=0.05)
                .partition(["rack1"], duration=60.0, at=0.0))
        cluster.inject_faults(plan)
        domain = domain_on(cluster, "host00")
        job = cluster.submit(domain, "host02")
        cluster.drain([job])

        assert job.status == "failed"
        assert domain.host.name == "host00"  # never left the source
        assert not cluster.surrogate_residents()
        assert job in cluster.shards[0].scheduler.dead_letter
        assert check_invariants(cluster, expected) == []

    def test_postcopy_failure_rolls_back_the_transplant(self):
        # The ISSUE's marquee case: the cut lands *after* handover, while
        # the domain sits on the surrogate pulling remainder blocks.  The
        # watcher must undo the stand-in attach so the domain is not
        # stranded in a shard it never really reached.
        cluster = sharded()
        expected = {d.domain_id for d in cluster.domains}
        plan = (FaultPlan(send_timeout=0.05)
                .flap(down_time=60.0, up_time=0.5, count=1,
                      link=("rack1", "core"), phase="postcopy"))
        cluster.inject_faults(plan)
        domain = domain_on(cluster, "host00")
        job = cluster.submit(domain, "host02")
        cluster.drain([job])

        assert job.status == "failed"
        assert domain.host is not None
        assert domain.host.name == "host00"  # rolled back, not stranded
        assert not getattr(domain.host, "is_surrogate", False)
        assert not cluster.surrogate_residents()
        assert not cluster._live_cross
        assert check_invariants(cluster, expected) == []

    def test_rollback_is_counted(self):
        cluster = sharded(observe=True)
        plan = (FaultPlan(send_timeout=0.05)
                .flap(down_time=60.0, up_time=0.5, count=1,
                      link=("rack1", "core"), phase="postcopy"))
        cluster.inject_faults(plan)
        job = cluster.submit(domain_on(cluster, "host00"), "host02")
        cluster.drain([job])
        env = cluster.shards[0].env
        assert env.metrics.counter("cluster.cross_rack.rollbacks").total == 1


class TestLookaheadWindowBoundaries:
    """Satellite: fault windows must behave identically whether their
    edges land on, inside, or across the sharded engine's conservative
    synchronization windows (multiples of the inter-rack lookahead)."""

    def _delayed_cross(self, at, down_time):
        cluster = sharded()
        expected = {d.domain_id for d in cluster.domains}
        plan = (FaultPlan(send_timeout=60.0)
                .flap(down_time=down_time, up_time=0.5, count=1,
                      link=("rack0", "core"), at=at))
        cluster.inject_faults(plan)
        job = cluster.submit(domain_on(cluster, "host00"), "host02")
        cluster.drain([job])
        assert job.succeeded
        assert check_invariants(cluster, expected) == []
        return job.ended_at

    def test_window_straddling_fault_delays_and_delivers(self):
        # Starts mid-window, ends mid-window, spans several boundaries.
        self._delayed_cross(at=7.5 * LOOKAHEAD, down_time=3.5 * LOOKAHEAD)

    def test_fault_edges_on_exact_boundaries(self):
        self._delayed_cross(at=10 * LOOKAHEAD, down_time=4 * LOOKAHEAD)

    def test_sub_lookahead_fault_inside_one_window(self):
        self._delayed_cross(at=5.25 * LOOKAHEAD, down_time=0.5 * LOOKAHEAD)

    def test_boundary_alignment_does_not_change_the_outcome(self):
        # The same outage shifted by a fraction of a window must cost the
        # same wall-clock give or take the shift itself: conservative
        # windowing may quantize *processing*, never *physics*.
        base = self._delayed_cross(at=8 * LOOKAHEAD,
                                   down_time=6 * LOOKAHEAD)
        shifted = self._delayed_cross(at=8.5 * LOOKAHEAD,
                                      down_time=6 * LOOKAHEAD)
        assert shifted == pytest.approx(base, abs=LOOKAHEAD)

    def test_failing_fault_across_boundary_fails_cleanly(self):
        cluster = sharded()
        expected = {d.domain_id for d in cluster.domains}
        plan = (FaultPlan(send_timeout=0.05)
                .flap(down_time=60.0, up_time=0.5, count=1,
                      link=("rack1", "core"), at=3.5 * LOOKAHEAD))
        cluster.inject_faults(plan)
        domain = domain_on(cluster, "host00")
        job = cluster.submit(domain, "host02")
        cluster.drain([job])
        assert job.status == "failed"
        assert domain.host.name == "host00"
        assert check_invariants(cluster, expected) == []


class TestSurrogateCrashes:
    """A surrogate faults like the host it stands in for, and no host
    takes a VM while crashed."""

    def test_chaos_seed_3_attaches_nothing_to_a_crashed_host(self):
        # Before surrogates replayed crashes, host02 took vm-host05-0 at
        # t=0.409 s and vm-host03-1 at t=0.428 s while crashed.
        report = run_chaos(ChaosConfig(seed=3, mode="sharded"))
        assert report.ok, report.summary()
        crashed_host02 = [job for job in report.jobs
                          if job.destination.name == "host02"]
        assert crashed_host02
        assert all(job.status == "failed" for job in crashed_host02)

    def test_migration_to_a_crashed_remote_host_fails_at_the_source(self):
        cluster = sharded()
        expected = {d.domain_id for d in cluster.domains}
        cluster.inject_faults(FaultPlan(send_timeout=0.05)
                              .crash("host02", at=0.0))
        domain = domain_on(cluster, "host00")
        job = cluster.submit(domain, "host02")
        cluster.drain([job])
        assert job.status == "failed"
        assert domain.host.name == "host00"
        assert cluster.shards[0].surrogates["host02"].crashed
        assert cluster.host("host02").crashed_attaches == 0
        assert check_invariants(cluster, expected) == []

    def test_surrogate_built_mid_crash_restarts_with_the_real_host(self):
        cluster = sharded()
        cluster.inject_faults(FaultPlan().crash("host02", at=0.0,
                                                down_for=0.5))
        cluster.run(until=0.2)
        surrogate = cluster._surrogate(cluster.shards[0], cluster.shards[1],
                                       "host02")
        cluster.run(until=0.45)
        assert surrogate.crashed
        cluster.run(until=0.55)
        assert not surrogate.crashed
        assert not cluster.host("host02").crashed

    def test_destination_down_on_arrival_sends_the_vm_home(self):
        # The real host dies outside any plan, so the surrogate cannot
        # know: the migration commits, and the transplant must refuse.
        cluster = sharded()
        expected = {d.domain_id for d in cluster.domains}
        cluster.host("host02").crashed = True
        domain = domain_on(cluster, "host00")
        job = cluster.submit(domain, "host02")
        cluster.drain([job])
        assert job.status == "failed"
        assert job.failure.phase == "transplant"
        assert job in cluster.shards[0].scheduler.dead_letter
        assert domain.host.name == "host00"
        assert cluster.host("host02").crashed_attaches == 0
        assert not cluster._live_cross
        assert check_invariants(cluster, expected) == []

    def test_history_invariant_flags_an_attach_to_a_crashed_host(self):
        cluster = sharded()
        expected = {d.domain_id for d in cluster.domains}
        host = cluster.host("host00")
        domain = domain_on(cluster, "host00")
        _, vbd = host.detach_domain(domain.domain_id)
        host.crashed = True
        host.attach_domain(domain, vbd)
        assert check_invariants(cluster, expected) == [
            "history: host00 took 1 domain(s) while crashed"]


class TestTransplantClock:
    def test_clock_merges_above_a_prefilled_never_rewritten_disk(self):
        # The moved disk is one compact run of stamps far above the
        # destination rack's clock; the merge must still see them.  (A
        # disk smaller than one segment would be stored dense.)
        cluster = build_sharded_cluster(nracks=2, hosts_per_rack=2,
                                        vms_per_host=1,
                                        nblocks=SEGMENT_BLOCKS, npages=64)
        domain = domain_on(cluster, "host00")
        src_shard, dst_shard = cluster.shards
        src_shard.clock.tick(10 ** 6)
        vbd = cluster.host("host00").vbd_of(domain.domain_id)
        first = vbd.write(0, vbd.nblocks)
        assert dst_shard.clock.current < first
        job = cluster.submit(domain, "host02")
        cluster.drain([job])
        assert job.succeeded
        moved = cluster.host("host02").vbd_of(domain.domain_id)
        image_max = int(moved.snapshot().max())
        assert image_max == first + vbd.nblocks - 1 == moved.max_stamp()
        assert dst_shard.clock.current > image_max
        assert moved.write(0) > image_max
