"""Tests for the repro-sim command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_migrate_defaults(self):
        args = build_parser().parse_args(["migrate"])
        assert args.workload == "specweb"
        assert args.scheme == "tpm"
        assert args.rate_limit is None

    def test_invalid_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["migrate", "--workload", "doom"])

    def test_invalid_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["migrate", "--scheme", "teleport"])


class TestCommands:
    SMALL = ["--scale", "0.004", "--warmup", "3"]

    def test_migrate_tpm(self, capsys):
        assert main(["migrate", "--workload", "idle", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "primary TPM migration" in out
        assert "downtime" in out
        assert "wire ledger" in out

    def test_migrate_roundtrip(self, capsys):
        assert main(["migrate", "--workload", "specweb", "--roundtrip",
                     "--dwell", "3", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "incremental migration back" in out

    def test_migrate_guest_aware_flag(self, capsys):
        assert main(["migrate", "--workload", "idle", "--guest-aware",
                     *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "guest_aware_skipped_blocks" in out

    def test_migrate_baseline_scheme(self, capsys):
        assert main(["migrate", "--scheme", "freeze-and-copy",
                     "--workload", "idle", *self.SMALL]) == 0
        assert "freeze-and-copy migration" in capsys.readouterr().out

    def test_migrate_on_demand_reports_dependency(self, capsys):
        assert main(["migrate", "--scheme", "on-demand", "--workload",
                     "idle", "--dwell", "2", *self.SMALL]) == 0
        assert "residual dependency" in capsys.readouterr().out

    def test_backup_chain(self, capsys):
        assert main(["backup", "--workload", "idle", "--increments", "2",
                     "--interval", "2", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "full backup" in out
        assert "restore verified: CONSISTENT" in out

    def test_backup_with_mid_chain_migration(self, capsys):
        assert main(["backup", "--workload", "specweb", "--increments", "2",
                     "--interval", "2", "--migrate-between",
                     *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "live-migrated mid-chain" in out
        assert "restore verified: CONSISTENT" in out

    def test_table1(self, capsys):
        assert main(["table1", "--workload", "video", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "measured" in out

    def test_table2(self, capsys):
        assert main(["table2", "--workload", "specweb", "--dwell", "3",
                     *self.SMALL]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_locality(self, capsys):
        assert main(["locality", "--workload", "kernelbuild",
                     "--duration", "20", "--warmup", "10",
                     "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "locality" in out and "rewrite fraction" in out


class TestPinnedOutput:
    """Exact output of the cluster commands at tiny geometries.

    Pins destinations, statuses, queue waits, makespan and the byte
    conservation line, so a change to placement or to the drain path
    shows up as a diff here.
    """

    EVACUATE = ["evacuate", "--hosts", "4", "--vms-per-host", "5",
                "--nblocks", "256", "--npages", "32", "--concurrency", "2"]
    EVACUATED = (
        "evacuated host00: 5 VMs, makespan 322.7 ms\n"
        "  vm-host00-0      -> host01   done    queue 0.0 µs "
        "downtime 50.5 ms\n"
        "  vm-host00-1      -> host02   done    queue 0.0 µs "
        "downtime 50.5 ms\n"
        "  vm-host00-2      -> host03   done    queue 107.6 ms "
        "downtime 50.5 ms\n"
        "  vm-host00-3      -> host01   done    queue 124.7 ms "
        "downtime 50.5 ms\n"
        "  vm-host00-4      -> host02   done    queue 215.1 ms "
        "downtime 50.5 ms\n"
        "per-link byte accounting: conserved\n")

    @pytest.mark.parametrize("policy", ["least-loaded", "round-robin"])
    def test_evacuate(self, capsys, policy):
        assert main([*self.EVACUATE, "--policy", policy]) == 0
        assert capsys.readouterr().out == self.EVACUATED

    def test_scale(self, capsys):
        assert main(["scale", "--racks", "2", "--hosts-per-rack", "3",
                     "--vms-per-host", "2", "--duration", "6",
                     "--maintenance-interval", "2",
                     "--maintenance-hold", "2", "--concurrency", "4"]) == 0
        out = capsys.readouterr().out
        # The header's backend token is not part of the pinned result.
        out = re.sub(r", workers=\w+\)", ")", out)
        assert out == (
            "sharded cluster: 6 hosts / 12 VMs in 2 racks "
            "(lookahead 100 us)\n"
            "churn applied: arrival=14, departure=1, maintenance=2\n"
            "maintenance evacuations (10 jobs):\n"
            "  jobs      : 10/10 succeeded\n"
            "  makespan  : 2.193 s\n"
            "  per-job   : p50=0.135s  p95=0.184s  p99=0.191s\n"
            "  all tenant downtime budgets met\n"
            "engine: 840 events across 2 shards, 3 sync windows, "
            "0 cross-shard messages\n"
            "per-link byte accounting: conserved\n")
