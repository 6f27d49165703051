"""Freeze-and-copy whole-system migration (Internet Suspend/Resume).

The paper's Related Work §II-B: suspend the VM, copy *all* of its state —
disk, memory, CPU — to the destination, then restart it there.  Exactly
one copy of the run-time state crosses the wire (no retransfers, no
protocol redundancy beyond headers), but the service is down for the
entire transfer: minutes to hours for tens of GB.  This is the downtime
baseline TPM's three phases exist to destroy.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..core.scheme import MigrationScheme, register_scheme
from ..core.transfer import BlockStreamer, PageStreamer
from ..errors import MigrationError
from ..net.messages import CPUStateMsg
from ..vm.memory import GuestMemory


@register_scheme
class FreezeAndCopyMigration(MigrationScheme):
    """Suspend → copy everything → resume."""

    name = "freeze-and-copy"
    aliases = ("freeze-copy",)

    def _execute(self) -> Generator:
        env = self.env
        domain = self.domain
        cfg = self.config
        report = self.report
        tracer = env.tracer

        src_vbd = self.source.vbd_of(domain.domain_id)
        dest_vbd = self.destination.prepare_vbd(
            src_vbd.nblocks, src_vbd.block_size, data=src_vbd.has_data)

        # Freeze first: everything below happens with the VM down.
        self._committed = True
        self._notify_phase("freeze")
        domain.suspend()
        freeze_span = tracer.begin("phase:freeze", category="phase")
        report.suspended_at = env.now
        tracer.instant("suspend", category="freeze")
        if cfg.suspend_overhead > 0:
            yield env.timeout(cfg.suspend_overhead)
        yield from self.source.driver_of(domain.domain_id).quiesce()

        disk_span = tracer.begin("phase:copy-disk", category="phase",
                                 blocks=int(src_vbd.nblocks))
        report.precopy_disk_started_at = env.now
        streamer = BlockStreamer(env, self.source.disk, src_vbd,
                                 self.destination.disk, dest_vbd,
                                 self.fwd, cfg)
        yield from streamer.stream(
            range(src_vbd.nblocks),
            category="disk", limited=False)
        report.precopy_disk_ended_at = env.now
        tracer.end(disk_span)

        shadow = GuestMemory(domain.memory.npages, domain.memory.page_size,
                             clock=domain.memory.clock)
        pages = PageStreamer(env, domain.memory, shadow, self.fwd, cfg)
        yield from pages.stream(
            np.arange(domain.memory.npages, dtype=np.int64),
            category="memory", limited=False)
        yield from self.fwd.send(CPUStateMsg(domain.cpu.state_nbytes),
                                 category="cpu", limited=False)
        yield self.fwd.recv()
        if not shadow.identical_to(domain.memory):
            raise MigrationError("memory inconsistent after freeze-copy")

        self.source.detach_domain(domain.domain_id)
        self.destination.attach_domain(domain, dest_vbd)
        domain.memory = shadow
        if cfg.resume_overhead > 0:
            yield env.timeout(cfg.resume_overhead)
        domain.resume()
        report.resumed_at = env.now
        tracer.instant("resume", category="freeze",
                       downtime=report.resumed_at - report.suspended_at)
        tracer.end(freeze_span)
        report.ended_at = env.now

        if cfg.verify_consistency:
            src_vbd.assert_identical(dest_vbd)
            report.consistency_verified = True
        return report
