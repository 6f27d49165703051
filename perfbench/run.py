#!/usr/bin/env python3
"""Repository benchmark: live migration end to end and per layer.

Run one workload with one seed::

    python3 perfbench/run.py --workload dc_wave --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` (at least twice)
with tracing off and reports the end-to-end metrics.  ``--trace 1``
runs it untraced and with ``observe=True`` for the same budget, then
once more under :class:`layers.LayerTrace`, and reports the per-layer
metrics, the two overheads, and a Chrome trace under ``perfbench/out``.
Either way the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is non-zero when any correctness or determinism check fails.

``--coverage`` runs every workload traced once and prints, per layer,
which workload exercises it most and least.  ``--spec`` prints the
benchmark's record (see ``spec.py``) and checks BENCHMARK.json against
it.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

#: Set-ups measured per run, at least (extra set-up-only rounds are
#: added when the iterations give fewer).
MIN_SETUPS = 9
#: Iterations per untraced run, at least: the second one is the
#: determinism check.
MIN_ITERATIONS = 2
#: Where traced runs write their Chrome traces.
OUT_DIR = os.path.join(HERE, "out")


# -- one iteration ----------------------------------------------------------

class Sample:
    """Host times as measured, and results, of one iteration (every leg
    once).  ``probes`` is the stretch of speed-probe samples it spans."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.run_s = 0.0
        self.wall_s = 0.0
        self.legs: list = []
        self.probes = (0, 0)


def iterate(workload, seed: int, probe, observe: bool = False,
            trace=None) -> Sample:
    sample = Sample()
    first = probe.mark()
    for leg_name in workload.legs:
        start = perf_counter()
        state = workload.setup(leg_name, seed, observe)
        built = perf_counter()
        if trace is not None:
            trace.on = True
        try:
            leg = workload.run(state)
        finally:
            if trace is not None:
                trace.on = False
        ran = perf_counter()
        del state
        gc.collect()
        done = perf_counter()
        sample.setup_s += built - start
        sample.run_s += ran - built
        sample.wall_s += done - start
        sample.legs.append(leg)
    sample.probes = (first, probe.mark())
    return sample


def setup_only(workload, seed: int) -> float:
    """Set-up time of every leg, each built and torn down."""
    total = 0.0
    for leg_name in workload.legs:
        start = perf_counter()
        state = workload.setup(leg_name, seed)
        total += perf_counter() - start
        del state
        gc.collect()
    return total


def speed_factor(probe, samples: list[Sample]) -> float:
    """Scale for host seconds measured over ``samples`` (clock.py)."""
    return probe.factor(samples[0].probes[0], samples[-1].probes[1])


def signature(sample: Sample) -> list:
    """Everything simulated a run produced; must repeat exactly."""
    out = []
    for leg in sample.legs:
        out.append((leg.makespan, leg.events, leg.windows, leg.wire_bytes,
                    leg.queue_wait_sim_s, leg.attempted, leg.failed,
                    tuple((r.started_at, r.suspended_at, r.resumed_at,
                           r.ended_at, r.migrated_bytes, r.incremental,
                           len(r.disk_iterations), r.postcopy.pushed_blocks)
                          for r in leg.reports)))
    return out


# -- metrics ------------------------------------------------------------------

def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least 10
    samples beyond it, or the maximum when there are 10 or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def paper_error_pct(guests, sample: Sample) -> float:
    from repro.analysis.experiments import PAPER_TABLE1

    errors = []
    for guest, leg in zip(guests, sample.legs):
        paper = PAPER_TABLE1[guest]
        primary = leg.reports[0]
        for measured, ref in ((primary.total_migration_time,
                               paper["total_s"]),
                              (primary.downtime * 1e3, paper["downtime_ms"]),
                              (primary.migrated_mb, paper["data_mb"])):
            errors.append(abs(measured - ref) / ref)
    return 100.0 * sum(errors) / len(errors)


def simulated(workload, sample: Sample) -> tuple[dict, dict]:
    """End-to-end simulated metrics of one iteration, and notes."""
    reports = [r for leg in sample.legs for r in leg.reports]
    downtimes = [r.downtime * 1e3 for r in reports]
    attempted = sum(leg.attempted for leg in sample.legs)
    failed = sum(leg.failed for leg in sample.legs)
    value, pct, n = tail(downtimes)
    out = {
        "sim_makespan_s": sum(leg.makespan for leg in sample.legs),
        "sim_migration_s.p50": statistics.median(
            r.total_migration_time for r in reports),
        "sim_downtime_ms.p50": statistics.median(downtimes),
        "sim_downtime_ms.tail": value,
        "sim_migrated_mb": sum(r.migrated_bytes for r in reports) / 2**20,
        "jobs_failed_frac": failed / attempted,
    }
    notes = {"sim_downtime_ms.tail": f"p{pct:.4g} of n={n}"
             + ("; 10 or fewer samples, so the maximum" if n <= 10 else "")}
    if workload.name == "paper_roundtrip":
        out["paper_err_pct"] = paper_error_pct(workload.legs, sample)
    return out, notes


def failed_checks(sample: Sample) -> list[str]:
    return [f"{name}: {detail}" for leg in sample.legs
            for name, passed, detail in leg.checks if not passed]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- modes ------------------------------------------------------------------

def measure(workload, seed: int, seconds: float, probe) -> dict:
    """Untraced iterations for ``seconds`` (at least two)."""
    samples: list[Sample] = []
    start = perf_counter()
    while True:
        samples.append(iterate(workload, seed, probe))
        elapsed = perf_counter() - start
        if (len(samples) >= MIN_ITERATIONS
                and elapsed * (len(samples) + 1) / len(samples) > seconds):
            break
    setups = [s.setup_s for s in samples]
    while len(setups) < MIN_SETUPS:
        setups.append(setup_only(workload, seed))
    return dict(samples=samples, setups=setups,
                factor=speed_factor(probe, samples))


def traced(workload, seed: int, seconds: float, probe) -> dict:
    """Untraced and observed iterations for ``seconds`` (at least one
    each), then one traced iteration."""
    from layers import calibrate

    plain: list[Sample] = []
    observed: list[Sample] = []
    start = perf_counter()
    while True:
        plain.append(iterate(workload, seed, probe))
        observed.append(iterate(workload, seed, probe, observe=True))
        elapsed = perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    factor = speed_factor(probe, plain + observed)
    trace, sample = trace_once(workload, seed, probe)
    path = trace.dump_chrome(os.path.join(
        OUT_DIR, f"{workload.name}-seed{seed}.trace.json"))
    traced_factor = speed_factor(probe, [sample])
    self_s = {layer: seconds * traced_factor for layer, seconds
              in trace.corrected_self_s(calibrate()).items()}
    return dict(samples=plain, observed=observed, traced=sample,
                trace=trace, trace_path=path, self_s=self_s, factor=factor,
                traced_run_s=sample.run_s * traced_factor)


def trace_once(workload, seed: int, probe, span_cap: int = 20_000):
    from layers import LayerTrace

    trace = LayerTrace(run_id=f"{workload.name}-seed{seed}",
                       span_cap=span_cap)
    trace.install()
    try:
        sample = iterate(workload, seed, probe, trace=trace)
    finally:
        trace.uninstall()
    return trace, sample


def layer_metrics(result: dict) -> dict:
    from layers import LAYERS

    trace = result["trace"]
    sample = result["traced"]
    self_s = result["self_s"]
    reports = [r for leg in sample.legs for r in leg.reports]
    plain_run = (statistics.median(s.run_s for s in result["samples"])
                 * result["factor"])
    observed_run = (statistics.median(s.run_s for s in result["observed"])
                    * result["factor"])
    events = sum(leg.events for leg in sample.legs)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls"] = trace.layer_calls[layer]
    metrics.update({
        "sim.events": events,
        "sim.timeouts": trace.counted("sim.timeouts"),
        "sim.resource_requests": trace.counted("sim.resource_requests"),
        "sim.host_us_per_event": (1e6 * self_s["sim"] / events
                                  if events else 0.0),
        "sim.windows": sum(leg.windows for leg in sample.legs),
        "vm.io_calls": trace.counted("vm.io_calls"),
        "storage.submits": trace.counted("storage.submits"),
        "storage.disk_ios": trace.counted("storage.disk_ios"),
        "storage.disk_queue_sim_s": trace.disk_queue_sim_s,
        "net.sends": trace.counted("net.sends"),
        "net.wire_mb": sum(leg.wire_bytes for leg in sample.legs) / 2**20,
        "net.link_queue_sim_s": trace.link_queue_sim_s,
        "core.streams": trace.counted("core.streams"),
        "core.precopy_iterations": sum(len(r.disk_iterations)
                                       for r in reports),
        "core.postcopy_pushed_blocks": sum(r.postcopy.pushed_blocks
                                           for r in reports),
        "core.disk_amplification": (
            sum(r.bytes_by_category.get("disk", 0) for r in reports)
            / sum(leg.vbd_bytes for leg in sample.legs)),
        "cluster.submits": trace.counted("cluster.submits"),
        "cluster.transplants": trace.counted("cluster.transplants"),
        "cluster.queue_wait_sim_s": sum(leg.queue_wait_sim_s
                                        for leg in sample.legs),
        "trace.overhead_frac": result["traced_run_s"] / plain_run - 1.0,
        "obs.overhead_frac": observed_run / plain_run - 1.0,
    })
    return metrics


def layer_table(self_s: dict, calls: dict) -> list[str]:
    """Self time (tracer cost taken out), its share, and calls."""
    total = sum(self_s.values())
    lines = [f"  {'layer':<10} {'self_s':>9} {'share':>7} {'calls':>11}"]
    for layer, seconds in self_s.items():
        lines.append(f"  {layer:<10} {seconds:9.3f} {seconds / total:7.1%} "
                     f"{calls[layer]:11d}")
    return lines


def coverage(seed: int, probe) -> int:
    """Trace every workload once; report, per layer, where it is
    exercised most and least, and fail if a layer is never called."""
    from layers import LAYERS, calibrate
    from scenarios import WORKLOADS

    per_span = calibrate()
    shares: dict[str, dict[str, float]] = {}
    calls: dict[str, dict[str, int]] = {}
    for name, workload in WORKLOADS.items():
        trace, sample = trace_once(workload, seed, probe, span_cap=0)
        bad = failed_checks(sample)
        if bad:
            print(f"{name}: checks failed: {bad}")
            return 1
        self_s = trace.corrected_self_s(per_span)
        total = sum(self_s.values())
        shares[name] = {layer: self_s[layer] / total for layer in LAYERS}
        calls[name] = {layer: trace.layer_calls[layer] for layer in LAYERS}
        print(f"{name}: traced run_s {sample.run_s:.2f}")
        for line in layer_table(self_s, trace.layer_calls):
            print(line)
    print(f"\n{'layer':<10} {'most':<16} {'share':>7} {'least':<16} "
          f"{'share':>7}  calls per workload")
    missing = []
    for layer in LAYERS:
        ranked = sorted(WORKLOADS, key=lambda w: shares[w][layer])
        most, least = ranked[-1], ranked[0]
        counts = ", ".join(f"{w}={calls[w][layer]}" for w in WORKLOADS)
        print(f"{layer:<10} {most:<16} {shares[most][layer]:7.1%} "
              f"{least:<16} {shares[least][layer]:7.1%}  {counts}")
        if not any(calls[w][layer] for w in WORKLOADS):
            missing.append(layer)
    wave = shares["dc_wave"]
    io = wave["sim"] + wave["vm"] + wave["storage"]
    rest = wave["core"] + wave["net"] + wave["bitmap"] + wave["cluster"]
    print(f"\ndc_wave: sim+vm+storage {io:.1%} of self time "
          f"(expected > 50%), core+net+bitmap+cluster {rest:.1%} "
          f"(expected < 10%)")
    if missing:
        print(f"layers never called: {missing}")
        return 1
    return 0


def check_spec() -> int:
    """Print the benchmark record; fail if BENCHMARK.json disagrees."""
    import spec

    print(json.dumps(spec.record(), indent=2))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {
        "workloads": list(spec.WORKLOADS),
        "end_to_end": [dict(name=name, unit=m["unit"], better=m["better"],
                            bound=m["bound"])
                       for name, m in spec.END_TO_END.items()
                       if name in spec.GATED],
        "per_layer": [dict(name=name, unit=m["unit"], better=m["better"])
                      for name, m in spec.PER_LAYER.items()],
    }
    found = dict(bench, workloads=[w["name"] for w in bench["workloads"]])
    problems = [key for key in expected if found.get(key) != expected[key]]
    for key in problems:
        print(f"BENCHMARK.json: {key} differs from spec.py", file=sys.stderr)
    return 1 if problems else 0


# -- output -----------------------------------------------------------------

def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         units: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]["unit"]}
                    for name, value in metrics.items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="dc_wave")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--coverage", action="store_true")
    parser.add_argument("--spec", action="store_true")
    args = parser.parse_args(argv)

    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the repro package from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    import spec
    from clock import NOMINAL_PROBE_S, SpeedProbe
    from scenarios import WORKLOADS

    if args.spec:
        return check_spec()
    if args.coverage:
        with SpeedProbe() as probe:
            return coverage(args.seed, probe)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"geometry: {json.dumps(workload.geometry)}")

    with SpeedProbe() as probe:
        if args.trace:
            result = traced(workload, args.seed, args.seconds, probe)
        else:
            result = measure(workload, args.seed, args.seconds, probe)
    samples = result["samples"]
    checked = samples + result.get("observed", []) + (
        [result["traced"]] if "traced" in result else [])

    problems = [p for s in checked for p in failed_checks(s)]
    reference = signature(samples[0])
    drift = sum(signature(s) != reference for s in checked[1:])
    if drift:
        problems.append(f"determinism: {drift} of {len(checked) - 1} "
                        "repeats of this seed simulated differently")
    attempted = sum(leg.attempted for s in samples for leg in s.legs)
    failed = sum(leg.failed for s in samples for leg in s.legs)

    sim, notes = simulated(workload, samples[0])
    measured = {
        "wall_s": statistics.median(s.wall_s for s in samples),
        "setup_s": statistics.median(result.get("setups", [
            s.setup_s for s in samples])),
        "run_s": statistics.median(s.run_s for s in samples),
    }
    factor = result["factor"]
    host = {name: value * factor for name, value in measured.items()}
    host["peak_rss_mb"] = peak_rss_mb()
    print(f"iterations: {len(samples)} untraced"
          + (f", {len(result['observed'])} observed, 1 traced"
             if args.trace else f", {len(result['setups'])} set-ups")
          + "; run_s each as measured: "
          + " ".join(f"{s.run_s:.4g}" for s in samples))
    print(f"{'metric':<22} {'value':>14} {'unit':<9} {'clock':<6} gate")
    for name, value in {**host, **sim}.items():
        m = spec.END_TO_END[name]
        gate = f"±{m['bound']:g}" if m["bound"] is not None else "-"
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<22} {fmt(value):>14} {m['unit']:<9} "
              f"{m['clock']:<6} {gate}{note}")
    print(f"host seconds above are as measured times {factor:.4g}, the "
          f"speed probe's nominal {NOMINAL_PROBE_S * 1e6:g} us over its "
          "median during the run (clock.py); as measured: "
          + ", ".join(f"{key} {value:.4g}" for key, value in measured.items()))

    if args.trace:
        metrics = layer_metrics(result)
        units = spec.PER_LAYER
        trace = result["trace"]
        print(f"traced run_s {result['traced_run_s']:.3f}; spans kept "
              f"{len(trace.spans)} of "
              f"{trace.spans_total} -> {result['trace_path']}")
        for line in layer_table(result["self_s"], trace.layer_calls):
            print(line)
        for name, value in metrics.items():
            print(f"{name:<28} {fmt(value):>14} {units[name]['unit']}")
        if metrics["net.wire_mb"] != sim["sim_migrated_mb"]:
            problems.append("net.wire_mb != sim_migrated_mb")
    else:
        metrics = {name: {**host, **sim}[name] for name in spec.GATED}
        units = spec.END_TO_END

    print("checks: " + ("all passed" if not problems
                        else "FAILED: " + "; ".join(problems)))
    emit(not problems, attempted, failed, metrics, units)
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # a crash is a failed run, never a result
        traceback.print_exc()
        sys.exit(1)
