"""One benchmark run: timed rounds, traced passes, checks and metrics."""

from __future__ import annotations

import gc
import statistics
from time import perf_counter
from typing import Any, Dict, List, Tuple

import hostspeed
import workloads as wl
from ledger import (
    COVERAGE_TOLERANCE,
    LAYERS,
    Ledger,
    LayerMap,
    TracedMeter,
    retained_by_layer,
)
from repro.net.supervisor import SpawnFailed

#: fewest timed rounds a run makes, however short ``--seconds`` is
MIN_ROUNDS = 3
#: rounds in each traced pass
TRACE_ROUNDS = {"echo": 2, "churn": 2, "scale": 1, "fleet": 1}

#: (name, unit, better): what a user of the program sees, on every workload
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("ops_per_s", "ops/s", "higher"),
    ("cpu_us_per_op", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better): the per-layer ledger of a traced run.  Every
#: name is reported on every workload; a layer a workload never enters
#: reads 0.  README.md says which end-to-end metric each should move.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    *((f"{layer}.self_us_per_op", "us", "lower") for layer in LAYERS),
    *((f"py.calls_per_op.{layer}", "count", "lower") for layer in LAYERS),
    *((f"alloc.retained_kb.{layer}", "KB", "lower") for layer in LAYERS),
    ("alloc.retained_blocks_per_op", "count", "lower"),
    ("engine.events_per_op", "count", "lower"),
    ("tasks.steps_per_op", "count", "lower"),
    ("kernel.port_calls_per_op", "count", "lower"),
    ("codec.calls_per_op", "count", "lower"),
    ("obs.trace_events_per_op", "count", "lower"),
    ("obs.retained_events", "count", "lower"),
    *((f"ops_per_s.{kind}", "ops/s", "higher") for kind in wl.KINDS),
    *((f"sim.rtt_ms.{kind}", "ms", "lower") for kind in wl.KINDS),
    *((f"kernel.calls_per_op.{kind}", "count", "lower") for kind in wl.KINDS),
    ("network.msgs_per_op", "count", "lower"),
    ("network.bytes_per_op", "bytes", "lower"),
    ("kernel.charlotte.move_msgs_per_hop", "count", "lower"),
    ("kernel.soda.redirects_per_hop", "count", "lower"),
    ("net.frames.encode_us_per_op", "us", "lower"),
    ("net.frames.decode_us_per_op", "us", "lower"),
    ("net.load.writes_per_op", "count", "lower"),
    ("net.load.cpu_frac", "ratio", "lower"),
    ("net.server.cpu_frac", "ratio", "lower"),
    ("net.load.retries", "count", "lower"),
    ("net.server.duplicates", "count", "lower"),
    ("net.server.executed_frac", "ratio", "higher"),
    ("net.server.rss_kb_per_op", "KB", "lower"),
    ("net.load.rtt_p50_us", "us", "lower"),
    ("net.load.rtt_p99_us", "us", "lower"),
    ("net.load.rtt_samples", "count", "higher"),
    ("host.speed", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.covered_frac", "ratio", "higher"),
)


def _timed_rounds(w: wl.Workload, seconds: float, probe_cpus: List[int],
                  rounds: List[wl.Round]) -> None:
    meter = wl.Meter()
    deadline = perf_counter() + seconds
    before = hostspeed.probe_on(probe_cpus)
    while len(rounds) < MIN_ROUNDS or perf_counter() < deadline:
        # start each round from a collected heap, so no round pays for
        # the garbage of the one before
        gc.collect()
        rnd = w.round(meter)
        after = hostspeed.probe_on(probe_cpus)
        rnd.speed = hostspeed.speed((before + after) / 2)
        before = after
        rounds.append(rnd)
        w.check(rnd)


def end_to_end(w: wl.Workload, rounds: List[wl.Round]) -> Dict[str, float]:
    """Times are scaled to the reference host speed round by round."""
    completed = sum(r.completed for r in rounds)
    cpu_s = sum((p.cpu_s + p.host.get("node_cpu_s", 0.0)) * r.speed
                for r in rounds for p in r.parts)
    if w.name == "fleet":
        peak_kb = max(r.parts[0].host["node_hwm_kb"] for r in rounds)
    else:
        peak_kb = wl.self_peak_rss_kb()
    return {
        "ops_per_s": statistics.median(r.completed / (r.run_s * r.speed)
                                       for r in rounds),
        "cpu_us_per_op": cpu_s / completed * 1e6,
        "setup_s": statistics.median(r.setup_s * r.speed for r in rounds),
        "peak_rss_mb": peak_kb * 1024 / 1e6,
    }


class TracedPass:
    """One traced pass: its rounds' parts and its ledger."""

    def __init__(self, rounds: List[wl.Round], ledger: Ledger) -> None:
        self.ledger = ledger
        self.speed = 1.0
        self.parts = [p for r in rounds for p in r.parts]
        self.ops = sum(r.completed for r in rounds)

    def total(self, key: str) -> int:
        return sum(p.sim.get(key, 0) for p in self.parts)

    def proxies(self) -> Dict[str, Any]:
        """Counts that repeat exactly between two traced passes of a
        simulated workload, the simulated outputs among them."""
        return dict(self.ledger.proxies(),
                    sims=[p.sim for p in self.parts])


def _traced_pass(w: wl.Workload, layers: LayerMap,
                 probe_cpus: List[int]) -> TracedPass:
    gc.collect()
    meter = TracedMeter()
    rounds = []
    before = hostspeed.probe_on(probe_cpus)
    for _ in range(TRACE_ROUNDS[w.name]):
        rnd = w.round(meter)
        w.check(rnd)
        rounds.append(rnd)
    traced = TracedPass(rounds, meter.ledger(layers))
    after = hostspeed.probe_on(probe_cpus)
    traced.speed = hostspeed.speed((before + after) / 2)
    return traced


def per_layer(w: wl.Workload, rounds: List[wl.Round], layers: LayerMap,
              probe_cpus: List[int], notes: List[str]) -> Dict[str, float]:
    first = _traced_pass(w, layers, probe_cpus)
    second = _traced_pass(w, layers, probe_cpus)
    if w.name != "fleet" and first.proxies() != second.proxies():
        a, b = first.proxies(), second.proxies()
        diff = sorted(k for k in a if a[k] != b[k])
        raise wl.CheckFailed(
            f"{w.name}: deterministic proxies differ between two traced "
            f"passes: {diff}"
        )
    led, ops = first.ledger, first.ops
    covered = led.profiled_s / led.wall_s
    notes.append(f"trace: profile covers {covered:.3f} of {led.wall_s:.3f} s "
                 f"traced wall time (tolerance {COVERAGE_TOLERANCE})")
    if abs(1.0 - covered) > COVERAGE_TOLERANCE:
        raise wl.CheckFailed(
            f"{w.name}: per-layer self times cover {covered:.3f} of the "
            f"traced wall time, outside 1 +/- {COVERAGE_TOLERANCE}"
        )

    gc.collect()
    rnd, kb, blocks = retained_by_layer(
        layers, lambda: w.round(wl.Meter(), keep=True))
    w.check(rnd)
    alloc_ops = rnd.completed
    del rnd

    # times scaled to the reference host speed, as the end-to-end ones
    untraced_s_per_op = (sum(r.run_s * r.speed for r in rounds)
                         / sum(r.completed for r in rounds))
    us_per_op = first.speed / ops * 1e6
    m: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    m["host.speed"] = statistics.median(r.speed for r in rounds)
    for layer in LAYERS:
        m[f"{layer}.self_us_per_op"] = led.self_s[layer] * us_per_op
        m[f"py.calls_per_op.{layer}"] = led.calls[layer] / ops
        m[f"alloc.retained_kb.{layer}"] = kb[layer]
    m["alloc.retained_blocks_per_op"] = blocks / alloc_ops
    m["engine.events_per_op"] = first.total("events") / ops
    m["tasks.steps_per_op"] = led.task_steps / ops
    m["kernel.port_calls_per_op"] = led.port_calls / ops
    m["codec.calls_per_op"] = led.codec_entries / ops
    m["obs.trace_events_per_op"] = first.total("trace_events") / ops
    m["obs.retained_events"] = max(p.sim.get("trace_events", 0)
                                   for p in first.parts)
    m["trace.overhead_frac"] = (
        led.wall_s * first.speed / ops / untraced_s_per_op - 1.0)
    m["trace.covered_frac"] = covered

    m.update(kernel_rates(rounds))
    sim_parts = [p for p in first.parts if p.kind in wl.KINDS]
    for part in sim_parts[:len(wl.KINDS)]:
        kind = part.kind
        m[f"sim.rtt_ms.{kind}"] = part.sim["rtt_ms"]
        m[f"kernel.calls_per_op.{kind}"] = (
            part.sim["kernel_calls"] / part.attempted)
        if w.name == "churn" and kind == "charlotte":
            m["kernel.charlotte.move_msgs_per_hop"] = (
                part.sim["move_msgs"] / wl.CHURN_HOPS)
        if w.name == "churn" and kind == "soda":
            m["kernel.soda.redirects_per_hop"] = (
                part.sim["redirects_followed"] / wl.CHURN_HOPS)
    if sim_parts:
        m["network.msgs_per_op"] = (
            sum(p.sim["wire_messages"] for p in sim_parts) / ops)
        m["network.bytes_per_op"] = (
            sum(p.sim["wire_bytes"] for p in sim_parts) / ops)

    if w.name == "fleet":
        parts = [r.parts[0] for r in rounds]
        run_s = sum(p.run_s for p in parts)
        seen = sum(p.host["stats"]["requests_seen"] for p in parts)
        m.update(fleet_latency(rounds))
        m.update({
            "net.frames.encode_us_per_op": led.encode_s * us_per_op,
            "net.frames.decode_us_per_op": led.decode_s * us_per_op,
            "net.load.writes_per_op": led.stream_writes / ops,
            "net.load.cpu_frac": sum(p.cpu_s for p in parts) / run_s,
            "net.server.cpu_frac": (
                sum(p.host["node_cpu_s"] for p in parts) / run_s),
            "net.load.retries": sum(p.host["retries"] for p in parts),
            "net.server.duplicates": sum(
                p.host["stats"]["duplicates"] for p in parts),
            "net.server.executed_frac": sum(
                p.host["stats"]["executed_unique"] for p in parts) / seen,
            "net.server.rss_kb_per_op": statistics.median(
                p.host["node_rss_growth_kb"] / p.completed for p in parts),
        })
        notes.append("fleet: traced passes are not compared, real sockets "
                     "do not repeat call counts")
    return m


def kernel_rates(rounds: List[wl.Round]) -> Dict[str, float]:
    """``ops_per_s.<kind>``: each kernel's part of echo or churn, the
    median over rounds, scaled like ``ops_per_s``."""
    rates: Dict[str, List[float]] = {}
    for r in rounds:
        for p in r.parts:
            if p.kind in wl.KINDS:
                rates.setdefault(f"ops_per_s.{p.kind}", []).append(
                    p.completed / (p.run_s * r.speed))
    return {name: statistics.median(xs) for name, xs in rates.items()}


def fleet_latency(rounds: List[wl.Round]) -> Dict[str, float]:
    """Request round trips of every timed fleet round, as measured: a
    wall-clock latency is not scaled by host speed."""
    rtt = wl.merged_rtt(rounds)
    return {
        "net.load.rtt_p50_us": rtt.percentile(50.0) * 1e3,
        "net.load.rtt_p99_us": rtt.percentile(99.0) * 1e3,
        "net.load.rtt_samples": rtt.count,
    }


def _reader_notes(w: wl.Workload, rounds: List[wl.Round]) -> List[str]:
    """Lines for the reader of an untraced run: the host speed its rounds
    saw, and the ledger's per-kernel and latency figures, which the
    traced run reports."""
    speeds = [r.speed for r in rounds]
    raw = statistics.median(r.completed / r.run_s for r in rounds)
    lines = [f"host speed over the rounds: median "
             f"{statistics.median(speeds):.3f}, range {min(speeds):.3f}"
             f"-{max(speeds):.3f}; unscaled ops_per_s {raw:.6g}"]
    side = kernel_rates(rounds)
    if w.name == "fleet":
        side.update(fleet_latency(rounds))
    units = {name: unit for name, unit, _ in PER_LAYER}
    lines.extend(f"{w.name:6} {name:40} {value:>16.6g} {units[name]} (ledger)"
                 for name, value in sorted(side.items()))
    return lines


def run_benchmark(workload: str, seed: int, seconds: float, traced: bool,
                  src: str, bench_dir: str, socket_root: str) -> Dict[str, Any]:
    cpus = hostspeed.pin()
    node_cpu = cpus[1] if len(cpus) > 1 else None
    # the fleet's work runs on two CPUs, every other workload's on one
    probe_cpus = cpus[:2] if workload == "fleet" else cpus[:1]
    w = wl.make_workload(workload, seed, socket_root, node_cpu)
    rounds: List[wl.Round] = []
    notes: List[str] = []
    metrics: Dict[str, float] = {}
    try:
        w.reference()
        _timed_rounds(w, seconds, probe_cpus, rounds)
        if traced:
            layers = LayerMap(f"{src}/repro", bench_dir)
            metrics = per_layer(w, rounds, layers, probe_cpus, notes)
            spec = PER_LAYER
        else:
            metrics = end_to_end(w, rounds)
            spec = END_TO_END
            notes.extend(_reader_notes(w, rounds))
        correct = True
    except (wl.CheckFailed, SpawnFailed) as exc:
        notes.append(f"CHECK FAILED: {exc}")
        correct, spec, metrics = False, (), {}
    notes.append(f"{workload}: {len(rounds)} timed rounds of "
                 f"{sum(r.attempted for r in rounds)} operations "
                 f"({w.op}); {w.attempted} operations in all checked "
                 f"rounds; seed {seed}")
    return {
        "correct": correct,
        "attempted": max(w.attempted, 1),
        "failed": w.attempted - w.completed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in spec},
        "notes": notes,
    }
