"""The four benchmark workloads, each split into rounds.

A round sets a workload up, runs it, and checks it.  Only the run is
timed as work (`Meter.measure`); the set-up is timed on its own, so
work moved between the two shows in `setup_s`.  Every round of one
seed repeats the same simulated inputs, so its simulated outputs must
repeat exactly; `Workload.check` holds each round to the first.

The workloads drive the program only through its public surface:
`make_cluster`, the `Proc` programs of `repro.workloads`, `ShardSim`
and `make_engine` (the pieces `run_scale` is made of), and
`NodeSupervisor`, `run_load` and `query_stats`.  Each workload checks
once per run, outside the timed rounds, that its rounds reproduce the
packaged entry point (`run_rpc_workload`, `run_migration_churn`,
`run_scale`) exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Optional

from repro.core.api import make_cluster
from repro.net.load import run_load, query_stats
from repro.net.supervisor import NodeSupervisor
from repro.obs.hist import StreamingHistogram
from repro.sim.backends import make_engine
from repro.workloads.migration import (
    Dispatcher,
    Member,
    Observer,
    run_migration_churn,
)
from repro.workloads.rpc import PingClient, PingServer, run_rpc_workload
from repro.workloads.scale import ShardSim, run_scale

KINDS = ("charlotte", "soda", "chrysalis", "ideal")

#: bytes of `ping` payload in each direction (echo) and per frame (fleet)
PAYLOAD_BYTES = 64
#: measured pings per cluster; each cluster also makes one warm-up ping
ECHO_PINGS = 100
#: hops per churn cluster; each hop is three RPCs and two moves
CHURN_HOPS = 40
CHURN_MEMBERS = 4
CHURN_LINGER_MS = 2000.0
#: the scale population and its requests per client
SCALE_CLIENTS = 20_000
SCALE_REQUESTS = 1
#: fleet: client connections, and requests per connection per node
FLEET_CLIENTS = 2
FLEET_REQUESTS = 2000


class Meter:
    """Times the measured region of a round."""

    def measure(self, fn: Callable[[], Any]) -> float:
        t0 = perf_counter()
        fn()
        return perf_counter() - t0


@dataclass
class Part:
    """One measured unit of a round: a cluster on one kernel, the scale
    engine, or one node's load run."""

    kind: str
    attempted: int
    completed: int
    run_s: float
    cpu_s: float
    #: simulated outputs that must repeat exactly for one seed
    sim: Dict[str, Any]
    #: host-side outputs (fleet): histogram, node counters, CPU, memory
    host: Dict[str, Any] = field(default_factory=dict)
    #: the live cluster or engine, kept alive for the allocation pass
    subject: Any = None


@dataclass
class Round:
    setup_s: float
    parts: List[Part]
    #: host speed around the round (`hostspeed.speed`), set by the caller
    speed: float = 1.0

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.parts)

    @property
    def completed(self) -> int:
        return sum(p.completed for p in self.parts)

    @property
    def run_s(self) -> float:
        return sum(p.run_s for p in self.parts)


class CheckFailed(AssertionError):
    """A workload produced a wrong or unrepeatable output."""


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


#: the counters under which each kernel counts its own primitives
KERNEL_CALL_COUNTERS = {
    "charlotte": ("kernel.calls.",),
    "soda": ("soda.advertise", "soda.discover", "soda.requests",
             "soda.accepts", "soda.withdrawals"),
    "chrysalis": ("chrysalis.ops.",),
    "ideal": ("ideal.handoffs", "ideal.withdrawals"),
}


def _cluster_sim(kind: str, cluster) -> Dict[str, Any]:
    m = cluster.metrics
    return {
        "wire_messages": m.total("wire.messages."),
        "wire_bytes": m.get("wire.bytes"),
        "kernel_calls": sum(m.total(prefix)
                            for prefix in KERNEL_CALL_COUNTERS[kind]),
        "sim_end_ms": cluster.engine.now,
        "events": cluster.engine.events_fired,
        "trace_events": len(cluster.trace.events),
        # every simulated counter, so the repeat check covers them all
        "counters": dict(sorted(m.counters("").items())),
    }


def _timed_run(meter: Meter, fn: Callable[[], Any]):
    c0 = process_time()
    run_s = meter.measure(fn)
    return run_s, process_time() - c0


class Workload:
    """Base: rounds, the per-run reference check, and the repeat check."""

    name = ""
    #: end-to-end operations of one round, for the reader of the output
    op = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._first: Dict[str, Dict[str, Any]] = {}
        #: operations of every round checked so far, whatever it was for
        self.attempted = 0
        self.completed = 0

    def round(self, meter: Meter, keep: bool = False) -> Round:
        raise NotImplementedError

    def reference(self) -> None:
        """Check once that the rounds reproduce the packaged entry point."""

    def check(self, rnd: Round) -> None:
        """Every operation completed, and every part's simulated outputs
        equal those of the first round of the same part."""
        self.attempted += rnd.attempted
        self.completed += rnd.completed
        for part in rnd.parts:
            if part.completed != part.attempted:
                raise CheckFailed(
                    f"{self.name}/{part.kind}: {part.completed} of "
                    f"{part.attempted} operations completed"
                )
            first = self._first.setdefault(part.kind, part.sim)
            if part.sim != first:
                raise CheckFailed(
                    f"{self.name}/{part.kind}: simulated outputs changed "
                    f"between rounds of one seed: {part.sim} != {first}"
                )


class Echo(Workload):
    name = "echo"
    op = "LYNX ping RPC"

    def round(self, meter: Meter, keep: bool = False) -> Round:
        setup_s = 0.0
        parts = []
        for kind in KINDS:
            t0 = perf_counter()
            cluster = make_cluster(kind, seed=self.seed)
            client = PingClient(ECHO_PINGS, PAYLOAD_BYTES)
            s = cluster.spawn(PingServer(ECHO_PINGS + 1, PAYLOAD_BYTES),
                              "server")
            c = cluster.spawn(client, "client")
            cluster.create_link(s, c)
            setup_s += perf_counter() - t0
            run_s, cpu_s = _timed_run(
                meter, lambda: cluster.run_until_quiet(max_ms=1e7))
            done = cluster.all_finished and len(client.rtts) == ECHO_PINGS
            sim = _cluster_sim(kind, cluster)
            sim["rtt_ms"] = _mean(client.rtts)
            parts.append(Part(
                kind, ECHO_PINGS + 1, ECHO_PINGS + 1 if done else 0,
                run_s, cpu_s, sim, subject=cluster if keep else None,
            ))
        return Round(setup_s, parts)

    def reference(self) -> None:
        rnd = self.round(Meter())
        for part in rnd.parts:
            ref = run_rpc_workload(part.kind, PAYLOAD_BYTES, count=ECHO_PINGS,
                                   seed=self.seed)
            got = (part.sim["rtt_ms"], part.sim["wire_messages"],
                   part.sim["wire_bytes"])
            want = (ref.mean_ms, ref.messages, ref.wire_bytes)
            if got != want:
                raise CheckFailed(
                    f"echo/{part.kind}: rounds diverge from "
                    f"run_rpc_workload: {got} != {want}"
                )
        self.check(rnd)


class Churn(Workload):
    name = "churn"
    op = "LYNX RPC during link migration (3 per hop)"

    def round(self, meter: Meter, keep: bool = False) -> Round:
        setup_s = 0.0
        parts = []
        expected = [h % CHURN_MEMBERS for h in range(CHURN_HOPS)]
        for kind in KINDS:
            t0 = perf_counter()
            cluster = make_cluster(kind, seed=self.seed)
            observer = Observer(CHURN_HOPS)
            d = cluster.spawn(Dispatcher(CHURN_HOPS, CHURN_MEMBERS),
                              "dispatcher")
            obs = cluster.spawn(observer, "observer")
            members = [
                cluster.spawn(Member(i, len(range(i, CHURN_HOPS,
                                                  CHURN_MEMBERS)),
                                     CHURN_LINGER_MS), f"member{i}")
                for i in range(CHURN_MEMBERS)
            ]
            cluster.create_link(d, obs)
            for h in members:
                cluster.create_link(d, h)
            setup_s += perf_counter() - t0
            run_s, cpu_s = _timed_run(
                meter, lambda: cluster.run_until_quiet(max_ms=1e7))
            done = cluster.all_finished and observer.servers == expected
            m = cluster.metrics
            sim = _cluster_sim(kind, cluster)
            sim.update(
                rtt_ms=_mean(observer.rtts),
                move_msgs=m.get("charlotte.move_msgs"),
                redirects_followed=m.get("soda.redirects_followed"),
            )
            parts.append(Part(
                kind, 3 * CHURN_HOPS, 3 * CHURN_HOPS if done else 0,
                run_s, cpu_s, sim, subject=cluster if keep else None,
            ))
        return Round(setup_s, parts)

    def reference(self) -> None:
        rnd = self.round(Meter())
        for part in rnd.parts:
            ref = run_migration_churn(
                part.kind, members=CHURN_MEMBERS, hops=CHURN_HOPS,
                seed=self.seed, linger_ms=CHURN_LINGER_MS,
            )
            got = (part.sim["rtt_ms"], part.sim["wire_messages"],
                   part.sim["wire_bytes"], part.sim["sim_end_ms"])
            want = (ref["mean_rpc_ms"], ref["wire_messages"],
                    ref["wire_bytes"], ref["sim_time_ms"])
            if got != want or not ref["finished"]:
                raise CheckFailed(
                    f"churn/{part.kind}: rounds diverge from "
                    f"run_migration_churn: {got} != {want}"
                )
        self.check(rnd)


class Scale(Workload):
    name = "scale"
    op = "scale request"

    def round(self, meter: Meter, keep: bool = False) -> Round:
        # the body of run_scale(clients=..., requests=..., seed=...) with
        # its other defaults, split so that set-up is timed apart from
        # the run
        t0 = perf_counter()
        eng = make_engine("global", shards=1, lookahead_ms=0.25)
        sim = ShardSim(eng, 0, 1, clients=SCALE_CLIENTS,
                       requests=SCALE_REQUESTS, seed=self.seed)
        sim.start()
        setup_s = perf_counter() - t0
        run_s, cpu_s = _timed_run(meter, eng.run)
        payloads = eng.harvest()
        digest = hashlib.sha256(
            json.dumps([p["digest"] for p in payloads]).encode()
        ).hexdigest()
        attempted = SCALE_CLIENTS * SCALE_REQUESTS
        completed = int(sim.metrics.get("scale.completed"))
        part = Part("scale", attempted, completed, run_s, cpu_s, {
            "digest": digest,
            "events": eng.events_fired,
            "sim_end_ms": eng.shard_now(0),
        }, subject=eng if keep else None)
        return Round(setup_s, [part])

    def reference(self) -> None:
        rnd = self.round(Meter())
        ref = run_scale(clients=SCALE_CLIENTS, requests=SCALE_REQUESTS,
                        seed=self.seed)
        part = rnd.parts[0]
        got = (part.sim["digest"], part.sim["events"])
        if got != (ref.digest, ref.events):
            raise CheckFailed(
                f"scale: rounds diverge from run_scale: {got} != "
                f"{(ref.digest, ref.events)}"
            )
        self.check(rnd)


def _proc_status_kb(pid: int, field_name: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    raise CheckFailed(f"/proc/{pid}/status has no {field_name}")


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of stat(5), in clock ticks
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def self_peak_rss_kb() -> int:
    return _proc_status_kb(os.getpid(), "VmHWM")


class Fleet(Workload):
    """A fresh node per round: the node answers a repeated
    ``(client id, seq)`` from its replay cache, and `run_load` reuses
    both on every call, so a reused node would time the cache."""

    name = "fleet"
    op = "request over a Unix-domain socket"

    def __init__(self, seed: int, socket_root: str,
                 node_cpu: Optional[int]) -> None:
        super().__init__(seed)
        self.socket_root = socket_root
        #: the CPU the node is pinned to once it is ready; None = any
        self.node_cpu = node_cpu

    def round(self, meter: Meter, keep: bool = False) -> Round:
        # the supervisor puts its socket directory under tempfile's root
        tempfile.tempdir = self.socket_root
        sup = NodeSupervisor()
        try:
            t0 = perf_counter()
            node = sup.spawn("node0")
            setup_s = perf_counter() - t0
            pid = node.proc.pid
            if self.node_cpu is not None:
                os.sched_setaffinity(pid, {self.node_cpu})
            rss0 = _proc_status_kb(pid, "VmRSS")
            node_cpu0 = _proc_cpu_s(pid)
            box: Dict[str, Any] = {}

            def load() -> None:
                box["report"] = run_load(
                    [node.endpoint], clients=FLEET_CLIENTS,
                    requests=FLEET_REQUESTS, payload_bytes=PAYLOAD_BYTES,
                )

            run_s, cpu_s = _timed_run(meter, load)
            node_cpu_s = _proc_cpu_s(pid) - node_cpu0
            report = box["report"]
            stats = query_stats(node.endpoint)
            rss1 = _proc_status_kb(pid, "VmRSS")
            hwm = _proc_status_kb(pid, "VmHWM")
        finally:
            sup.stop_all()
            tempfile.tempdir = None
        part = Part("fleet", FLEET_CLIENTS * FLEET_REQUESTS,
                    report.completed, run_s, cpu_s, {}, host={
                        "report": report,
                        "rtt": report.rtt,
                        "retries": report.retries,
                        "stats": stats,
                        "node_cpu_s": node_cpu_s,
                        "node_hwm_kb": hwm,
                        "node_rss_growth_kb": rss1 - rss0,
                    })
        return Round(setup_s, [part])

    def check(self, rnd: Round) -> None:
        """Exactly-once on a fresh node, from both sides."""
        super().check(rnd)
        host = rnd.parts[0].host
        report, stats = host["report"], host["stats"]
        ok = (
            report.exactly_once
            and report.exhausted == 0
            and report.issued == rnd.attempted
            and stats["executed_unique"] == report.completed
            and stats["requests_seen"] == report.completed + report.retries
            and stats["duplicates"] == 0
        )
        if not ok:
            raise CheckFailed(
                f"fleet: not exactly-once on a fresh node: issued "
                f"{report.issued}, completed {report.completed}, exhausted "
                f"{report.exhausted}, retries {report.retries}, node {stats}"
            )


def merged_rtt(rounds: List[Round]) -> StreamingHistogram:
    hist = StreamingHistogram()
    for rnd in rounds:
        for part in rnd.parts:
            if "rtt" in part.host:
                hist.merge(part.host["rtt"])
    return hist


def make_workload(name: str, seed: int, scratch: str,
                  node_cpu: Optional[int]) -> Workload:
    if name == "fleet":
        return Fleet(seed, scratch, node_cpu)
    return {"echo": Echo, "churn": Churn, "scale": Scale}[name](seed)
