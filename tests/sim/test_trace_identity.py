"""Pinned trace and event-count digests of fixed seed-0 runs.

A change to how trace records are stored, how span and end identities
are built, or how tasks resume must leave every run event-for-event
and byte-for-byte identical.  These digests were taken before such a
change and must hold unchanged after it: the sha256 of the exported
trace (`TraceLog.to_jsonl`) and the engine's `events_fired`.
"""

import hashlib
import io

import pytest

from repro.core.api import make_cluster
from repro.obs import JsonlTraceWriter
from repro.obs.causal import CausalGraph
from repro.sim.trace import TraceLog
from repro.workloads.migration import run_migration_churn
from repro.workloads.rpc import PingClient, PingServer, run_rpc_workload

PAYLOAD = 64
COUNT = 100

#: kind -> (sha256 of to_jsonl(), engine.events_fired) for
#: ``run_rpc_workload(kind, 64, count=100)`` at seed 0
RPC_PINS = {
    "charlotte": (
        "c0fb4ba561f268be868d13c3ae477a56e94c4e4a7eec5ca5928f3cc96d4a9287",
        4042,
    ),
    "soda": (
        "7963bbed99d79735a44e0205dc5cda9cff59deda23462e40c6c8b2e92a0f8a8e",
        4162,
    ),
    "chrysalis": (
        "efd63f26b4528dea0a2aa598e21615ad68847b3c734d29cc460335ce312f71ce",
        5173,
    ),
    "ideal": (
        "215ce4c9bb94134d4b5657dc69f87fe458ab17888e8cb925f71b1c899dfacde1",
        2021,
    ),
}

#: the same pair for ``run_migration_churn("charlotte")`` at seed 0
CHURN_PIN = (
    "bcffdbd15514a46f5de422a3d0f12ffe9e93f08f740a469b75bb14a24101a00a",
    999,
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("kind", sorted(RPC_PINS))
def test_rpc_trace_and_event_count_are_pinned(kind):
    trace = run_rpc_workload(kind, PAYLOAD, count=COUNT).trace
    assert (_sha(trace.to_jsonl()), trace.engine.events_fired) \
        == RPC_PINS[kind]


def test_churn_trace_and_event_count_are_pinned():
    trace = run_migration_churn("charlotte")["trace"]
    assert (_sha(trace.to_jsonl()), trace.engine.events_fired) == CHURN_PIN


def _streamed_rpc_run(kind):
    """``run_rpc_workload``'s cluster, with a JSONL writer attached
    before the first event."""
    cluster = make_cluster(kind, seed=0)
    s = cluster.spawn(PingServer(COUNT + 1, PAYLOAD), "server")
    c = cluster.spawn(PingClient(COUNT, PAYLOAD), "client")
    cluster.create_link(s, c)
    out = io.StringIO()
    with JsonlTraceWriter(out, cluster.trace):
        cluster.run_until_quiet(max_ms=1e7)
    assert cluster.all_finished
    return cluster, out.getvalue()


@pytest.mark.parametrize("kind", ["charlotte", "ideal"])
def test_streamed_jsonl_equals_export_read_after_the_run(kind):
    cluster, streamed = _streamed_rpc_run(kind)
    assert streamed == cluster.trace.to_jsonl()
    assert _sha(streamed) == RPC_PINS[kind][0]


@pytest.mark.parametrize("kind", sorted(RPC_PINS))
def test_causal_graph_is_the_same_live_and_reloaded(kind):
    trace = run_rpc_workload(kind, PAYLOAD, count=COUNT).trace
    live = CausalGraph.from_trace(trace)
    reloaded = CausalGraph.from_trace(TraceLog.from_jsonl(trace.to_jsonl()))
    assert len(live.traces()) == COUNT + 1
    assert live.spans == reloaded.spans
