"""Exactly-once-or-typed-failure, under any seeded fault schedule.

Hypothesis drives random drop/duplication/delay rates and seeds
through a sequential RPC conversation on a runtime-recovery backend.
Whatever the fault schedule decides, the end state must be:

  - every operation either completes (the client sees *its own*
    reply, once) or raises the typed `RecoveryExhausted` — never a
    hang, never a silent loss, never an unhandled error;
  - the server *executes* each admitted request at most once — wire
    duplicates and retransmits are answered from the reply cache, not
    re-run (the dedup half of at-most-once semantics);
  - the cluster's link accounting still balances (`cluster.check()`).

This is the property the whole recovery layer exists to uphold
(docs/FAULTS.md); the E14 bench measures its cost, this suite proves
its safety.
"""

from hypothesis import given, settings, strategies as st

from repro.core.api import (
    INT,
    Operation,
    Proc,
    RecoveryExhausted,
    RecoveryPolicy,
    make_cluster,
)
from repro.core.exceptions import LynxError
from repro.sim.faults import FaultPlan

PROP = Operation("prop", (INT,), (INT,))

POLICY = RecoveryPolicy(timeout_ms=40.0, max_retries=2,
                        backoff_factor=2.0, jitter_frac=0.1)


class EchoServer(Proc):
    """Echoes the request index back; records every *execution* so the
    test can prove no duplicate was ever re-run."""

    def __init__(self):
        self.executed = []

    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(PROP)
        yield from ctx.open(end)
        while True:
            try:
                inc = yield from ctx.wait_request((end,))
                self.executed.append(inc.args[0])
                yield from ctx.reply(inc, (inc.args[0],))
            except LynxError:
                return


class SequentialClient(Proc):
    def __init__(self, count):
        self.count = count
        self.completed = []
        self.exhausted = []

    def main(self, ctx):
        (end,) = ctx.initial_links
        for i in range(self.count):
            try:
                (echo,) = yield from ctx.connect(end, PROP, (i,))
            except RecoveryExhausted:
                self.exhausted.append(i)
            else:
                # the reply the client sees is its own, not a
                # neighbour's resurrected duplicate
                assert echo == i, (echo, i)
                self.completed.append(i)
        try:
            yield from ctx.destroy(end)
        except LynxError:
            pass


@given(
    seed=st.integers(0, 2**16),
    drop=st.floats(0.0, 0.45),
    dup=st.floats(0.0, 0.4),
    delay=st.floats(0.0, 15.0),
    count=st.integers(1, 6),
)
@settings(max_examples=25, deadline=None)
def test_every_op_completes_once_or_raises_typed(seed, drop, dup, delay,
                                                 count):
    plan = FaultPlan().drop(drop).duplicate(dup).delay(delay)
    cluster = make_cluster("ideal", seed=seed)
    cluster.install_faults(plan)
    cluster.install_recovery(POLICY)
    server = EchoServer()
    client = SequentialClient(count)
    c = cluster.spawn(client, "client")
    s = cluster.spawn(server, "server")
    cluster.create_link(c, s)
    cluster.run_until_quiet(max_ms=1e7)
    assert cluster.all_finished, cluster.unfinished()

    # exactly once or typed failure — and nothing else
    assert sorted(client.completed + client.exhausted) == list(range(count))
    assert not set(client.completed) & set(client.exhausted)
    # no admitted request was executed twice, however many wire copies
    # arrived (retransmits and duplicates hit the reply cache instead)
    assert len(server.executed) == len(set(server.executed))
    # the server never executed an index the client didn't send
    assert set(server.executed) <= set(range(count))
    # every completed op was actually executed server-side
    assert set(client.completed) <= set(server.executed)
    cluster.check()


@given(seed=st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_same_seed_same_outcome(seed):
    """The whole faulted conversation is a pure function of the seed —
    and of the seed only: executing it on the sharded-parallel engine
    (`repro.sim.backends`) at 4 shards instead of the global heap
    changes nothing."""

    def run(sim_backend="global", shards=1):
        plan = FaultPlan().drop(0.3).duplicate(0.2).delay(10.0)
        cluster = make_cluster("ideal", seed=seed,
                               sim_backend=sim_backend, shards=shards)
        cluster.install_faults(plan)
        cluster.install_recovery(POLICY)
        server = EchoServer()
        client = SequentialClient(4)
        c = cluster.spawn(client, "client")
        s = cluster.spawn(server, "server")
        cluster.create_link(c, s)
        cluster.run_until_quiet(max_ms=1e7)
        return (client.completed, client.exhausted, server.executed,
                dict(cluster.metrics.counters("faults.")),
                dict(cluster.metrics.counters("recovery.")),
                cluster.engine.now)

    reference = run()
    assert run() == reference
    assert run(sim_backend="sharded-parallel", shards=4) == reference
