"""Per-shard event queues advanced in conservative lookahead windows.

`ShardedParallelEngine` is the ``global`` engine (`repro.sim.engine.Engine`)
with one heap and one clock per shard, and it inherits that engine's
whole scheduling surface.  The dispatching shard's heap and clock are
the plain `_heap` and `now`, swapped in when the shard starts
dispatching, so untagged `schedule`/`defer` calls land on it.  The
shard-tagged calls resolve their target through the one `_shard` hook,
which this engine overrides to reach the other shards' queues (before a
run only).  One sequence counter numbers every push, so each heap sees
its entries in the same relative order as under ``global``; entries
keep the shared layout ``(time, seq, fn, args, handle)``
(`repro.sim.engine._skip_cancelled`).

Conservative synchronization (Chandy–Misra–Bryant lookahead): each
round computes ``horizon = min(head times) + lookahead_ms`` and lets
every shard drain its own heap, in exact local ``(time, seq)`` order,
up to (but excluding) the horizon.  Safety: a cross-shard `post` sent
at time *t* arrives no earlier than ``t + lookahead_ms >= horizon``,
i.e. always outside the current window, so no shard ever receives work
in its past.  Cross-shard posts buffer in an outbox flushed at the
window barrier, keeping push order identical whether shards run
in-process or in forked workers.

At one shard there are no windows: `run` and `step` are the global
engine's, and every digest matches ``global``.  At any shard count
``global`` is the oracle the windows are checked against.

With ``workers > 1`` the shards are partitioned round-robin over
forked OS processes (`multiprocessing`, fork start method).  The
parent coordinates windows over pipes: each round it sends every
worker the horizon plus its inbox of routed posts, and receives the
fired count, the new head times, and the outbox.  Workers harvest
per-shard results (`Engine.bind_harvest`) before exiting — the only
state that returns to the parent.  In-process runs and workers drain
every window through the one `_drain` method, and the window sequence
and post routing order are the in-process loop's, so same-seed digests
are bit-identical across ``workers`` settings (test-pinned).
"""

from __future__ import annotations

import math
from heapq import heappop
from typing import Any, Iterable, List, Optional, Tuple

from repro.sim.engine import Engine, EngineError, _run_bounds, _skip_cancelled


def _window_end(horizon: float, limit: float) -> float:
    """The exclusive end of a window: the lookahead ``horizon``, or the
    first float past the inclusive ``until`` bound ``limit``."""
    return min(horizon, math.nextafter(limit, math.inf))


class ShardedParallelEngine(Engine):
    """Per-shard heaps and clocks, conservative lookahead windows.

    Untagged `schedule` calls land on the shard whose event is
    currently dispatching (shard 0 before the first run), so legacy
    workloads — which never tag shards — run entirely on shard 0 in
    exact global order and stay bit-identical to the ``global``
    backend.  Sharded workloads place work with ``schedule_on`` /
    ``defer_on`` during setup and communicate across shards with
    `post` while running.
    """

    def __init__(
        self,
        shards: int = 1,
        lookahead_ms: Optional[float] = None,
        profile: bool = False,
        workers: Optional[int] = None,
    ) -> None:
        super().__init__(shards, lookahead_ms, profile)
        if workers is not None and workers < 1:
            raise EngineError(f"worker count must be >= 1, got {workers}")
        self.workers = workers
        self._heaps = [[] for _ in range(shards)]
        #: the shard whose heap and clock are `_heap` and `now`
        self._cur = 0
        self._heap = self._heaps[0]
        #: per-shard clocks; the current shard's slot is stale while
        #: its clock lives in `now`
        self._nows: List[float] = [0.0] * shards
        #: cross-shard posts buffered during a window, flushed at the
        #: barrier: (origin_shard, target_shard, time, key, args)
        self._outbox: List[Tuple[int, int, float, str, tuple]] = []
        #: harvest payloads returned by forked workers, by shard
        self._worker_payloads: Optional[dict] = None

    def _switch(self, shard: int) -> None:
        """Make ``shard`` current: park `now` in its slot and swap in
        ``shard``'s heap and clock."""
        self._nows[self._cur] = self.now
        self._cur = shard
        self._heap = self._heaps[shard]
        self.now = self._nows[shard]

    # -- scheduling ----------------------------------------------------
    def _shard(self, shard: int) -> Tuple[list, float]:
        if shard == self._cur:
            return self._heap, self.now
        self._check_shard(shard)
        if self._running:
            raise EngineError(
                "cross-shard scheduling during a run must use post() "
                "(lookahead-bounded); schedule_on/defer_on may only "
                "target other shards before the run starts"
            )
        return self._heaps[shard], self._nows[shard]

    def shard_now(self, shard: int) -> float:
        self._check_shard(shard)
        return self.now if shard == self._cur else self._nows[shard]

    def post(self, shard: int, delay: float, key: str, *args: Any) -> None:
        if self._running and shard != self._cur and delay >= self.lookahead_ms:
            self._check_shard(shard)
            # buffered to the window barrier so push order is identical
            # in-process and across forked workers
            self._outbox.append((self._cur, shard, self.now + delay, key, args))
        else:
            # a too-short delay lands here too: the base rejects it
            super().post(shard, delay, key, *args)

    def _flush_outbox(self) -> None:
        out = self._outbox
        self._outbox = []
        for _origin, shard, t, key, args in out:
            self._deliver(self._heaps[shard], shard, t, key, args)

    # -- execution -----------------------------------------------------
    def step(self) -> bool:
        if self.shards > 1:
            raise EngineError(
                "sharded-parallel advances in lookahead windows; use run() "
                "(or the global engine for single-step debugging)"
            )
        return super().step()

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        if self.shards == 1:
            # one shard has no barriers: the global engine's loops
            return super().run(until, max_events)
        if self.lookahead_ms <= 0.0:
            raise EngineError(
                "sharded-parallel with more than one shard needs a "
                "positive lookahead_ms (no network model registered a "
                "latency floor?)"
            )
        if self.workers is not None and self.workers > 1:
            if max_events is not None:
                raise EngineError(
                    "max_events is not supported with forked workers"
                )
            if self.trace_hook is not None or self.profile is not None:
                raise EngineError(
                    "tracing/profiling are in-process features; run with "
                    "workers=None"
                )
            import multiprocessing as multiproc

            if "fork" in multiproc.get_all_start_methods():
                return self._run_forked(multiproc.get_context("fork"), until)
            # no fork on this platform: the in-process loop computes
            # the identical window sequence (digest parity is pinned)
        every = range(self.shards)
        limit, stop = _run_bounds(until, max_events)
        la = self.lookahead_ms
        fired = 0
        while fired != stop:
            nxt = self._peek_time()
            if nxt is None:
                break
            if nxt > limit:
                self._advance_clocks(every, limit)
                break
            try:
                fired += self._drain(
                    every, _window_end(nxt + la, limit),
                    stop - fired if stop >= 0 else -1,
                )
            finally:
                # the window barrier: route this window's posts
                self._flush_outbox()
        return fired

    def _drain(self, shards: Iterable[int], horizon: float,
               budget: int = -1) -> int:
        """Fire, shard by shard, the live entries of ``shards`` earlier
        than ``horizon``, at most ``budget`` of them (-1: no cap), and
        return how many fired.  The one window loop: bounded, unbounded
        and traced in-process runs and the forked workers all drain
        their windows here."""
        heaps = self._heaps
        pop = heappop
        traced = self.trace_hook is not None or self.profile is not None
        fired = 0
        self._running = True
        try:
            for si in shards:
                h = heaps[si]
                if not h or h[0][0] >= horizon:
                    continue
                self._switch(si)
                while h and fired != budget:
                    entry = h[0]
                    if entry[0] >= horizon:
                        break
                    pop(h)
                    ev = entry[4]
                    if ev is not None and ev.cancelled:
                        continue
                    # count first: an event counts even when its
                    # callback raises (`_fire` counts its own)
                    fired += 1
                    if traced:
                        self._fire(entry)
                    else:
                        self.now = entry[0]
                        entry[2](*entry[3])
                if fired == budget:
                    break
        finally:
            self._running = False
            if not traced:
                self._events_fired += fired
        return fired

    def _advance_clocks(self, shards: Iterable[int], until: float) -> None:
        """A live entry lies beyond ``until``: move the clocks of
        ``shards`` that are short of it up to it, as `Engine.run`
        does.  Clocks stay put when the heaps simply drain."""
        nows = self._nows
        nows[self._cur] = self.now
        for si in shards:
            if nows[si] < until:
                nows[si] = until
        self.now = nows[self._cur]

    # -- forked workers ------------------------------------------------
    def _run_forked(self, ctx, until: Optional[float]) -> int:
        k = self.shards
        w_count = min(self.workers, k)
        owner = [s % w_count for s in range(k)]
        limit = math.inf if until is None else until
        conns = []
        procs = []
        try:
            for w in range(w_count):
                parent_conn, child_conn = ctx.Pipe()
                owned = [s for s in range(k) if owner[s] == w]
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, self, owned),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                conns.append(parent_conn)
                procs.append(proc)
            heads: List[List[float]] = []
            for conn in conns:
                msg = conn.recv()
                if msg[0] != "hello":
                    raise EngineError(f"worker failed at startup: {msg[1]}")
                heads.append(msg[1])
            fired_total = 0
            pending: List[Tuple[int, int, float, str, tuple]] = []
            la = self.lookahead_ms
            # clocks advance to `until` only if a live entry lies beyond
            advance_to = None
            while True:
                nxt = None
                for worker_heads in heads:
                    for t in worker_heads:
                        if nxt is None or t < nxt:
                            nxt = t
                for entry in pending:
                    if nxt is None or entry[2] < nxt:
                        nxt = entry[2]
                if nxt is None:
                    break
                if nxt > limit:
                    advance_to = until
                    break
                horizon = _window_end(nxt + la, limit)
                # route pending posts: global order is (origin shard,
                # send order) — identical to the in-process flush
                pending.sort(key=lambda entry: entry[0])
                inboxes: List[list] = [[] for _ in range(w_count)]
                for _origin, shard, t, key, args in pending:
                    inboxes[owner[shard]].append((shard, t, key, args))
                pending = []
                for w, conn in enumerate(conns):
                    conn.send(("win", horizon, inboxes[w]))
                for w, conn in enumerate(conns):
                    msg = conn.recv()
                    if msg[0] != "ok":
                        raise EngineError(f"worker {w} failed: {msg[1]}")
                    _tag, fired, worker_heads, out = msg
                    fired_total += fired
                    heads[w] = worker_heads
                    pending.extend(out)
            payloads: dict = {}
            for w, conn in enumerate(conns):
                conn.send(("fin", advance_to))
                msg = conn.recv()
                if msg[0] != "res":
                    raise EngineError(f"worker {w} failed at harvest: {msg[1]}")
                _tag, worker_payloads, worker_nows = msg
                for shard, payload in worker_payloads:
                    payloads[shard] = payload
                for shard, t in worker_nows:
                    self._nows[shard] = t
            self.now = self._nows[self._cur]
            self._worker_payloads = payloads
            # the parent's heaps are stale copies of work the workers
            # consumed; drop them so the engine reads as quiescent
            self._heaps = [[] for _ in range(k)]
            self._heap = self._heaps[self._cur]
            self._events_fired += fired_total
            return fired_total
        finally:
            for conn in conns:
                conn.close()
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()

    def harvest(self) -> List[Any]:
        if self._worker_payloads is not None:
            return [
                self._worker_payloads[s]
                for s in sorted(self._worker_payloads)
            ]
        return super().harvest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedParallelEngine shards={self.shards} "
            f"lookahead={self.lookahead_ms} pending={self.pending}>"
        )


def _worker_main(conn, engine: ShardedParallelEngine, owned: List[int]) -> None:
    """A forked shard worker: drain owned shards window by window.

    Runs in the child process on a fork-inherited copy of the engine
    and all workload state; only pipe messages and harvest payloads
    cross the process boundary.
    """
    try:
        heaps = engine._heaps

        def _heads() -> List[float]:
            out = []
            for si in owned:
                h = heaps[si]
                _skip_cancelled(h)
                if h:
                    out.append(h[0][0])
            return out

        conn.send(("hello", _heads()))
        while True:
            msg = conn.recv()
            if msg[0] == "fin":
                if msg[1] is not None:
                    engine._advance_clocks(owned, msg[1])
                payloads = [
                    (si, engine._harvest[si]())
                    for si in sorted(engine._harvest)
                    if si in owned
                ]
                conn.send(
                    ("res", payloads,
                     [(si, engine.shard_now(si)) for si in owned])
                )
                return
            _tag, horizon, inbox = msg
            for shard, t, key, args in inbox:
                engine._deliver(heaps[shard], shard, t, key, args)
            fired = engine._drain(owned, horizon)
            out = engine._outbox
            engine._outbox = []
            conn.send(("ok", fired, _heads(), out))
    except BaseException:  # pragma: no cover - transported to parent
        import traceback

        try:
            conn.send(("err", traceback.format_exc()))
        except Exception:
            pass
