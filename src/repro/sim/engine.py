"""The discrete-event engine: a deterministic clock and event heap.

Every component of the reproduction — kernels, runtimes, networks,
failure injectors — schedules work through one `Engine`.  Determinism is
a hard requirement (the conformance suite and the benchmark tables must
be exactly reproducible), so:

* events fire in (time, sequence-number) order: ties are broken by
  insertion order, never by identity hash;
* there is no wall-clock anywhere; `Engine.now` is the only clock;
* all randomness used by simulated hardware flows through
  `repro.sim.rng.SimRandom`, seeded per run.

Time is a float in **milliseconds** throughout the project, matching the
units of the paper's tables (57 ms, 2.4 ms, ...).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
# dispatch profiling prices callbacks in real host time on purpose;
# it never feeds back into simulated state (see DispatchProfile)
from time import perf_counter  # repro: allow[DET001]
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.backends import DEFAULT_LOOKAHEAD_MS


class EngineError(RuntimeError):
    """Raised for misuse of the engine (e.g. scheduling in the past)."""


def _callback_key(fn: Callable[..., Any]) -> str:
    """A stable aggregation key for an event callback: the qualified
    name for functions and bound methods, the type name otherwise
    (partials, callables)."""
    key = getattr(fn, "__qualname__", None)
    if key is None:
        key = type(fn).__name__
    return key


class DispatchProfile:
    """Per-callback dispatch counts and wall-clock cost.

    Populated by `Engine.step` only when the engine was built with
    ``profile=True`` — the default hot path never touches it.  Keys are
    callback qualified names (``CharlotteKernel._deliver``, ...); wall
    time is real seconds spent *inside* the callback, which for a
    simulator measures the cost of simulating, not simulated time.
    """

    __slots__ = ("counts", "wall_s")

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.wall_s: Dict[str, float] = {}

    def record(self, key: str, seconds: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1
        self.wall_s[key] = self.wall_s.get(key, 0.0) + seconds

    def rows(self) -> List[Tuple[str, int, float]]:
        """``(key, count, wall_ms)`` rows, most expensive first."""
        return sorted(
            ((k, self.counts[k], self.wall_s[k] * 1e3) for k in self.counts),
            key=lambda row: row[2],
            reverse=True,
        )

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            k: {"count": self.counts[k], "wall_ms": self.wall_s[k] * 1e3}
            for k in sorted(self.counts)
        }

    def render(self, limit: int = 20) -> str:
        lines = [f"{'callback':<44} {'count':>8} {'wall ms':>10}"]
        for key, count, wall_ms in self.rows()[:limit]:
            lines.append(f"{key:<44} {count:>8} {wall_ms:>10.3f}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DispatchProfile kinds={len(self.counts)}>"


class Event:
    """The cancellation handle of a scheduled callback, returned by
    `Engine.schedule` / `schedule_at` / `schedule_on` / `call_soon`.

    The heap itself holds plain tuple entries (see `_skip_cancelled`);
    an `Event` rides in an entry's last slot only so that the caller can
    cancel it.  Cancellation is O(1): the entry is tombstoned rather
    than removed, and skipped when popped.  ``trace_hook`` also receives
    one per fired event (built on the fly for handle-less entries).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state} {self.fn!r}>"


def _skip_cancelled(h: list, pop=heappop) -> None:
    """Pop tombstoned entries off the head of heap ``h``.

    Every engine's heap holds entries ``(time, seq, fn, args, handle)``.
    Sequence numbers are unique per heap, so heap order is decided by
    ``(time, seq)`` alone and comparisons never reach ``fn``.
    ``handle`` is the entry's `Event` when the caller asked for a
    cancellation handle and ``None`` on the fire-and-forget paths
    (``defer`` / ``defer_on`` / ``post``), which allocate none.
    """
    while h and h[0][4] is not None and h[0][4].cancelled:
        pop(h)


def _run_bounds(until: Optional[float], max_events: Optional[int]):
    """``(limit, stop)`` for a hoisted run loop: fire while the entry
    time is ``<= limit`` and the fired count is ``!= stop`` (``-1``, never
    reached, when there is no ``max_events``)."""
    return (
        math.inf if until is None else until,
        -1 if max_events is None else max(max_events, 0),
    )


class Engine:
    """A deterministic discrete-event scheduler.

    Usage::

        eng = Engine()
        eng.schedule(5.0, callback, arg1)
        eng.run()            # runs until the heap is empty
        eng.run(until=100.0) # or until simulated time passes 100 ms

    The engine deliberately has no notion of processes; see
    `repro.sim.tasks.Task` for coroutine driving.

    Construction note: layers above ``repro.sim`` obtain engines through
    the `repro.sim.backends` registry (``make_engine``), never by
    calling ``Engine(...)`` directly — the SIM002 lint rule enforces
    this so every workload can run on the parallel backend unchanged.
    """

    #: smallest guaranteed per-link transit time any network model has
    #: registered; 0.0 until a model reports one
    link_floor_ms: float = 0.0

    def __init__(
        self,
        shards: int = 1,
        lookahead_ms: Optional[float] = None,
        profile: bool = False,
    ) -> None:
        if shards < 1:
            raise EngineError(f"shard count must be >= 1, got {shards}")
        #: logical shard count; on this engine every shard shares the
        #: one heap, so shard-tagged calls run in exact global
        #: ``(time, seq)`` order — the reference semantics the parallel
        #: backend is digest-checked against
        self.shards = shards
        #: conservative-synchronization lookahead (ms).  ``None`` means
        #: auto: start from `DEFAULT_LOOKAHEAD_MS` and adopt the
        #: interconnect's latency floor (`note_link_floor`); the same
        #: default on every backend, so a `post` that passes here
        #: cannot fail there
        self._lookahead_auto = lookahead_ms is None
        self.lookahead_ms: float = (
            DEFAULT_LOOKAHEAD_MS if lookahead_ms is None else lookahead_ms
        )
        self.now: float = 0.0
        #: the heap untagged `schedule`/`defer` calls push onto
        self._heap: list = []
        #: every heap the engine drains: here just `_heap`; one per
        #: shard on the parallel backend
        self._heaps: List[list] = [self._heap]
        self._seq: int = 0
        self._events_fired: int = 0
        self._running: bool = False
        #: per-shard cross-shard message receivers (`bind_receiver`)
        self._receivers: Dict[int, Callable[..., Any]] = {}
        #: per-shard result extractors (`bind_harvest`)
        self._harvest: Dict[int, Callable[[], Any]] = {}
        #: optional hook called as trace(engine, event) before each event
        self.trace_hook: Optional[Callable[["Engine", Event], None]] = None
        #: per-callback dispatch statistics; None unless ``profile=True``
        self.profile: Optional[DispatchProfile] = (
            DispatchProfile() if profile else None
        )

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _push(
        self, heap: list, time: float, fn: Callable[..., Any], args: tuple,
        cancellable: bool,
    ) -> Optional[Event]:
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, fn, args) if cancellable else None
        heappush(heap, (time, seq, fn, args, ev))
        return ev

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ms from now; returns
        the `Event` that cancels it.

        ``delay`` must be >= 0; a zero delay runs after all events already
        scheduled for the current instant (FIFO at equal timestamps).
        Callers that drop the handle should use `defer`.
        """
        if delay < 0:
            raise EngineError(f"cannot schedule {delay} ms in the past")
        # `_push` inlined: every cancellable timer (SODA hints, retry
        # timers) arms through here
        t = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        ev = Event(t, seq, fn, args)
        heappush(self._heap, (t, seq, fn, args, ev))
        return ev

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if time < self.now:
            raise EngineError(
                f"cannot schedule at t={time} before current t={self.now}"
            )
        return self._push(self._heap, time, fn, args, True)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current instant (after pending
        same-instant events)."""
        return self.schedule(0.0, fn, *args)

    def defer(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget `schedule`: no cancellation handle is
        returned, and none is allocated."""
        if delay < 0:
            raise EngineError(f"cannot schedule {delay} ms in the past")
        # `_push` inlined: this is the hottest call in the simulator
        # (every task resume and message hop defers at least once)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, fn, args, None))

    # ------------------------------------------------------------------
    # shard-tagged scheduling
    #
    # Every shard shares the one heap and clock here, so these are
    # degenerate forms of the API the parallel backend
    # (`repro.sim.backends.sharded`) serves from real per-shard queues
    # by overriding `_shard` alone.  Workloads written against this
    # surface run bit-identically on every registered backend.
    # ------------------------------------------------------------------
    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.shards:
            raise EngineError(
                f"shard {shard} out of range for {self.shards}-shard engine"
            )

    def _shard(self, shard: int) -> Tuple[list, float]:
        """``(heap, clock)`` of ``shard`` — the one hook every
        shard-tagged call resolves its target through (here: the only
        heap and `now`)."""
        self._check_shard(shard)
        return self._heap, self.now

    def schedule_on(
        self, shard: int, delay: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """`schedule` onto an explicit shard's queue."""
        heap, now = self._shard(shard)
        if delay < 0:
            raise EngineError(f"cannot schedule {delay} ms in the past")
        return self._push(heap, now + delay, fn, args, True)

    def defer_on(
        self, shard: int, delay: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        """`defer` onto an explicit shard's queue."""
        heap, now = self._shard(shard)
        if delay < 0:
            raise EngineError(f"cannot schedule {delay} ms in the past")
        self._push(heap, now + delay, fn, args, False)

    def shard_now(self, shard: int) -> float:
        """The shard-local clock — on the global engine, `now`."""
        self._check_shard(shard)
        return self.now

    def bind_receiver(self, shard: int, fn: Callable[..., Any]) -> None:
        """Register ``fn`` as the cross-shard message receiver for
        ``shard``: `post` targets it by shard id, so messages stay
        addressable when shards live in other worker processes."""
        self._check_shard(shard)
        self._receivers[shard] = fn

    def post(self, shard: int, delay: float, key: str, *args: Any) -> None:
        """Deliver a cross-shard message: ``receiver(key, *args)`` on
        ``shard``, ``delay`` ms from now.

        ``delay`` must be at least `lookahead_ms` — on the parallel
        backend that bound is what makes conservative windows safe;
        the global engine enforces the same contract so a workload
        cannot pass here and fail there.  The bound is checked before
        the target is resolved, so a too-short delay always reports
        as such.
        """
        if delay < self.lookahead_ms:
            raise EngineError(
                f"cross-shard post delay {delay} ms is below the "
                f"lookahead bound {self.lookahead_ms} ms"
            )
        heap, _now = self._shard(shard)
        self._deliver(heap, shard, self.now + delay, key, args)

    def _deliver(
        self, heap: list, shard: int, t: float, key: str, args: tuple
    ) -> None:
        """Push a posted message for ``shard``'s receiver onto ``heap``."""
        fn = self._receivers.get(shard)
        if fn is None:
            raise EngineError(f"no receiver bound on shard {shard}")
        seq = self._seq
        self._seq = seq + 1
        heappush(heap, (t, seq, fn, (key, *args), None))

    def note_link_floor(self, floor_ms: float) -> None:
        """A `repro.sim.network` model reports its guaranteed minimum
        transit time.  The smallest reported floor becomes the
        conservative-synchronization lookahead (unless one was pinned
        explicitly through the backend registry): no frame can arrive
        sooner, so windows of that width are safe on every backend."""
        if floor_ms <= 0.0:
            return
        if self.link_floor_ms <= 0.0 or floor_ms < self.link_floor_ms:
            self.link_floor_ms = floor_ms
            if self._lookahead_auto:
                self.lookahead_ms = floor_ms

    def bind_harvest(self, shard: int, fn: Callable[[], Any]) -> None:
        """Register the callable that extracts ``shard``'s final
        results.  `harvest` runs them after the simulation; on the
        multiprocess backend they run *inside* the worker owning the
        shard, so this is the only way to get per-shard state back."""
        self._check_shard(shard)
        self._harvest[shard] = fn

    def harvest(self) -> List[Any]:
        """Collect per-shard results, in shard order."""
        return [self._harvest[s]() for s in sorted(self._harvest)]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next non-cancelled event of `_heap`.

        Returns False when the heap is exhausted.
        """
        heap = self._heap
        _skip_cancelled(heap)
        if not heap:
            return False
        entry = heappop(heap)
        if entry[0] < self.now:  # pragma: no cover - defensive
            raise EngineError("event heap corrupted: time went backwards")
        self._fire(entry)
        return True

    def _fire(self, entry: tuple) -> None:
        """Dispatch one popped live entry through ``trace_hook`` and
        ``profile`` — the reference dispatch `step` is built on."""
        t, seq, fn, args, ev = entry
        self.now = t
        if self.trace_hook is not None:
            self.trace_hook(self, ev if ev is not None else Event(t, seq, fn, args))
        self._events_fired += 1
        if self.profile is None:
            fn(*args)
        else:
            t0 = perf_counter()
            fn(*args)
            self.profile.record(_callback_key(fn), perf_counter() - t0)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events until the heap empties, ``until`` is passed, or
        ``max_events`` have fired.  Returns the number of events fired by
        this call.

        ``until`` is inclusive: events scheduled exactly at ``until`` run.
        When the run stops because a *pending* event lies beyond
        ``until``, the clock advances to ``until``; when the heap simply
        empties, the clock stays at the last event fired (so it reads as
        the workload's true duration).
        """
        if self.trace_hook is None and self.profile is None:
            return self._run_fast(until, max_events)
        return self._run_stepped(until, max_events)

    def _run_fast(
        self, until: Optional[float], max_events: Optional[int]
    ) -> int:
        """`run` with the per-event bookkeeping hoisted out of the loop:
        no `_peek_time`/`step` calls, locals for the heap and `heappop`,
        and ``until``/``max_events`` folded into one comparison each.
        Semantics are exactly those of `_run_stepped`.
        """
        heap = self._heap
        pop = heappop
        limit, stop = _run_bounds(until, max_events)
        fired = 0
        self._running = True
        try:
            while heap and fired != stop:
                entry = pop(heap)
                t, _seq, fn, args, ev = entry
                if ev is not None and ev.cancelled:
                    continue
                if t > limit:
                    # a pending event lies beyond `until`: leave it
                    # queued and advance the clock to the bound
                    heappush(heap, entry)
                    if self.now < limit:
                        self.now = limit
                    break
                self.now = t
                # count first: an event counts even when its callback
                # raises, and the finally below flushes
                fired += 1
                fn(*args)
        finally:
            self._running = False
            self._events_fired += fired
        return fired

    def _run_stepped(
        self, until: Optional[float], max_events: Optional[int]
    ) -> int:
        """The reference loop, one `step` at a time.  Taken only with a
        ``trace_hook`` or ``profile`` installed, which `step` serves.
        The parallel backend runs it too at one shard; at more shards
        its window loop dispatches traced events through `_fire`."""
        fired = 0
        self._running = True
        try:
            while max_events is None or fired < max_events:
                nxt = self._peek_time()
                if nxt is None:
                    break
                if until is not None and nxt > until:
                    self.now = max(self.now, until)
                    break
                if not self.step():
                    break
                fired += 1
        finally:
            self._running = False
        return fired

    def _peek_time(self) -> Optional[float]:
        """The time of the earliest live entry over every heap."""
        nxt = None
        for h in self._heaps:
            _skip_cancelled(h)
            if h and (nxt is None or h[0][0] < nxt):
                nxt = h[0][0]
        return nxt

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of non-cancelled events still scheduled."""
        return sum(
            1
            for h in self._heaps
            for entry in h
            if entry[4] is None or not entry[4].cancelled
        )

    @property
    def events_fired(self) -> int:
        return self._events_fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self.now:.6f} pending={self.pending}>"
