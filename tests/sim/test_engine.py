"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.backends import make_engine
from repro.sim.engine import Engine, EngineError


def test_events_fire_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(3.0, order.append, "c")
    eng.schedule(1.0, order.append, "a")
    eng.schedule(2.0, order.append, "b")
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 3.0


def test_same_instant_events_fire_fifo():
    eng = Engine()
    order = []
    for i in range(10):
        eng.schedule(5.0, order.append, i)
    eng.run()
    assert order == list(range(10))


def test_zero_delay_runs_after_pending_same_instant():
    eng = Engine()
    order = []

    def first():
        order.append("first")
        eng.schedule(0.0, order.append, "third")

    eng.schedule(0.0, first)
    eng.schedule(0.0, order.append, "second")
    eng.run()
    assert order == ["first", "second", "third"]


def test_clock_does_not_go_backwards():
    eng = Engine()
    eng.schedule(10.0, lambda: None)
    eng.run()
    with pytest.raises(EngineError):
        eng.schedule_at(5.0, lambda: None)


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(EngineError):
        eng.schedule(-1.0, lambda: None)


def test_cancel_prevents_firing():
    eng = Engine()
    fired = []
    ev = eng.schedule(1.0, fired.append, "x")
    eng.schedule(2.0, fired.append, "y")
    ev.cancel()
    eng.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    eng = Engine()
    ev = eng.schedule(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    eng.run()
    assert eng.events_fired == 0


def test_run_until_is_inclusive_and_advances_clock():
    eng = Engine()
    fired = []
    eng.schedule(1.0, fired.append, 1)
    eng.schedule(2.0, fired.append, 2)
    eng.schedule(3.0, fired.append, 3)
    eng.run(until=2.0)
    assert fired == [1, 2]
    assert eng.now == 2.0
    eng.run()
    assert fired == [1, 2, 3]


def test_run_until_with_empty_heap_keeps_clock():
    """Quiescence leaves the clock at the last event: `now` reads as
    the workload's true duration, not the (arbitrary) budget."""
    eng = Engine()
    eng.run(until=42.0)
    assert eng.now == 0.0
    eng.schedule(5.0, lambda: None)
    eng.run(until=42.0)
    assert eng.now == 5.0


def test_run_max_events():
    eng = Engine()
    fired = []
    for i in range(5):
        eng.schedule(float(i), fired.append, i)
    n = eng.run(max_events=3)
    assert n == 3
    assert fired == [0, 1, 2]


def test_events_scheduled_during_run_are_honoured():
    eng = Engine()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 4:
            eng.schedule(1.0, chain, n + 1)

    eng.schedule(0.0, chain, 0)
    eng.run()
    assert seen == [0, 1, 2, 3, 4]
    assert eng.now == 4.0


def test_pending_counts_only_uncancelled():
    eng = Engine()
    ev1 = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    ev1.cancel()
    assert eng.pending == 1


def test_trace_hook_sees_each_event():
    eng = Engine()
    traced = []
    eng.trace_hook = lambda e, ev: traced.append(ev.time)
    eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    eng.run()
    assert traced == [1.0, 2.0]


def test_determinism_across_identical_runs():
    def build_and_run():
        eng = Engine()
        log = []
        for i in range(50):
            eng.schedule((i * 7) % 13 + 0.5, log.append, i)
        eng.run()
        return log

    assert build_and_run() == build_and_run()


def test_profile_off_by_default():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.run()
    assert eng.profile is None


def test_profile_records_counts_and_wall_clock():
    from repro.sim.engine import DispatchProfile

    eng = Engine(profile=True)
    assert isinstance(eng.profile, DispatchProfile)

    def slow():
        sum(range(1000))

    def fast():
        pass

    for _ in range(3):
        eng.schedule(1.0, slow)
    eng.schedule(2.0, fast)
    eng.run()
    d = eng.profile.as_dict()
    slow_key = next(k for k in d if "slow" in k)
    fast_key = next(k for k in d if "fast" in k)
    assert d[slow_key]["count"] == 3
    assert d[fast_key]["count"] == 1
    assert d[slow_key]["wall_ms"] >= 0.0
    rows = eng.profile.rows()
    assert {r[0] for r in rows} == {slow_key, fast_key}
    assert rows == sorted(rows, key=lambda r: r[2], reverse=True)
    rendered = eng.profile.render()
    assert "count" in rendered and slow_key in rendered


def test_profile_key_for_non_function_callables():
    import functools

    from repro.sim.engine import _callback_key

    assert "test_profile_key" in _callback_key(
        test_profile_key_for_non_function_callables
    )
    assert _callback_key(functools.partial(print, 1)) == "partial"


def test_cluster_threads_profile_flag_through():
    from repro.core.api import make_cluster

    for kind in ("charlotte", "soda", "chrysalis"):
        assert make_cluster(kind).engine.profile is None
        cluster = make_cluster(kind, profile=True)
        assert cluster.engine.profile is not None


# ----------------------------------------------------------------------
# the hoisted run loop (docs/PERFORMANCE.md) against the step() reference
# ----------------------------------------------------------------------
def _until_between_events(eng, log):
    for i, t in enumerate((1.0, 2.0, 3.5, 5.0)):
        eng.schedule_on(i % eng.shards, t, log.append, t)
    return {"until": 3.0}


def _until_after_only_cancelled(eng, log):
    for i, t in enumerate((1.0, 2.0)):
        eng.schedule_on(i % eng.shards, t, log.append, t).cancel()
    eng.defer_on(2 % eng.shards, 5.0, log.append, 5.0)
    return {"until": 3.0}


def _until_nothing_pending(eng, log):
    # the only entry beyond `until` is cancelled: nothing is pending,
    # so the clock stays put
    eng.schedule_on(0, 1.0, log.append, 1.0)
    eng.schedule_on(1 % eng.shards, 5.0, log.append, 5.0).cancel()
    return {"until": 3.0}


def _max_events(eng, log):
    def tick(label, depth):
        log.append((eng.now, label))
        if depth:
            eng.schedule(1.5, tick, label, depth - 1)

    eng.schedule_on(0, 2.0, tick, "a", 3).cancel()
    eng.defer_on(1 % eng.shards, 1.0, tick, "b", 2)
    eng.schedule_on(2 % eng.shards, 1.0, tick, "c", 0)
    return {"max_events": 3}


def _max_events_before_until(eng, log):
    # max_events stops the run first: the clock must not jump to until
    for i, t in enumerate((1.0, 2.0, 20.0)):
        eng.defer_on(i % eng.shards, t, log.append, t)
    return {"until": 10.0, "max_events": 2}


def _same_instant_fifo(eng, log):
    def first():
        log.append("first")
        eng.defer(0.0, log.append, "fourth")
        eng.schedule(0.0, log.append, "fifth")

    eng.schedule(1.0, first)
    eng.defer(1.0, log.append, "second")
    eng.schedule_on(eng.shards - 1, 1.0, log.append, "third")
    eng.defer(1.5, log.append, "sixth")
    return {"until": 1.0}


def _callback_raises(eng, log):
    def boom():
        raise RuntimeError("boom")

    eng.schedule_on(0, 1.0, log.append, 1.0).cancel()
    eng.defer_on(1 % eng.shards, 2.0, log.append, 2.0)
    eng.schedule_on(2 % eng.shards, 3.0, boom)
    eng.defer(4.0, log.append, 4.0)
    return {"until": 10.0}


#: case -> (what the first bounded run returns, `now` after it)
_BOUNDED_CASES = {
    "until-between-events": (_until_between_events, 2, 3.0),
    "until-after-only-cancelled": (_until_after_only_cancelled, 0, 3.0),
    "until-nothing-pending": (_until_nothing_pending, 1, 1.0),
    "max-events": (_max_events, 3, 2.5),
    "max-events-before-until": (_max_events_before_until, 2, 2.0),
    "same-instant-fifo": (_same_instant_fifo, 5, 1.0),
    "callback-raises": (_callback_raises, "RuntimeError('boom')", 3.0),
}


def _drive(backend, shards, case, reference):
    eng = make_engine(backend, shards=shards)
    if reference:
        # any trace hook routes run() through the step() loop
        eng.trace_hook = lambda e, ev: None
    log = []
    run_kwargs = case(eng, log)
    try:
        first = eng.run(**run_kwargs)
    except RuntimeError as exc:
        first = repr(exc)
    mid = (list(log), first, eng.now, eng.events_fired, eng.pending)
    rest = eng.run()
    return mid, (list(log), rest, eng.now, eng.events_fired, eng.pending)


@pytest.mark.parametrize("backend,shards", [
    ("global", 1), ("global", 3), ("sharded-parallel", 1),
])
@pytest.mark.parametrize("case", sorted(_BOUNDED_CASES))
def test_fast_path_matches_general_loop_exactly(backend, shards, case):
    """`run()` takes a hoisted loop unless a trace hook or profile is
    installed; it must be observationally identical to the `step()`
    reference loop: same firing order, return value, clock,
    events_fired and pending count, mid-run and after draining."""
    build, first, now = _BOUNDED_CASES[case]
    fast = _drive(backend, shards, build, reference=False)
    assert fast == _drive(backend, shards, build, reference=True)
    _log, got_first, got_now, _fired, _pending = fast[0]
    assert (got_first, got_now) == (first, now)
    if case == "same-instant-fifo":
        assert fast[0][0] == ["first", "second", "third", "fourth", "fifth"]


@pytest.mark.parametrize("backend", ["global", "sharded-parallel"])
def test_trace_hook_sees_events_for_handle_less_entries(backend):
    """`defer`/`defer_on`/`post` allocate no `Event`; the trace hook
    still receives one, built from the heap entry."""
    eng = make_engine(backend, shards=2, lookahead_ms=0.1)
    seen = []
    eng.trace_hook = lambda e, ev: seen.append(
        (ev.time, ev.seq, ev.fn, ev.args, ev.cancelled))
    got = []
    eng.bind_receiver(1, lambda key, x: got.append((key, x)))
    eng.defer(1.0, got.append, "d")
    eng.defer_on(1, 2.0, got.append, "don")
    eng.post(1, 3.0, "k", 7)
    ev = eng.schedule(4.0, got.append, "s")
    assert eng.run() == 4
    assert got == ["d", "don", ("k", 7), "s"]
    assert [(t, seq, args) for t, seq, _fn, args, _c in seen] == [
        (1.0, 0, ("d",)), (2.0, 1, ("don",)), (3.0, 2, ("k", 7)),
        (4.0, 3, ("s",)),
    ]
    assert not any(c for *_rest, c in seen)
    assert ev.time == 4.0 and ev.seq == 3


def test_fast_path_counts_events_fired_once():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    assert eng.run() == 2
    assert eng.events_fired == 2
    eng.schedule(1.0, lambda: None)
    assert eng.run() == 1
    assert eng.events_fired == 3


def test_fast_path_skips_cancelled_and_propagates_exceptions():
    eng = Engine()

    def boom():
        raise RuntimeError("boom")

    ok = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, boom)
    ok.cancel()
    with pytest.raises(RuntimeError):
        eng.run()
    # the count was still flushed on the way out
    assert eng.events_fired == 1
    assert eng.now == 2.0


def test_trace_hook_and_profile_divert_to_the_general_loop():
    seen = []
    eng = Engine(profile=True)
    eng.trace_hook = lambda e, ev: seen.append(ev.time)
    eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    assert eng.run() == 2  # no args, but hooks force the general loop
    assert seen == [1.0, 2.0]
    assert sum(eng.profile.counts.values()) == 2
