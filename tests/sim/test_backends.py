"""The `SimBackend` port contract (`repro.sim.backends`).

Three families of checks:

* **registry** — names resolve, unknown names fail with the registered
  list in the message (the same contract `bench --sim-backend` and
  `benchmarks/verify.py --sim-backend` exit 2 on), duplicates are
  programming errors;
* **determinism** — `global` is the oracle: `sharded-parallel` matches
  it at one shard for every workload and on the scale workload at any
  shard count, and repeats, worker counts and bounded (``until`` /
  ``max_events``) runs never change a digest;
* **conservative-window safety** — cross-shard work must travel
  through lookahead-bounded `post`, and the engine refuses the calls
  that would break the windows.
"""

import pytest

from repro.sim.backends import (
    DEFAULT_LOOKAHEAD_MS,
    SimBackendProfile,
    make_engine,
    register_sim_backend,
    registered_sim_backends,
    sim_backend_profile,
    sim_backend_profiles,
)
from repro.sim.engine import EngineError

ALL = ("global", "sharded-parallel")
SHARDED = ("sharded-parallel",)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_lists_the_two_backends_in_order():
    assert registered_sim_backends() == ALL
    assert tuple(p.name for p in sim_backend_profiles()) == ALL


def test_profiles_declare_oracle_and_parallel_flags():
    assert sim_backend_profile("global").oracle
    assert not sim_backend_profile("global").parallel
    assert not sim_backend_profile("sharded-parallel").oracle
    assert sim_backend_profile("sharded-parallel").parallel


def test_unknown_backend_error_names_the_registered_ones():
    with pytest.raises(ValueError) as exc:
        sim_backend_profile("turbo")
    msg = str(exc.value)
    assert "turbo" in msg
    for name in ALL:
        assert name in msg
    with pytest.raises(ValueError):
        make_engine("turbo")


def test_duplicate_registration_is_an_error():
    with pytest.raises(ValueError):
        register_sim_backend(SimBackendProfile(
            name="global", title="imposter", parallel=False, oracle=False,
            factory=lambda **kw: None,
        ))


@pytest.mark.parametrize("backend", ALL)
def test_shard_count_must_be_positive(backend):
    with pytest.raises(EngineError):
        make_engine(backend, shards=0)


@pytest.mark.parametrize("backend", ALL)
def test_engines_report_their_shard_count(backend):
    eng = make_engine(backend, shards=4)
    assert eng.shards == 4
    assert eng.shard_now(3) == 0.0
    with pytest.raises(EngineError):
        eng.shard_now(4)


# ----------------------------------------------------------------------
# determinism: global is the oracle
# ----------------------------------------------------------------------
def _legacy_workload(eng):
    """An untagged workload: schedule chains, cancellations, zero
    delays — everything a cluster does, no shard tags anywhere."""
    log = []

    def tick(i):
        log.append((round(eng.now, 9), "tick", i))
        if i < 8:
            eng.schedule(0.7 * ((i * 5) % 3 + 1), tick, i + 1)
        if i == 2:
            doomed = eng.schedule(50.0, log.append, "never")
            eng.call_soon(doomed.cancel)
        if i == 4:
            eng.defer(0.0, log.append, (round(eng.now, 9), "deferred"))

    for j in range(5):
        eng.schedule((j * 3) % 7 + 0.5, tick, 0)
    fired = eng.run()
    return fired, log


@pytest.mark.parametrize("backend", SHARDED)
@pytest.mark.parametrize("shards", (1, 4))
def test_legacy_untagged_workloads_match_global_exactly(backend, shards):
    ref_fired, ref_log = _legacy_workload(make_engine("global"))
    fired, log = _legacy_workload(make_engine(backend, shards=shards))
    assert (fired, log) == (ref_fired, ref_log)


def test_parallel_matches_global_at_one_shard():
    from repro.workloads.scale import run_scale

    ref = run_scale("global", 1, clients=48, requests=2, seed=3)
    got = run_scale("sharded-parallel", 1, clients=48, requests=2, seed=3)
    assert got.digest == ref.digest
    assert got.events == ref.events


@pytest.mark.parametrize("shards", (1, 2, 3, 8))
def test_parallel_matches_global_at_any_shard_count(shards):
    from repro.workloads.scale import run_scale

    ref = run_scale("global", shards, clients=48, requests=2, seed=3)
    got = run_scale("sharded-parallel", shards, clients=48, requests=2, seed=3)
    assert got.digest == ref.digest
    assert got.events == ref.events


@pytest.mark.parametrize("max_events", (None, 7), ids=("until", "until-max"))
def test_bounded_parallel_runs_reproduce_the_unbounded_run(max_events):
    """Split into ``run(until=...)`` steps (each optionally capped by
    ``max_events``, which stops mid-window), the 4-shard scale workload
    fires the same events and reaches the same per-shard digests as one
    unbounded run."""
    from repro.workloads.scale import ShardSim, run_scale

    ref = run_scale("sharded-parallel", 4, clients=48, requests=2, seed=3)
    eng = make_engine("sharded-parallel", shards=4, lookahead_ms=0.25)
    sims = [ShardSim(eng, s, 4, clients=12, requests=2, seed=3)
            for s in range(4)]
    for sim in sims:
        sim.start()
    events = 0
    until = 0.0
    while eng.pending:
        until += 0.3
        events += eng.run(until=until, max_events=max_events)
    assert events == ref.events
    assert [p["digest"] for p in eng.harvest()] == list(ref.shard_digests)


def test_parallel_repeats_are_bit_identical():
    from repro.workloads.scale import run_scale

    runs = [
        run_scale("sharded-parallel", 8, clients=64, requests=2, seed=5)
        for _ in range(2)
    ]
    assert runs[0].digest == runs[1].digest
    assert runs[0].events == runs[1].events


def test_forked_workers_match_the_in_process_loop():
    from repro.workloads.scale import run_scale

    inproc = run_scale("sharded-parallel", 4, clients=48, requests=2, seed=7)
    forked = run_scale("sharded-parallel", 4, clients=48, requests=2, seed=7,
                       workers=2)
    assert forked.digest == inproc.digest
    assert forked.events == inproc.events
    # harvest payloads made it back across the process boundary
    assert forked.completed == inproc.completed


# ----------------------------------------------------------------------
# conservative-window safety
# ----------------------------------------------------------------------
def test_parallel_rejects_cross_shard_scheduling_mid_run():
    eng = make_engine("sharded-parallel", shards=2, lookahead_ms=0.5)
    errors = []

    def hop():
        try:
            eng.schedule_on(1, 0.1, lambda: None)
        except EngineError as exc:
            errors.append(str(exc))

    eng.schedule_on(0, 1.0, hop)
    eng.run()
    assert errors and "post()" in errors[0]


@pytest.mark.parametrize("backend", ALL)
def test_post_enforces_the_lookahead_bound(backend):
    eng = make_engine(backend, shards=2, lookahead_ms=0.5)
    eng.bind_receiver(1, lambda key: None)
    with pytest.raises(EngineError):
        eng.post(1, 0.25, "too-fast")
    eng.post(1, 0.5, "ok")
    assert eng.run() == 1


def test_post_without_receiver_is_an_error():
    eng = make_engine("sharded-parallel", shards=2)
    with pytest.raises(EngineError):
        eng.post(1, 1.0, "nobody-home")


def test_parallel_step_is_refused():
    eng = make_engine("sharded-parallel", shards=2, lookahead_ms=0.5)
    with pytest.raises(EngineError):
        eng.step()


def test_parallel_steps_at_one_shard():
    # one shard has no windows: the engine is the global engine
    eng = make_engine("sharded-parallel", shards=1)
    log = []
    eng.schedule(1.0, log.append, "a")
    eng.defer_on(0, 2.0, log.append, "b")
    assert eng.step() and eng.step()
    assert not eng.step()
    assert log == ["a", "b"]
    assert eng.now == 2.0


def test_parallel_with_zero_lookahead_refuses_to_run():
    eng = make_engine("sharded-parallel", shards=2, lookahead_ms=0.0)
    eng.schedule_on(0, 1.0, lambda: None)
    with pytest.raises(EngineError):
        eng.run()


# ----------------------------------------------------------------------
# lookahead adoption from the network layer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ALL)
def test_note_link_floor_adopts_the_smallest_floor(backend):
    eng = make_engine(backend, shards=2)
    assert eng.lookahead_ms == DEFAULT_LOOKAHEAD_MS
    eng.note_link_floor(0.2)
    assert eng.lookahead_ms == 0.2
    eng.note_link_floor(0.04)
    assert eng.lookahead_ms == 0.04
    eng.note_link_floor(1.0)  # larger: ignored
    assert eng.lookahead_ms == 0.04
    eng.note_link_floor(0.0)  # non-positive: ignored
    assert eng.lookahead_ms == 0.04


@pytest.mark.parametrize("backend", ALL)
def test_explicit_lookahead_is_never_overridden(backend):
    eng = make_engine(backend, shards=2, lookahead_ms=0.5)
    eng.note_link_floor(0.05)
    assert eng.lookahead_ms == 0.5


def test_network_models_register_their_floors():
    from repro.sim.metrics import MetricSet
    from repro.sim.network import TokenRing
    from repro.sim.rng import SimRandom

    eng = make_engine("sharded-parallel", shards=2)
    TokenRing(eng, metrics=MetricSet(), rng=SimRandom(0, "ring"))
    assert eng.link_floor_ms > 0.0
    assert eng.lookahead_ms == eng.link_floor_ms


# ----------------------------------------------------------------------
# run() stop conditions on the sharded queues (regression: the general
# engine loop used to read the global heap directly, so until= /
# max_events= runs — run_until_quiet — fired nothing on per-shard heaps)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ALL)
def test_run_until_stops_the_clock_at_the_bound(backend):
    eng = make_engine(backend, shards=1)
    log = []
    for t in (1.0, 2.0, 7.0):
        eng.schedule(t, log.append, t)
    fired = eng.run(until=3.0)
    assert fired == 2
    assert log == [1.0, 2.0]
    assert eng.now == 3.0
    assert eng.run() == 1


@pytest.mark.parametrize("workers", (None, 2), ids=("in-process", "forked"))
@pytest.mark.parametrize("beyond", (False, True), ids=("drained", "beyond"))
def test_run_until_moves_clocks_only_past_a_pending_entry(workers, beyond):
    """As `Engine.run` documents: when the heaps drain before ``until``
    each shard's clock stays at its last event; only a live entry
    beyond ``until`` moves the clocks up to it — forked workers too."""
    eng = make_engine("sharded-parallel", shards=2, lookahead_ms=0.5,
                      workers=workers)
    eng.schedule_on(0, 1.0, lambda: None)
    eng.schedule_on(1, 2.0, lambda: None)
    if beyond:
        eng.schedule_on(0, 200.0, lambda: None)
    assert eng.run(until=100.0) == 2
    clocks = (eng.shard_now(0), eng.shard_now(1))
    assert clocks == ((100.0, 100.0) if beyond else (1.0, 2.0))


@pytest.mark.parametrize("backend", ALL)
def test_run_honors_max_events(backend):
    eng = make_engine(backend, shards=2, lookahead_ms=0.5)
    log = []
    for i in range(6):
        eng.schedule_on(i % 2, float(i + 1), log.append, i)
    assert eng.run(max_events=4) == 4
    assert log == [0, 1, 2, 3]
    assert eng.run() == 2


@pytest.mark.parametrize("backend", SHARDED)
def test_cancellation_works_on_sharded_queues(backend):
    eng = make_engine(backend, shards=2, lookahead_ms=0.5)
    log = []
    keep = eng.schedule_on(0, 1.0, log.append, "keep")
    drop = eng.schedule_on(1, 1.0, log.append, "drop")
    drop.cancel()
    assert keep is not drop
    fired = eng.run()
    assert log == ["keep"]
    assert fired == 1
    assert eng.pending == 0


def test_harvest_returns_payloads_in_shard_order():
    eng = make_engine("sharded-parallel", shards=3)
    for s in (2, 0, 1):
        eng.bind_harvest(s, lambda s=s: {"shard": s})
    assert [p["shard"] for p in eng.harvest()] == [0, 1, 2]
