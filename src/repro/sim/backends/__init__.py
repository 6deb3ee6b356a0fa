"""The `SimBackend` port: engines behind a registry.

PR 3 reified the kernel/runtime interface behind `repro.core.ports`;
this package does the same for the simulation core.  A *backend* is a
way of executing one logical discrete-event simulation:

* ``global`` — one tuple-keyed event heap (`repro.sim.engine.Engine`),
  drained by one hoisted loop for bounded and unbounded runs alike.
  Shard-tagged calls are accepted at any shard count and run in exact
  global ``(time, seq)`` order, so it is both the fastest single-shard
  engine and the determinism oracle everything else is checked
  against.
* ``sharded-parallel`` — the same engine with one heap and clock per
  shard, advanced under conservative synchronization: all shards whose
  next event lies inside the window ``[min_head, min_head +
  lookahead)`` drain it independently, then a barrier re-computes the
  window.  Cross-shard messages (`Engine.post`) must travel at least
  ``lookahead_ms`` — the per-link latency lower bound exposed by
  `repro.sim.network` models as ``min_latency_ms`` — which is exactly
  what makes the windows safe (Chandy–Misra–Bryant conservative
  lookahead).  With ``workers > 1`` the shards execute in forked OS
  processes exchanging messages at the window barriers.  At one shard
  it *is* the global engine: same scheduling surface, same loops.

Workloads never construct engines; they call `make_engine` (or pass
``sim_backend=`` to `repro.core.api.make_cluster`) and speak the
shard-tagged `Engine` surface (``schedule_on`` / ``defer_on`` /
``post`` / ``bind_receiver`` / ``bind_harvest``).  The SIM002 lint
rule rejects direct ``Engine(...)`` construction outside this package
so that every workload stays runnable on every backend.

Determinism contract (machine-checked by `tests/sim/test_backends.py`
and the E16 bench):

* ``sharded-parallel`` is bit-identical to ``global`` at ``shards=1``,
  and bit-identical across repeats (and across ``workers`` values) at
  any shard count;
* at ``shards > 1`` the parallel backend preserves exact ``(time,
  seq)`` order *within* each shard, and cross-shard arrivals are
  totally ordered by ``(arrival time, origin shard, send order)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

__all__ = [
    "SimBackendProfile",
    "register_sim_backend",
    "registered_sim_backends",
    "sim_backend_profile",
    "sim_backend_profiles",
    "make_engine",
    "DEFAULT_LOOKAHEAD_MS",
]

#: lookahead used when no `repro.sim.network` model has registered its
#: latency floor yet (the token-ring access delay, the tightest bound
#: among the paper's three interconnects)
DEFAULT_LOOKAHEAD_MS = 0.05


@dataclass(frozen=True)
class SimBackendProfile:
    """A registered way of executing the simulation.

    ``factory(shards, lookahead_ms, profile, workers)`` returns an
    engine implementing the full `repro.sim.engine.Engine` surface.
    ``parallel`` declares whether shards advance concurrently (windowed
    execution); ``oracle`` declares the bit-identical-to-``global``
    guarantee at any shard count.
    """

    name: str
    title: str
    parallel: bool
    oracle: bool
    factory: Callable[..., Any] = field(repr=False)
    summary: str = ""


_REGISTRY: dict[str, SimBackendProfile] = {}


def register_sim_backend(profile: SimBackendProfile) -> SimBackendProfile:
    """Register a backend; duplicate names are a programming error."""
    if profile.name in _REGISTRY:
        raise ValueError(f"sim backend {profile.name!r} already registered")
    _REGISTRY[profile.name] = profile
    return profile


def registered_sim_backends() -> Tuple[str, ...]:
    """Backend names, in registration order."""
    return tuple(_REGISTRY)


def sim_backend_profile(name: str) -> SimBackendProfile:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown sim backend {name!r}; registered backends: "
            f"{', '.join(registered_sim_backends())}"
        ) from None


def sim_backend_profiles() -> Tuple[SimBackendProfile, ...]:
    return tuple(_REGISTRY.values())


def make_engine(
    backend: str = "global",
    *,
    shards: int = 1,
    lookahead_ms: Optional[float] = None,
    profile: bool = False,
    workers: Optional[int] = None,
):
    """Build an engine through the registry.

    ``lookahead_ms=None`` means *auto*: start from
    `DEFAULT_LOOKAHEAD_MS` and adopt the smallest latency floor any
    `repro.sim.network` model subsequently registers via
    ``note_link_floor``.  ``workers`` only matters to parallel
    backends (``None`` → in-process execution).
    """
    return sim_backend_profile(backend).factory(
        shards=shards, lookahead_ms=lookahead_ms, profile=profile,
        workers=workers,
    )


# ----------------------------------------------------------------------
# the two shipped backends
# ----------------------------------------------------------------------
def _global_factory(shards=1, lookahead_ms=None, profile=False, workers=None):
    from repro.sim.engine import Engine

    return Engine(shards=shards, lookahead_ms=lookahead_ms, profile=profile)


def _parallel_factory(shards=1, lookahead_ms=None, profile=False, workers=None):
    from repro.sim.backends.sharded import ShardedParallelEngine

    return ShardedParallelEngine(
        shards=shards, lookahead_ms=lookahead_ms, profile=profile,
        workers=workers,
    )


register_sim_backend(SimBackendProfile(
    name="global",
    title="single global event heap",
    parallel=False,
    oracle=True,
    factory=_global_factory,
    summary="the reference engine: one heap, exact (time, seq) order",
))

register_sim_backend(SimBackendProfile(
    name="sharded-parallel",
    title="per-shard queues, conservative lookahead windows",
    parallel=True,
    oracle=False,
    factory=_parallel_factory,
    summary="shards drain lookahead windows independently; optional "
            "forked workers exchange cross-shard posts at barriers",
))
