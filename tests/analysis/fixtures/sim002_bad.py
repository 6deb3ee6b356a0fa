"""SIM002 seed: engines constructed directly instead of through the
`repro.sim.backends` registry.  Only parsed by the lint pass.

A direct construction pins the caller to one engine implementation,
so the workload silently cannot run on the parallel backend.
"""

from repro.sim.engine import Engine


def bespoke_loop():
    eng = Engine()
    eng.schedule(1.0, print, "tick")
    return eng.run()


def bespoke_sharded(backends):
    # the dotted form is the same violation
    return backends.sharded.ShardedParallelEngine(shards=4)


def fine():
    from repro.sim.backends import make_engine

    # the registry is the sanctioned constructor: not a violation
    return make_engine("sharded-parallel", shards=4)
