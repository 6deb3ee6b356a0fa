"""The per-layer ledger: host time and calls, split by the repo's modules.

A traced pass runs the workload's measured region under `cProfile`
(the interpreter's profile hook) and rolls the profile up by code
file.  Each Python function belongs to the layer of the file that
defines it (`LAYER_MODULES`); the time of a built-in function goes to
the layer of the function that called it.  Time the profile does not
cover is charged to ``app``, and `COVERAGE_TOLERANCE` bounds how much
that may be.
"""

from __future__ import annotations

import cProfile
import os
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Tuple

#: layer -> the modules of ``src/repro`` it is made of (paths relative
#: to ``src/repro``; a trailing ``/`` names a package).  The first match
#: in this order wins, so ``core/codec.py`` is codec, not runtime.
LAYER_MODULES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("engine", ("sim/engine.py", "sim/backends/")),
    ("tasks", ("sim/tasks.py", "sim/futures.py")),
    ("codec", ("core/codec.py", "core/types.py", "core/wire.py")),
    ("runtime", ("core/",)),
    ("kernel", ("charlotte/", "soda/", "chrysalis/", "ideal/")),
    ("network", ("sim/network.py",)),
    ("obs", ("obs/", "sim/trace.py", "sim/metrics.py")),
    ("net", ("net/",)),
)

#: every layer a ledger reports: the mapped ones, the Python standard
#: library (asyncio carries the fleet's sockets), and ``app`` for the
#: workload programs, the benchmark and every other ``repro`` module
LAYERS: Tuple[str, ...] = tuple(name for name, _ in LAYER_MODULES) + (
    "stdlib", "app",
)

#: the profiled self times of a pass must cover its measured wall time
#: to within this share; the gap is charged to ``app``
COVERAGE_TOLERANCE = 0.15


class LayerMap:
    """Maps a code file to its layer."""

    def __init__(self, repro_dir: str, bench_dir: str) -> None:
        self.repro_dir = os.path.abspath(repro_dir) + os.sep
        self.bench_dir = os.path.abspath(bench_dir) + os.sep
        self._cache: Dict[str, str] = {}

    def of_file(self, filename: str) -> str:
        layer = self._cache.get(filename)
        if layer is None:
            layer = self._classify(filename)
            self._cache[filename] = layer
        return layer

    def _classify(self, filename: str) -> str:
        # "<string>" and the like: generated code (dataclass methods),
        # which no file places in a layer
        if filename.startswith("<"):
            return "app"
        path = os.path.abspath(filename)
        if path.startswith(self.bench_dir):
            return "app"
        if not path.startswith(self.repro_dir):
            return "stdlib"
        rel = path[len(self.repro_dir):].replace(os.sep, "/")
        for layer, modules in LAYER_MODULES:
            for mod in modules:
                if rel == mod or (mod.endswith("/") and rel.startswith(mod)):
                    return layer
        return "app"


@dataclass
class Ledger:
    """One traced pass, rolled up by layer."""

    wall_s: float = 0.0
    #: the profile's own total, before the uncovered gap goes to ``app``
    profiled_s: float = 0.0
    self_s: Dict[str, float] = field(
        default_factory=lambda: {layer: 0.0 for layer in LAYERS})
    #: Python function calls (generator resumptions included) per layer
    calls: Dict[str, int] = field(
        default_factory=lambda: {layer: 0 for layer in LAYERS})
    #: calls into a codec function from outside the codec layer
    codec_entries: int = 0
    #: ``rt_*`` downcalls: calls to an ``rt_*`` method from a caller
    #: that is not itself an ``rt_*`` method
    port_calls: int = 0
    #: `Task._step` resumptions
    task_steps: int = 0
    #: `asyncio.StreamWriter.write` calls
    stream_writes: int = 0
    #: cumulative time in frame encoding (`encode_frame`, `pack_frame`)
    #: and decoding (`decode_frame`)
    encode_s: float = 0.0
    decode_s: float = 0.0

    def proxies(self) -> Dict[str, Any]:
        """The counts that must repeat exactly between two traced passes
        of a simulated workload."""
        return {
            "calls": dict(self.calls),
            "codec_entries": self.codec_entries,
            "port_calls": self.port_calls,
            "task_steps": self.task_steps,
        }


class TracedMeter:
    """A `workloads.Meter` that profiles what it times."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self.wall_s = 0.0

    def measure(self, fn: Callable[[], Any]) -> float:
        prof = self.profile
        t0 = perf_counter()
        prof.enable()
        try:
            fn()
        finally:
            prof.disable()
            dt = perf_counter() - t0
        self.wall_s += dt
        return dt

    def ledger(self, layers: LayerMap) -> Ledger:
        prof = self.profile
        prof.create_stats()
        stats = prof.stats
        out = Ledger(wall_s=self.wall_s)
        layer_of = {
            func: layers.of_file(func[0])
            for func in stats if func[0] != "~"
        }
        for func, (_cc, nc, tt, ct, callers) in stats.items():
            filename, _line, name = func
            if filename == "~":
                # a built-in: each caller pays for the calls it made
                for caller, edge in callers.items():
                    out.self_s[layer_of.get(caller, "stdlib")] += edge[2]
                continue
            layer = layer_of[func]
            out.self_s[layer] += tt
            out.calls[layer] += nc
            if layer == "codec":
                out.codec_entries += sum(
                    edge[0] for caller, edge in callers.items()
                    if layer_of.get(caller) != "codec"
                )
            if name.startswith("rt_"):
                out.port_calls += sum(
                    edge[0] for caller, edge in callers.items()
                    if not caller[2].startswith("rt_")
                )
            if layer == "tasks" and name == "_step":
                out.task_steps += nc
            elif name == "write" and filename.endswith(
                    os.path.join("asyncio", "streams.py")):
                out.stream_writes += nc
            elif layer == "net" and name in ("encode_frame", "pack_frame"):
                out.encode_s += ct
            elif layer == "net" and name == "decode_frame":
                out.decode_s += ct
        out.profiled_s = sum(out.self_s.values())
        gap = out.wall_s - out.profiled_s
        if gap > 0:
            out.self_s["app"] += gap
        return out


def retained_by_layer(layers: LayerMap, fn: Callable[[], Any]):
    """Run ``fn`` under `tracemalloc` and return, per layer, the bytes
    and blocks still allocated when it returns (while whatever ``fn``
    returns is alive), together with ``fn``'s result."""
    tracemalloc.start(1)
    try:
        result = fn()
        snap = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    kb = {layer: 0.0 for layer in LAYERS}
    blocks = 0
    for stat in snap.statistics("filename"):
        kb[layers.of_file(stat.traceback[0].filename)] += stat.size / 1024.0
        blocks += stat.count
    return result, kb, blocks
