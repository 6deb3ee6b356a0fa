"""E15 — the telemetry plane observed from outside (§5.2; Argyroulis,
PAPERS.md).

Before the cross-kernel numbers in E1/E4/E5 can be trusted at scale,
the observation machinery's own cost must be measured and bounded:
a telemetry plane that perturbs the system it measures reports on
itself, not on the kernels.  This harness drives the same machine
check the `python -m repro bench` E15 entry gates on —
`repro.obs.bench.bench_e15` — and renders its three contracts as a
table:

  - **overhead**: the identical echo-RPC conversation with
    observability off / head-sampled (1/16) / full, events/sec each;
    sampled tracing must cost <10% versus off, as the median of the
    paired ratios of six interleaved repeats (full tracing's cost,
    reported by the same estimator, is the price the sampler exists
    to avoid).
  - **accuracy**: 100k seeded samples through the log-bucketed
    `StreamingHistogram`; p50..p99.9 within 1% of the exact sorted
    percentiles at O(buckets) memory.
  - **merge fidelity**: 8 shard histograms merged reproduce the
    single-stream percentiles bit-for-bit.

The wall-clock rates are machine-dependent (like S1); every `hist_*`
metric is deterministic for the seed.
"""

import pytest

from repro.analysis.report import Table
from repro.obs.bench import bench_e15

SEED = 0


@pytest.mark.benchmark(group="e15")
def test_e15_telemetry_self_overhead(benchmark, save_table):
    result = {}

    def run():
        # bench_e15 raises AssertionError itself when a contract fails
        result.update(bench_e15(seed=SEED, quick=False))
        return result

    benchmark.pedantic(run, rounds=1, iterations=1)

    t = Table(
        f"E15: telemetry self-overhead and histogram fidelity (seed {SEED})",
        ["mode", "events/s", "overhead vs off"],
    )
    t.add("off", result["obs_off_events_per_sec"], 0.0)
    t.add("sampled", result["obs_sampled_events_per_sec"],
          result["sampled_overhead_frac"])
    t.add("full", result["obs_full_events_per_sec"],
          result["full_overhead_frac"])
    save_table("e15_obs_overhead", t)

    # the gate bench_e15 enforces, restated for the bench log
    assert result["sampled_overhead_frac"] < 0.10
    assert result["hist_max_err_frac"] <= 0.01
    assert result["hist_merge_bitexact"] == 1.0
    # 1/16 head sampling kept a deterministic non-trivial fraction
    assert 0.0 < result["sampled_trace_frac"] < 0.5
    # O(buckets) << O(samples)
    assert result["hist_buckets"] * 100 <= result["hist_samples"]


@pytest.mark.benchmark(group="e15")
def test_e15_hist_metrics_are_seed_deterministic(benchmark):
    """The accuracy half of E15 is a pure function of the seed — only
    the wall-clock rates may differ between runs."""
    runs = []

    def run():
        runs.append(bench_e15(seed=SEED, quick=True))
        return runs

    benchmark.pedantic(run, rounds=1, iterations=1)
    runs.append(bench_e15(seed=SEED, quick=True))
    det_keys = ("sampled_trace_frac", "hist_samples", "hist_buckets",
                "hist_max_err_frac", "hist_merge_bitexact")
    first, second = runs
    assert {k: first[k] for k in det_keys} == {k: second[k] for k in det_keys}
