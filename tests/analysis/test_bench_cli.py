"""Tier-1 smoke of ``python -m repro bench --quick`` — keeps the
benchmark-export path from silently rotting (ISSUE 1 CI satellite)."""

import json

from repro.cli import main


def test_bench_quick_writes_valid_json(tmp_path, capsys):
    out = tmp_path / "BENCH_smoke.json"
    assert main(["bench", "--quick", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "benchmark export" in printed
    assert str(out) in printed
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.bench"
    assert doc["quick"] is True
    assert set(doc["benches"]) == {"E1", "E4", "E5", "E13", "E14", "E15",
                                   "E16", "E17", "S1"}
    assert "seed" in doc and "git_rev" in doc and "timestamp" in doc


def test_bench_only_subset(tmp_path, capsys):
    out = tmp_path / "BENCH_sub.json"
    assert main(["bench", "--quick", "--only", "S1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert list(doc["benches"]) == ["S1"]
    assert doc["benches"]["S1"]["engine_events_per_sec"] > 0


def test_bench_out_dash_writes_json_to_stdout(capsys):
    assert main(["bench", "--quick", "--only", "E5", "--out", "-"]) == 0
    printed = capsys.readouterr().out
    doc = json.loads(printed)  # stdout is exactly one JSON document
    assert list(doc["benches"]) == ["E5"]
    assert "benchmark export" not in printed  # no table mixed in


def test_bench_unknown_only_name_exits_nonzero(capsys):
    assert main(["bench", "--quick", "--only", "E99"]) == 2
    err = capsys.readouterr().err
    assert "E99" in err


def test_bench_pinned_sim_backend_restricts_the_sweep(tmp_path):
    out = tmp_path / "BENCH_backend.json"
    assert main(["bench", "--quick", "--only", "E16",
                 "--sim-backend", "sharded-parallel",
                 "--out", str(out)]) == 0
    e16 = json.loads(out.read_text())["benches"]["E16"]
    for shards in (1, 2, 4, 8):
        assert e16[f"scale_parallel_s{shards}_events_per_sec"] > 0
    # backends that did not run stay null, so the schema never varies
    assert e16["scale_global_s1_events_per_sec"] is None
    assert e16["scale_parallel_s8_speedup"] is None
    # only one backend ran: the 8-shard digest is compared only with the
    # forked run (skipped on 1-CPU hosts), and the selected backend must
    # still be repeat-stable
    forked = e16["scale_parallel_s8_w2_events_per_sec"]
    assert e16["scale_digest_match_s8"] == (None if forked is None else 1.0)
    assert e16["scale_repeat_stable_s8"] == 1.0


def test_bench_unknown_sim_backend_exits_nonzero(capsys):
    assert main(["bench", "--quick", "--only", "E16",
                 "--sim-backend", "turbo"]) == 2
    err = capsys.readouterr().err
    assert "turbo" in err
    assert "sharded-parallel" in err  # the registry lists valid names
