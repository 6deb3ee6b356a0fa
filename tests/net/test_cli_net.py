"""CLI surface of the real transport: ``repro net ...`` and the
``--sim-backend``-with-real-backend rejection."""

import pytest

from repro.cli import main
from repro.net.supervisor import NodeSupervisor, SpawnFailed


def test_sim_backend_with_real_backend_rejected(capsys):
    assert main(["flight", "--demo", "--kernel", "real-asyncio",
                 "--sim-backend", "sharded-parallel"]) == 2
    err = capsys.readouterr().err
    assert "--sim-backend" in err and "real-asyncio" in err
    assert "real OS" in err


def test_top_rejects_the_same_combination(capsys):
    assert main(["top", "--kernel", "real-asyncio",
                 "--sim-backend", "sharded-parallel", "--quick"]) == 2
    assert "--sim-backend" in capsys.readouterr().err


def test_sim_backend_still_works_on_simulated_kernels(capsys):
    assert main(["top", "--kernel", "ideal", "--scenario", "clean",
                 "--sim-backend", "global", "--quick", "--count", "8"]) == 0
    assert "goodput/s" in capsys.readouterr().out


def test_net_serve_needs_exactly_one_bind(capsys):
    assert main(["net", "serve", "--name", "n"]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert main(["net", "serve", "--name", "n", "--socket", "/tmp/x.sock",
                 "--tcp", "0"]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_net_load_end_to_end(capsys):
    with NodeSupervisor() as sup:
        try:
            node = sup.spawn("cli-node")
        except (SpawnFailed, OSError) as exc:
            pytest.skip(f"this host forbids subprocesses/sockets ({exc})")
        assert main(["net", "load", node.endpoint, "--clients", "2",
                     "--requests", "2", "--timeout-ms", "500"]) == 0
        out = capsys.readouterr().out
        assert "issued" in out and "throughput /s" in out
