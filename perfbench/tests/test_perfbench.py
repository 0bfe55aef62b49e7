"""Self-tests of the benchmark harness (not part of the repository's suite).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric(workload, trace):
    done = _run(
        "--workload", workload, "--seed", "3", "--seconds", "0.6",
        "--trace", trace, "--tiny",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {e["name"]: e["unit"] for e in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for entry in spec:
        printed = [line for line in lines if line.split()[:1] == [entry["name"]]]
        assert len(printed) == 1, entry["name"]
        assert entry["unit"] in printed[0] and "(n=" in printed[0]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt(chains):
    """Drop the last pair of every chain that has one; count the victims."""
    victims = 0
    for chain in chains.values():
        if chain["pairs"]:
            last = chain["pairs"].pop()
            for v in last["side1"] + last["side2"]:
                del chain["intervals"][str(v)]
            victims += 1
    return victims


def test_gate_catches_corrupted_sweep_chains():
    sweep = workloads.Table1Sweep(5, tiny=True)
    sweep.setup()
    rec = workloads.Recorder()
    sweep.run(0.1, rec, 0)
    sweep.GATE_CONES = 10**6  # check every small cone
    sweep.check(rec)
    assert rec.failed == 0, rec.messages

    victims = sum(_corrupt(chains) for _, _, _, chains in sweep.small)
    assert victims > 0
    sweep.check(rec)
    assert rec.failed > 0
    assert any("chain-vs-brute" in m for m in rec.messages), rec.messages


def test_daemon_mix_leaves_no_segment_or_process():
    mix = workloads.DaemonMix(5, tiny=True)
    mix.setup()
    try:
        rec = workloads.Recorder()
        mix.run(0.5, rec, 0)
        mix.check(rec)
    finally:
        mix.close()
    assert rec.failed == 0, rec.messages
    assert any(op == "sweep" for _, op, _, _ in mix.requests)
    marker = f"_{os.getpid()}_"
    leaked = [e for e in os.listdir("/dev/shm") if e.startswith("rpro_") and marker in e]
    assert leaked == []
    assert multiprocessing.active_children() == []


def test_tracer_restores_every_entry_point():
    import importlib

    before = {}
    for module_path, owner, attr, _, _ in spans.LAYER_ENTRY_POINTS:
        target = getattr(importlib.import_module(module_path), owner) if owner else importlib.import_module(module_path)
        before[(module_path, owner, attr)] = spans._raw(target, attr)
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    for (module_path, owner, attr), original in before.items():
        module = importlib.import_module(module_path)
        target = getattr(module, owner) if owner else module
        assert spans._raw(target, attr) is original, (module_path, owner, attr)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(
        "--workload", "table1_sweep", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
