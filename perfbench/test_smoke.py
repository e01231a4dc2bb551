"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run emits every metric named in BENCHMARK.json with its
unit, that no stage fails, that the traced run counts only calls made inside
a stage, and that the benchmark refuses to run without the program's sources
or with more workers than cores.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, proc.stderr
    assert result["correct"] is True
    assert result["attempted"] >= 10
    assert "stage_failures 0/" in proc.stdout
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_calls_between_stages_are_not_traced(monkeypatch):
    """The stage checks run between stages, so their game calls must not count."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from scopal.games import get_game
    from tracer import Tracer

    game = get_game("tictactoe")
    state = game.initial_state(0)
    apply = type(game).apply
    tracer = Tracer("test")
    with tracer.stage("interact"):
        game.apply(state, game.legal_actions(state)[0])
    assert type(game).apply is apply
    game.apply(state, game.legal_actions(state)[0])
    assert tracer.layer_metrics()["games.apply.calls"] == (1, "count")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "selfplay_kto", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_refuses_more_jobs_than_cores():
    too_many = str(len(os.sched_getaffinity(0)) + 1)
    proc = _run("--workload", "selfplay_kto", "--seed", "1", "--seconds", "1",
                "--trace", "0", "--jobs", too_many)
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""
