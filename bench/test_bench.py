"""Tests of the benchmark itself: its answers, its metrics and its refusal
to run without the package source."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import harness
import oracle
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def keep_recursion_limit():
    """veracity.cli.main raises the interpreter's recursion limit; put it back."""
    limit = sys.getrecursionlimit()
    yield
    sys.setrecursionlimit(limit)


@pytest.fixture(scope="module")
def package():
    return run._import_package()


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2])
def test_every_answer_matches_the_program(workload, seed, package, tmp_path):
    """The two smallest rungs, five jobs a cell (one of them a planted
    fault on proof-replay); only the listed known defects may disagree."""
    cli, parse_structured = package
    jobs = corpus.build(workload, seed, tmp_path, rungs=2, per_rung=5)
    for job in jobs:
        if job.script is not None:
            Path(job.path).write_text(job.script, encoding="utf-8")
    wrong = [
        f"{job.name}: {why}"
        for job in jobs
        if (why := harness.problem(job, *harness.call(cli.main, job)[1:], parse_structured)) is not None
        and job.name not in corpus.KNOWN_DEFECTS
    ]
    assert wrong == []
    if workload == "proof-replay":
        assert sum(job.code == 1 for job in jobs) == len(jobs) // 5


def test_corpus_is_a_function_of_the_seed(tmp_path):
    for workload in corpus.WORKLOADS:
        first = corpus.build(workload, 7, tmp_path, rungs=2, per_rung=2)
        assert first == corpus.build(workload, 7, tmp_path, rungs=2, per_rung=2)
        assert first != corpus.build(workload, 8, tmp_path, rungs=2, per_rung=2)


def test_weight_text_is_exact():
    from fractions import Fraction

    assert oracle.weight_text(Fraction(1)) == "1.0"
    assert oracle.weight_text(Fraction(0)) == "0.0"
    assert oracle.weight_text(Fraction(4096, 10000)) == "0.4096"
    assert oracle.weight_text(Fraction(1, 20)) == "0.05"
    assert oracle.weight_text(Fraction(1, 3)) == "1/3"


def test_growth_exp_recovers_a_power_law():
    cells = {(shape, r): c * corpus.SCALES[r] ** 2.5 for shape, c in (("a", 1e-3), ("b", 4e-2)) for r in range(4)}
    cells[("single", 0)] = 1.0
    assert math.isclose(harness.growth_exp(cells), 2.5)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric(trace, kind, capsys):
    assert run.main(["--workload", "model-queries", "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                    rungs=2, per_rung=1) == 0
    out = capsys.readouterr().out
    result = _last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= harness.MIN_SAMPLES
    # The two known-defect jobs run once a pass and fail every time.
    assert 0 < result["failed"] < result["attempted"]
    wanted = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "failed_share" in out and "size ladder" in out


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "long-reduce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
