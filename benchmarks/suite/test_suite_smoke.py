"""Self-test of the repository benchmark.

Runs every workload at smoke size, once untraced and once traced, through
the same command the full benchmark uses, and checks that each metric
``BENCHMARK.json`` names is emitted with its unit and that every answer
passed its correctness check.
"""

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_declared_metric_is_emitted_and_correct(tmp_path):
    spec = _spec()
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    runs = json.loads(out.read_text())["runs"]
    for workload in spec["workloads"]:
        mine = [run for run in runs if run["workload"] == workload["name"]]
        assert sorted(run["trace"] for run in mine) == [0, 1]
        for run in mine:
            result = run["result"]
            declared = spec["per_layer" if run["trace"] else "end_to_end"]
            emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert emitted == {m["name"]: m["unit"] for m in declared}
            assert result["correct"] is True
            assert result["attempted"] >= 1 and result["failed"] == 0
            if not run["trace"]:
                assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    """In a directory holding only the benchmark, a run exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    script = _spec()["command"][1:]
    args = ["--workload", "stream-1rank", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(
        [sys.executable, *script, *args, "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
