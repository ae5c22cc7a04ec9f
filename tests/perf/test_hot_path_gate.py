"""The hot-path bench's regression gate: ``check_against_baseline`` in
``benchmarks/bench_hot_path.py``, which CI runs as a script against the
committed ``BENCH_hot_path.json``.

The gate reads only the two JSON files, so its bounds are checked here on
copies of the committed baseline with one number moved: fast bytes/step
may grow by 25% and ``serial_speedup`` may fall by 25%, on the two gated
cells and nowhere else.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
BENCHMARKS = REPO / "benchmarks"
BASELINE = REPO / "BENCH_hot_path.json"

#: (backend, nranks, batch) of the gated cells.
GATED = {"threads4": ("threads", 4, 20), "self1": ("self", 1, 20)}


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gate():
    """The gate function.  The bench's ``from conftest import emit``
    means the benchmarks' harness, not the conftest pytest registered
    under that name for this suite, so it is swapped in for the import."""
    with pytest.MonkeyPatch.context() as patch:
        harness = load("bench_harness_conftest", BENCHMARKS / "conftest.py")
        patch.setitem(sys.modules, "conftest", harness)
        bench = load("bench_hot_path", BENCHMARKS / "bench_hot_path.py")
    return bench.check_against_baseline


def moved(tmp_path, cell_key, metric, factor):
    """Write the committed baseline with ``metric`` of one cell scaled."""
    payload = json.loads(BASELINE.read_text())
    for cell in payload["cells"]:
        if (cell["backend"], cell["nranks"], cell["batch"]) != cell_key:
            continue
        if metric == "bytes_per_step":
            cell["fast"]["bytes_per_step"] *= factor
        else:
            cell[metric] *= factor
    path = tmp_path / "BENCH_hot_path.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("cell", sorted(GATED))
@pytest.mark.parametrize(
    "metric, factor, passes, reason",
    [
        ("bytes_per_step", 1.2, True, None),
        ("bytes_per_step", 1.3, False, "allocation regression"),
        ("serial_speedup", 0.8, True, None),
        ("serial_speedup", 0.7, False, "steps/s regression: serial_speedup"),
    ],
)
def test_gate_bounds(gate, tmp_path, cell, metric, factor, passes, reason):
    artifact = moved(tmp_path, GATED[cell], metric, factor)
    if passes:
        gate(artifact, BASELINE)
        return
    label = "{} x{} b{}".format(*GATED[cell])
    with pytest.raises(SystemExit) as failed:
        gate(artifact, BASELINE)
    message = str(failed.value)
    assert message.startswith(f"hot-path regression gate: {label} {reason}")
    assert ";" not in message  # the one moved number is the one failure


def test_ungated_cell_is_not_checked_by_the_script(tmp_path):
    """Run as CI runs it.  The threads x2 cell is informational: a
    tenfold allocation and a halved throughput ratio there pass."""
    artifact = moved(tmp_path, ("threads", 2, 10), "bytes_per_step", 10.0)
    payload = json.loads(artifact.read_text())
    for cell in payload["cells"]:
        if cell["nranks"] == 2:
            cell["serial_speedup"] *= 0.5
    artifact.write_text(json.dumps(payload))
    result = subprocess.run(
        [sys.executable, "bench_hot_path.py", str(artifact), str(BASELINE)],
        cwd=BENCHMARKS,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("hot-path ") == 2 * len(GATED)
