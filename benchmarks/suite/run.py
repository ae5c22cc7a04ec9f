"""The repository benchmark: streaming-step and HTTP-query workloads.

Run from the repository root::

    python3 benchmarks/suite/run.py                # all workloads, end to end
    python3 benchmarks/suite/run.py --trace        # ... and per layer
    python3 benchmarks/suite/run.py --repeat 5     # spread of every metric
    python3 benchmarks/suite/run.py --workload query-bulk --seed 3 --trace 0

With ``--workload`` (and no ``--repeat``) one run happens in this process
and the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json``, or with ``--trace 1`` its per-layer ones.
Otherwise every run is a fresh subprocess of this script, workloads in
alternating order across repeats, and a table per workload is printed.
The exit code is non-zero when any answer fails its correctness check.
"""

import os

# Each rank is one thread and the box has 2 cores: OpenBLAS's default of
# one thread per core makes the ranks' BLAS calls oversubscribe them (an
# 8192-row step runs ~5x slower with a ~5x p99/p50 tail), so the numbers
# would measure the scheduler.  Pinned before numpy is first imported.
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "suite"

#: Metric-name prefixes of the layers on each path; a traced run reports
#: the other path's layers as 0.
OWN_LAYERS = {
    "stream": ("core.", "linalg.", "smpi.", "trace."),
    "interactive": ("serving.", "net.", "trace."),
    "bulk": ("serving.", "net.", "trace."),
}


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "pinned": {var: os.environ[var] for var in PINNED},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def header(env: dict) -> str:
    pinned = " ".join(f"{var}={value}" for var, value in env["pinned"].items())
    return (
        f"# nproc={env['nproc']} usable={env['usable_cpus']} {env['machine']} "
        f"blas={env['blas']} [{pinned}] python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']}"
    )


def run_one(args, spec: dict) -> int:
    if not (SRC / "repro").is_dir():
        print(f"run.py: no repro sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    own = OWN_LAYERS[workloads.WORKLOADS[args.workload].path]
    outcome = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, WORK_DIR
    )
    names = [m["name"] for m in declared]
    unknown = sorted(set(outcome.metrics) - set(names))
    missing = [
        name
        for name in names
        if name not in outcome.metrics and (not args.trace or name.startswith(own))
    ]
    if unknown or missing:
        raise RuntimeError(f"undeclared metrics {unknown}; unmeasured {missing}")
    metrics = {
        m["name"]: {
            "value": float(outcome.metrics.get(m["name"], 0.0)),
            "unit": m["unit"],
        }
        for m in declared
    }
    env = environment()
    print(header(env))
    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: {outcome.attempted} samples, {outcome.failed} failed"
    )
    for name, metric in metrics.items():
        print(f"#   {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    for note in outcome.notes:
        print(f"# {note}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if args.out:
        report = json.dumps({"env": env, **result}, indent=2)
        pathlib.Path(args.out).write_text(report + "\n")
    print(json.dumps(result))
    return 0 if outcome.correct and outcome.failed == 0 else 1


def child(args, name: str, seed: int, trace: int):
    """One run in a fresh subprocess; returns ``(exit code, result or None)``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name]
    cmd += ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    cmd += ["--smoke"] if args.smoke else []
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    for line in lines if result is None else lines[:-1]:
        if not line.startswith("# nproc="):
            print(line)
    if result is None:
        sys.stderr.write(proc.stderr)
        return proc.returncode or 1, None
    return proc.returncode, result


def spread(series: list, bound) -> dict:
    """Median, quartiles, spread (max/min - 1) and the interquartile range
    as a share of the median, next to the metric's bound."""
    median = statistics.median(series)
    q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else [median] * 3
    low = min(series)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": max(series) / low - 1 if low > 0 else 0.0,
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "bound": bound,
        "n": len(series),
    }


def run_all(args, spec: dict) -> int:
    env = environment()
    print(header(env))
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    traces = (0, 1) if args.trace else (0,)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, status = [], 0
    for rep in range(args.repeat):
        seed = args.seed + rep
        for name in names if rep % 2 == 0 else names[::-1]:
            for trace in traces:
                code, result = child(args, name, seed, trace)
                status = max(status, code)
                runs.append(
                    {"workload": name, "seed": seed, "trace": trace, "result": result}
                )
    summary: dict = {}
    for name in names:
        for trace in traces:
            results = [
                r["result"]
                for r in runs
                if r["workload"] == name and r["trace"] == trace
            ]
            done = [r for r in results if r is not None]
            attempted = sum(r["attempted"] for r in done)
            failed = sum(r["failed"] for r in done)
            print(
                f"\n{name} ({'per layer' if trace else 'end to end'}): "
                f"{len(results)} run(s), {attempted} samples, "
                f"failed_share {failed / max(attempted, 1):.3g}"
            )
            print(
                f"  {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} "
                f"{'spread':>8} {'iqr/med':>8} bound"
            )
            for metric in done[0]["metrics"] if done else ():
                series = [r["metrics"][metric]["value"] for r in done]
                row = spread(series, bounds.get(metric))
                summary.setdefault(name, {})[metric] = row
                bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
                print(
                    f"  {metric:<32} {row['median']:>12.5g} {row['q1']:>12.5g} "
                    f"{row['q3']:>12.5g} {row['spread']:>8.3f} "
                    f"{row['iqr_share']:>8.3f} {bound}"
                )
    if args.out:
        report = {"env": env, "seconds": args.seconds, "runs": runs, "summary": summary}
        pathlib.Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print("\nresult: " + ("all answers correct" if status == 0 else "FAILED"))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="timed length of one run")
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="report the per-layer metrics of a traced run",
    )
    parser.add_argument("--repeat", type=int, help="runs per workload")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (self-test)")
    parser.add_argument("--out", help="also write the results as JSON to this file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; choose from {known}")
    if args.seconds is None:
        args.seconds = 0.4 if args.smoke else float(spec["run_seconds"])
    if args.workload and args.repeat is None:
        return run_one(args, spec)
    args.repeat = args.repeat or 1
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
