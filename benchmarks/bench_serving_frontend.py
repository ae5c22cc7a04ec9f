"""HTTP serving-frontend load bench: queries/sec vs concurrency, p50/p99.

Drives a live :class:`repro.net.NetServer` over real sockets with
concurrent closed-loop clients (one :class:`ServingClient` per worker
thread — the underlying ``http.client`` connection is not thread-safe)
and measures, per concurrency level, submit-to-result round-trip
latency percentiles and queries/sec.  A second, pipelined phase submits
a burst of unique queries, collects them, then replays the identical
payloads to exercise the keyed result cache: the replay must hit on
every query (fulfilled at submit, no GEMM, no flush).

Emits ``BENCH_serving_frontend.json``.  The committed copy at the repo
root is the regression baseline; ``check_against_baseline`` gates only
machine-independent quantities:

* ``cache_hit_ratio`` — the replay phase must hit on (essentially)
  every query; a drop means the cache key or eviction policy broke;
* ``batching_ratio`` — queries coalesced per flush in the pipelined
  burst (the server commits groups: queries that arrive while the
  engine is busy ride its next flush); a collapse means the
  watermark/group-commit flushing degenerated into per-query flushes;
* ``cache_speedup`` — cached vs uncached pipelined throughput, measured
  back-to-back in one run so machine speed cancels; gated with a wide
  floor because the cached phase is pure HTTP overhead;
* zero transport/validation errors anywhere.

Raw qps and latency percentiles are recorded for trending but never
gated — they are machine-dependent.

Modes::

    pytest bench_serving_frontend.py --benchmark-disable   # full bench
    REPRO_BENCH_SMOKE=1 python bench_serving_frontend.py \
        --drive http://127.0.0.1:8080 out.json             # CI smoke vs URL
    python bench_serving_frontend.py artifacts/X.json ../X.json  # gate
"""

import json
import os
import pathlib
import threading
import time

import numpy as np

from conftest import emit
from repro.analysis.reconstruction import project_coefficients
from repro.api import BackendConfig, RunConfig, ServingConfig, SolverConfig
from repro.net import ServingClient, start_in_thread
from repro.postprocessing.report import format_table
from repro.serving import ModeBaseStore

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: --drive mode can point at any server; the served basis name and its
#: row count then come from the environment (the in-process bench
#: publishes its own).
BASIS = os.environ.get("REPRO_BENCH_BASIS", "bench")
NDOF = int(os.environ.get("REPRO_BENCH_NDOF", "256"))
K = 6
FLUSH_DEADLINE_MS = 20.0
MAX_BATCH = 16
CONCURRENCY = (1, 2) if SMOKE else (1, 4, 8)
N_PER_WORKER = 6 if SMOKE else 24
PIPELINE_WORKERS = 2 if SMOKE else 8
PIPELINE_PER_WORKER = 4 if SMOKE else 12


def publish_basis(tmpdir):
    rng = np.random.default_rng(17)
    u, _ = np.linalg.qr(rng.standard_normal((NDOF, K)))
    store = ModeBaseStore(tmpdir)
    store.publish("bench", u, np.linspace(1.0, 0.1, K))
    return store, u


def run_workers(n, body):
    """Run ``body(worker_index)`` on n threads; re-raise the first error."""
    errors = []

    def wrap(i):
        try:
            body(i)
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def closed_loop_cell(url, concurrency, n_per_worker, seed):
    """Each worker submits one query and long-polls its result before
    submitting the next.  Returns the cell record with p50/p99 latency
    (ms) and aggregate queries/sec."""
    latencies = [[] for _ in range(concurrency)]
    failures = [0] * concurrency

    def body(i):
        rng = np.random.default_rng(seed + i)
        with ServingClient.from_url(url) as client:
            for _ in range(n_per_worker):
                payload = rng.standard_normal((NDOF, 1))
                t0 = time.perf_counter()
                try:
                    client.result(
                        client.submit(BASIS, payload), wait=30.0
                    )
                except Exception:  # noqa: BLE001 — counted, then gated
                    failures[i] += 1
                    continue
                latencies[i].append(time.perf_counter() - t0)

    start = time.perf_counter()
    run_workers(concurrency, body)
    elapsed = time.perf_counter() - start
    flat = np.array([lat for per in latencies for lat in per])
    n_ok = int(flat.size)
    return {
        "concurrency": concurrency,
        "queries": concurrency * n_per_worker,
        "completed": n_ok,
        "errors": int(sum(failures)),
        "queries_per_s": n_ok / max(elapsed, 1e-9),
        "p50_ms": float(np.percentile(flat, 50)) * 1e3 if n_ok else None,
        "p99_ms": float(np.percentile(flat, 99)) * 1e3 if n_ok else None,
    }


def pipelined_phase(url, metrics_of):
    """Burst-submit unique payloads, collect, then replay them verbatim.

    Phase 1 (uncached): every worker submits its whole query log before
    collecting any result, so the server coalesces the backlog into
    watermark-sized flushes.  Phase 2 (cached): the identical payloads
    again — each submit must come back ``done`` from the result cache.
    Returns the phase record with the three gated ratios.
    """
    n = PIPELINE_WORKERS
    payloads = [
        [
            np.random.default_rng(1000 + 100 * i + j).standard_normal(
                (NDOF, 1)
            )
            for j in range(PIPELINE_PER_WORKER)
        ]
        for i in range(n)
    ]
    results = [[None] * PIPELINE_PER_WORKER for _ in range(n)]

    def uncached(i):
        with ServingClient.from_url(url) as client:
            jobs = [client.submit(BASIS, p) for p in payloads[i]]
            for j, job in enumerate(jobs):
                results[i][j] = client.result(job, wait=30.0)

    cached_hits = [0] * n

    def cached(i):
        with ServingClient.from_url(url) as client:
            for j, p in enumerate(payloads[i]):
                reply = client.submit(BASIS, p)
                if reply["status"] == "done" and reply.get("cached"):
                    cached_hits[i] += 1
                got = client.result(reply, wait=30.0)
                assert np.array_equal(np.asarray(got), results[i][j])

    before = metrics_of()
    start = time.perf_counter()
    run_workers(n, uncached)
    uncached_s = time.perf_counter() - start
    mid = metrics_of()
    start = time.perf_counter()
    run_workers(n, cached)
    cached_s = time.perf_counter() - start
    after = metrics_of()

    total = n * PIPELINE_PER_WORKER
    flushes = mid["engine"]["flushes"] - before["engine"]["flushes"]
    replay_hits = (
        after["engine"]["result_cache_hits"]
        - mid["engine"]["result_cache_hits"]
    )
    uncached_qps = total / max(uncached_s, 1e-9)
    cached_qps = total / max(cached_s, 1e-9)
    return {
        "concurrency": n,
        "queries": total,
        "uncached_qps": uncached_qps,
        "cached_qps": cached_qps,
        "cache_speedup": cached_qps / max(uncached_qps, 1e-9),
        "cache_hit_ratio": sum(cached_hits) / total,
        "server_cache_hits": replay_hits,
        "flushes": flushes,
        "batching_ratio": total / max(flushes, 1),
        "errors": after["server"]["errors"] - before["server"]["errors"],
    }, payloads, results


def drive(url):
    """Run the whole load suite against a live server at ``url``.

    Shared by the in-process pytest bench and the CI ``serve-smoke`` job
    (``--drive http://... out.json``), which points it at a separately
    launched ``repro serve`` process.
    """
    probe = ServingClient.from_url(url)
    try:
        health_status, health = probe.healthz()
        metrics = probe.metrics()
        assert "engine" in metrics and "registry" in metrics, sorted(metrics)

        cells = [
            closed_loop_cell(url, c, N_PER_WORKER, seed=7 * (1 + c))
            for c in CONCURRENCY
        ]
        pipeline, payloads, results = pipelined_phase(url, probe.metrics)
        final = probe.metrics()
    finally:
        probe.close()

    return {
        "bench": "serving_frontend",
        "smoke": SMOKE,
        "ndof": NDOF,
        "K": K,
        "flush_deadline_ms": FLUSH_DEADLINE_MS,
        "max_batch": MAX_BATCH,
        "healthz": {"status": health_status, "state": health.get("status")},
        "closed_loop": cells,
        "pipelined": pipeline,
        "engine_totals": {
            key: final["engine"][key]
            for key in (
                "queries",
                "flushes",
                "deadline_flushes",
                "result_cache_hits",
                "result_cache_misses",
            )
        },
    }, payloads, results


def render(payload):
    rows = [
        [
            cell["concurrency"],
            cell["queries"],
            f"{cell['queries_per_s']:.0f}",
            f"{cell['p50_ms']:.1f}",
            f"{cell['p99_ms']:.1f}",
            cell["errors"],
        ]
        for cell in payload["closed_loop"]
    ]
    pipe = payload["pipelined"]
    return (
        f"HTTP serving frontend (ndof={payload['ndof']}, K={payload['K']}, "
        f"deadline={payload['flush_deadline_ms']}ms, "
        f"max_batch={payload['max_batch']})\n"
        + format_table(
            ["clients", "queries", "qps", "p50 ms", "p99 ms", "errors"],
            rows,
        )
        + (
            f"\npipelined x{pipe['concurrency']}: "
            f"uncached {pipe['uncached_qps']:.0f} qps over "
            f"{pipe['flushes']} flushes "
            f"({pipe['batching_ratio']:.1f} queries/flush), "
            f"replay {pipe['cached_qps']:.0f} qps with "
            f"{pipe['cache_hit_ratio']:.0%} cache hits "
            f"({pipe['cache_speedup']:.1f}x)"
        )
    )


def test_serving_frontend(benchmark, artifacts_dir, tmp_path):
    store, modes = publish_basis(tmp_path / "store")
    cfg = RunConfig(
        solver=SolverConfig(K=K, ff=1.0),
        backend=BackendConfig(name="self"),
        serving=ServingConfig(
            port=0,
            flush_deadline_ms=FLUSH_DEADLINE_MS,
            max_batch=MAX_BATCH,
            result_cache_entries=1024,
        ),
    )
    handle = start_in_thread(store, cfg)
    try:
        payload, pipeline_payloads, pipeline_results = drive(handle.url)

        # Correctness: the HTTP answers of the pipelined burst match the
        # serial projection reference to 1e-10.
        worst = max(
            float(
                np.max(
                    np.abs(
                        np.asarray(got) - project_coefficients(modes, sent)
                    )
                )
            )
            for sent_log, got_log in zip(pipeline_payloads, pipeline_results)
            for sent, got in zip(sent_log, got_log)
        )
        assert worst < 1e-10, worst

        # Timed kernel for pytest-benchmark: one closed-loop client.
        with ServingClient.from_url(handle.url) as client:
            query = np.random.default_rng(5).standard_normal((NDOF, 1))
            benchmark(
                lambda: client.result(client.submit(BASIS, query), wait=30.0)
            )
    finally:
        handle.stop()

    (artifacts_dir / "BENCH_serving_frontend.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    emit(artifacts_dir, "serving_frontend.txt", render(payload))

    # In-bench canaries (catastrophic only; the precise ratios are gated
    # by check_against_baseline vs the committed repo-root baseline).
    assert payload["healthz"]["status"] == 200
    pipe = payload["pipelined"]
    assert pipe["cache_hit_ratio"] > 0.999
    assert pipe["errors"] == 0
    for cell in payload["closed_loop"]:
        assert cell["errors"] == 0
        assert cell["p99_ms"] < 5000.0


def check_against_baseline(artifact_path, baseline_path):
    """Fail (exit 1) on serving-frontend regressions vs the baseline.

    Only machine-independent quantities are gated — see module docstring.
    """
    artifact = json.loads(pathlib.Path(artifact_path).read_text())
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    pipe, base = artifact["pipelined"], baseline["pipelined"]
    failures = []

    print(f"serving-frontend cache_hit_ratio: {pipe['cache_hit_ratio']:.3f}")
    if pipe["cache_hit_ratio"] < 0.999:
        failures.append(
            f"result-cache regression: replay hit ratio "
            f"{pipe['cache_hit_ratio']:.3f} < 1.0"
        )

    floor = base["batching_ratio"] * 0.5
    print(
        f"serving-frontend batching_ratio: measured "
        f"{pipe['batching_ratio']:.1f}, baseline requires >= {floor:.1f}"
    )
    if pipe["batching_ratio"] < floor:
        failures.append(
            f"coalescing regression: {pipe['batching_ratio']:.1f} "
            f"queries/flush fell below half of baseline "
            f"{base['batching_ratio']:.1f}"
        )

    # Both pipelined phases are HTTP-round-trip dominated, so the
    # speedup hovers near 1; this is a catastrophic-only canary (a
    # broken cached path that re-queues hits would send the replay
    # through the flushes again and crater the ratio).  The functional
    # cache contract is the hit-ratio gate above.
    floor = base["cache_speedup"] * 0.3
    print(
        f"serving-frontend cache_speedup: measured "
        f"{pipe['cache_speedup']:.2f}, baseline requires >= {floor:.2f}"
    )
    if pipe["cache_speedup"] < floor:
        failures.append(
            f"cached-path regression: replay speedup "
            f"{pipe['cache_speedup']:.2f} below floor {floor:.2f} "
            f"(baseline {base['cache_speedup']:.2f})"
        )

    errors = pipe["errors"] + sum(c["errors"] for c in artifact["closed_loop"])
    if errors:
        failures.append(f"{errors} request(s) failed during the load run")

    if failures:
        raise SystemExit(
            "serving-frontend regression gate: " + "; ".join(failures)
        )


def main(argv):
    if argv and argv[0] == "--drive":
        url, out = argv[1], argv[2]
        payload, _, _ = drive(url)
        pathlib.Path(out).write_text(json.dumps(payload, indent=2) + "\n")
        print(render(payload))
        pipe = payload["pipelined"]
        if pipe["errors"] or pipe["cache_hit_ratio"] < 0.999:
            raise SystemExit("serve smoke: errors or cache misses on replay")
        if any(c["errors"] for c in payload["closed_loop"]):
            raise SystemExit("serve smoke: closed-loop request failures")
        print(f"serve smoke OK -> {out}")
        return
    check_against_baseline(*argv)


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
