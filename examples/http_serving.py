#!/usr/bin/env python
"""Serving a mode base over HTTP with group-commit flushing.

The in-process :class:`QueryEngine` (see ``serving_queries.py``)
coalesces queries into one distributed GEMM per flush — but its callers
must share the producing process.  :mod:`repro.net` lifts the same
engine behind an asyncio HTTP frontend so any client that can speak
JSON-over-HTTP can query a published basis:

1. stream a Burgers record and **publish** the basis into a
   :class:`ModeBaseStore`;
2. start a :class:`NetServer` on an ephemeral port (group commit): a
   submit that reaches an idle engine flushes in its own engine call
   and answers with its result, queries that arrive while the engine is
   busy ride the flush the event loop posts as soon as it goes idle, so
   a lone query never waits for the micro-batch watermark and
   ``flush_deadline_ms`` is only an SLO whose misses are counted, and a
   keyed result cache answers repeated payloads at submit time;
3. drive it with :class:`ServingClient` — submit returns the result or
   a job ticket, ``GET /v1/jobs/{id}?wait=`` long-polls a pending one —
   behind per-tenant API-key auth, and verify every answer against the
   in-process engine.

Run:  python examples/http_serving.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.api import (
    BackendConfig,
    RunConfig,
    ServingConfig,
    Session,
    SolverConfig,
    StreamConfig,
    TenantSpec,
)
from repro.data.burgers import BurgersProblem
from repro.net import ServingClient, start_in_thread
from repro.serving import ModeBaseStore

NX, NT, K, BATCH = 512, 120, 6, 40
N_QUERIES = 8


def main() -> None:
    data = BurgersProblem(nx=NX, nt=NT).snapshot_matrix()
    run_cfg = RunConfig(
        solver=SolverConfig(K=K, ff=1.0),
        backend=BackendConfig(name="self"),
        stream=StreamConfig(batch=BATCH),
    )

    with tempfile.TemporaryDirectory() as tmp:
        store = ModeBaseStore(Path(tmp) / "bases")

        # ---- produce: stream the record, publish the basis ------------
        with Session(run_cfg) as session:
            version = session.fit_stream(data).export_to_store(
                store, "burgers"
            )
        print(f"published 'burgers' v{version} into the store")

        # ---- serve: HTTP frontend with a 25 ms flush SLO --------------
        cfg = run_cfg.replace(
            serving=ServingConfig(
                port=0,  # ephemeral
                flush_deadline_ms=25.0,
                max_batch=32,
                result_cache_entries=64,
                tenants=(TenantSpec(name="demo", key="demo-key"),),
            )
        )
        rng = np.random.default_rng(7)
        snapshots = [
            data[:, rng.integers(0, NT, size=3)] for _ in range(N_QUERIES)
        ]

        with start_in_thread(store, cfg) as handle:
            print(f"serving on {handle.url} (tenant auth enabled)")
            with ServingClient.from_url(handle.url) as anon:
                status, _ = anon.request_raw(
                    "POST",
                    "/v1/query",
                    {"basis": "burgers", "payload": [[0.0]]},
                )
                print(f"unkeyed submit rejected with HTTP {status}")
                assert status == 401

            with ServingClient.from_url(
                handle.url, api_key="demo-key"
            ) as client:
                jobs = [
                    client.submit("burgers", q, kind="project")
                    for q in snapshots
                ]
                answers = [client.result(job, wait=10.0) for job in jobs]

                # Replaying an identical payload hits the result cache:
                # the submit itself comes back `done`, no flush needed.
                replay = client.submit("burgers", snapshots[0])
                print(
                    f"replayed payload answered at submit: "
                    f"status={replay['status']} cached={replay['cached']}"
                )
                assert replay["cached"] is True

                stats = client.metrics()["engine"]
                health_status, health = client.healthz()

        # ---- verify against the in-process engine ---------------------
        with Session(run_cfg) as session:
            engine = session.query_engine(store)
            expected = [engine.project("burgers", q) for q in snapshots]
        worst = max(
            float(np.max(np.abs(np.asarray(got) - want)))
            for got, want in zip(answers, expected)
        )
        print(
            f"served {len(answers)} queries in {stats['flushes']} "
            f"flush(es), {stats['deadline_flushes']} past the SLO; "
            f"healthz {health_status} ({health['status']})"
        )
        print(f"HTTP answers match in-process engine: worst |Δ| {worst:.3e}")
        assert worst < 1e-10
        assert health_status == 200


if __name__ == "__main__":
    main()
