"""Recovery overhead: fault-free streaming vs crash + restart + replay.

A seeded single-rank crash mid-stream forces ``Session.run`` (with a
``RestartPolicy``) to tear the SPMD world down, rebuild it and replay
from the last auto-checkpoint.  This bench times both lanes over the
same synthetic stream and reports the recovery tax: extra wall time,
restarts taken and batches replayed — while asserting the recovered
results match the fault-free ones exactly (the recovery contract).

Expected shape: recovery costs roughly one backoff plus the replayed
prefix; the recovered singular values and modes are bit-identical to
the uninterrupted run, so the overhead buys fault tolerance, not a
different answer.

A third lane runs the same crash under ``RestartPolicy(mode="live")``:
the health monitor declares the crashed rank dead and the world shrinks
in place — rebuilt from the latest in-memory snapshot, rows
re-partitioned, the batches since that snapshot re-fed.  No restart,
zero replayed batches, same 1e-12 answer; the live tax is the rebuild
instead of the replayed prefix.

Artifacts: ``chaos_recovery.json`` (timings + counters) and
``chaos_recovery.txt`` (table).
"""

import json
import time

import numpy as np

from conftest import emit
from repro.api import (
    BackendConfig,
    FaultConfig,
    FaultSpec,
    HealthConfig,
    ObservabilityConfig,
    RestartPolicy,
    RunConfig,
    Session,
    SolverConfig,
    StreamConfig,
)
from repro.obs import runtime as obs_rt
from repro.postprocessing.report import format_table

NDOF, NT, BATCH, K, RANKS = 512, 96, 8, 8, 4
# Mid-stream comm-op ordinal on the victim rank.  Both lanes capture a
# snapshot (one gatherv_rows + barrier per rank) after every batch, so
# they share one op census and the same ordinal fires at the same step.
CRASH_AT = 40


def make_stream():
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, 1.0, NDOF)
    t = np.linspace(0.0, 1.0, NT)
    basis = np.column_stack([np.sin((i + 1) * np.pi * x) for i in range(6)])
    weights = np.column_stack(
        [np.cos((i + 1) * 2.0 * np.pi * t) / (i + 1.0) for i in range(6)]
    )
    return basis @ weights.T + 0.01 * rng.standard_normal((NDOF, NT))


DATA = make_stream()


def job(session):
    result = session.fit_stream(DATA).result()
    return result.singular_values, result.modes


def base_config():
    return RunConfig(
        solver=SolverConfig(K=K, ff=0.95, qr_variant="gather"),
        backend=BackendConfig(name="threads", size=RANKS, timeout=30.0),
        stream=StreamConfig(batch=BATCH),
        obs=ObservabilityConfig(metrics=True),
    )


def run_fault_free():
    start = time.perf_counter()
    results = Session.run(base_config(), job)
    return time.perf_counter() - start, results


def run_with_crash():
    cfg = base_config().replace(
        faults=FaultConfig(
            enabled=True,
            seed=1234,
            schedule=(FaultSpec(kind="crash", rank=1, op="*", at=CRASH_AT),),
        )
    )
    policy = RestartPolicy(max_restarts=2, backoff_s=0.01, checkpoint_every=1)
    obs_rt.reset()
    start = time.perf_counter()
    results = Session.run(cfg, job, restart_policy=policy)
    elapsed = time.perf_counter() - start
    counters = obs_rt.default_registry().snapshot()["counters"]

    def count(name):
        meter = counters.get(name)
        return int(meter["value"]) if meter else 0

    return elapsed, results, {
        "restarts": count("repro.recovery.restarts"),
        "replayed_batches": count("repro.recovery.replayed_batches"),
        "injected_crashes": count("repro.faults.injected.crash"),
    }


def run_with_live_crash():
    cfg = base_config().replace(
        faults=FaultConfig(
            enabled=True,
            seed=1234,
            schedule=(FaultSpec(kind="crash", rank=1, op="*", at=CRASH_AT),),
        ),
        health=HealthConfig(
            enabled=True, heartbeat_interval=0.01, suspect_after=0.1
        ),
    )
    policy = RestartPolicy(
        mode="live", max_restarts=2, checkpoint_every=1, min_size=2
    )
    obs_rt.reset()
    start = time.perf_counter()
    results = Session.run(cfg, job, restart_policy=policy)
    elapsed = time.perf_counter() - start
    counters = obs_rt.default_registry().snapshot()["counters"]

    def count(name):
        meter = counters.get(name)
        return int(meter["value"]) if meter else 0

    return elapsed, results, {
        "live_rescales": count("repro.recovery.live_rescales"),
        "live_replayed_batches": count("repro.recovery.replayed_batches"),
        "live_injected_crashes": count("repro.faults.injected.crash"),
    }


def test_chaos_recovery_overhead(benchmark, artifacts_dir):
    clean_s, clean = run_fault_free()
    chaos_s, recovered, counters = run_with_crash()
    live_s, live, live_counters = run_with_live_crash()

    # The recovery contract: same answer, despite the crash.
    assert counters["injected_crashes"] >= 1
    assert counters["restarts"] >= 1
    for (rsv, rmodes), (csv, cmodes) in zip(recovered, clean):
        assert float(np.max(np.abs(rsv - csv))) < 1e-12
        assert float(np.max(np.abs(np.abs(rmodes) - np.abs(cmodes)))) < 1e-12

    # The live-elasticity contract: same answer again, but via in-place
    # shrink — no restart, no stream replay.
    assert live_counters["live_injected_crashes"] >= 1
    assert live_counters["live_rescales"] >= 1
    assert live_counters["live_replayed_batches"] == 0
    for (rsv, rmodes), (csv, cmodes) in zip(live, clean):
        assert float(np.max(np.abs(rsv - csv))) < 1e-12
        assert float(np.max(np.abs(np.abs(rmodes) - np.abs(cmodes)))) < 1e-12

    benchmark(lambda: run_with_crash())

    overhead = chaos_s / max(clean_s, 1e-9)
    live_overhead = live_s / max(clean_s, 1e-9)
    payload = {
        "bench": "chaos_recovery",
        "ndof": NDOF,
        "nt": NT,
        "batch": BATCH,
        "modes": K,
        "ranks": RANKS,
        "backend": "threads",
        "crash_at": CRASH_AT,
        "fault_free_s": clean_s,
        "recovered_s": chaos_s,
        "live_rescaled_s": live_s,
        "overhead_x": overhead,
        "live_overhead_x": live_overhead,
        **counters,
        **live_counters,
    }
    (artifacts_dir / "chaos_recovery.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    emit(
        artifacts_dir,
        "chaos_recovery.txt",
        f"Crash + restart recovery tax ({NDOF}x{NT} stream, K={K}, "
        f"{RANKS} ranks, crash at op #{CRASH_AT})\n"
        + format_table(
            ["lane", "wall_s", "restarts", "rescales", "replayed_batches"],
            [
                ["fault-free", f"{clean_s:.3f}", 0, 0, 0],
                [
                    "crash+recover",
                    f"{chaos_s:.3f}",
                    counters["restarts"],
                    0,
                    counters["replayed_batches"],
                ],
                [
                    "crash+live-shrink",
                    f"{live_s:.3f}",
                    0,
                    live_counters["live_rescales"],
                    live_counters["live_replayed_batches"],
                ],
            ],
        )
        + f"\noverhead: restart {overhead:.2f}x, live {live_overhead:.2f}x",
    )
