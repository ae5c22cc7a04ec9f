"""The benchmark's four workloads, their correctness oracles and layers.

Two end-to-end paths, two workloads on each:

* one streaming step, ``Session.incorporate_data`` timed on rank 0:
  ``stream-1rank`` and ``stream-2rank``;
* one HTTP query over a socket to ``repro.net``, timed by the client from
  sending the submit to receiving the result: ``query-interactive`` and
  ``query-bulk``.

A run makes its inputs from the seed, sets up several times (the median
is ``setup_s``), runs a time-bounded loop, then checks every answer
against a numpy reference.  A traced run measures an untraced quarter, a
traced half and another untraced quarter: the per-layer metrics come
from the traced half, and the difference of its median latency from the
quarters' is the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import tempfile
import threading
import time
import tracemalloc
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api import BackendConfig, RunConfig, ServingConfig, Session, SolverConfig
from repro.exceptions import ServingError
from repro.net import ServingClient, ServingHTTPError, start_in_thread
from repro.obs import validate_chrome_trace
from repro.serving import ModeBaseStore
from repro.utils.partition import block_partition

from spans import SpanRecorder

K = 10
#: Streams are rank-8 signal plus noise; the oracle checks the signal part.
SIGNAL_RANK = 8
NOISE = 1e-6
#: Batches in a stream's seeded pool.  The stream cycles through the pool
#: and stops only at the end of a cycle, so at ff=1 the exact answer is
#: the pool's SVD with singular values scaled by sqrt(cycles).
POOL = 16
TOLERANCE = 1e-10
SETUPS = 5
WARMUP = 20
#: Steps measured under tracemalloc for core.alloc_bytes_per_step.
ALLOC_STEPS = 16
BASIS = "bench"
SPECTRUM = np.linspace(1.0, 0.1, K)
#: query-bulk: submits sent before any answer is collected, the version
#: publish cadence, and the share of payloads that repeat an earlier one.
WINDOW = 64
PUBLISH_EVERY = 200
REPEAT_SHARE = 0.4
SERVING = RunConfig(backend=BackendConfig(name="self"), serving=ServingConfig(port=0))


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    path: str  # "stream", "interactive" or "bulk"
    n_dof: int
    backend: str = "self"
    ranks: int = 1
    batch: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stream-1rank", "stream", 16384, "self", 1, 20),
        Workload("stream-2rank", "stream", 2048, "threads", 2, 5),
        Workload("query-interactive", "interactive", 1024),
        Workload("query-bulk", "bulk", 8192),
    )
}


@dataclasses.dataclass
class Outcome:
    """What one run reports.  ``correct`` is whether every answer matched
    its reference; ``failed`` counts the ops that either failed or
    answered wrong, out of ``attempted``."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    notes: List[str]


def _percentile_ms(samples: List[float], q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3


def _end_to_end(
    samples: List[float], marks: List[Tuple[float, int]], setups: List[float]
) -> Dict[str, float]:
    """``marks`` are ``(time, ops done)`` at the boundaries of the timed
    loop's chunks (a pool cycle, a query, a query window); ``ops_per_s``
    is the median chunk rate, so a stall costs it no more than it costs
    ``p50_ms``."""
    rates = [
        (n1 - n0) / (t1 - t0) for (t0, n0), (t1, n1) in zip(marks, marks[1:]) if n1 > n0
    ]
    return {
        "ops_per_s": statistics.median(rates),
        "p50_ms": _percentile_ms(samples, 50),
        "p95_ms": _percentile_ms(samples, 95),
        "setup_s": statistics.median(setups),
    }


def _oracle_note(worst: float) -> str:
    return f"oracle: max relative error {worst:.2e} (tolerance {TOLERANCE:g})"


def _write_trace(payload: dict, work_dir, name: str, seed: int) -> str:
    validate_chrome_trace(payload)
    path = work_dir / f"{name}-seed{seed}.trace.json"
    path.write_text(json.dumps(payload))
    return str(path)


# -- streaming step ---------------------------------------------------------


class Lockstep:
    """Rank coordination kept out of the program: a threading barrier, not
    the communicator, so it adds no smpi traffic.  Its first crossing ends
    set-up; later crossings, one per pool cycle, decide whether the timed
    loop has run ``seconds`` (``None``: set-up only).  ``marks`` holds
    ``(time, step)`` at every crossing."""

    def __init__(self, ranks: int, seconds: Optional[float]) -> None:
        self.seconds = seconds
        self.stop = False
        self.marks: List[Tuple[float, int]] = []
        self._step = 0
        self._barrier = threading.Barrier(ranks, action=self._decide, timeout=120.0)

    def _decide(self) -> None:
        now = time.perf_counter()
        if self.marks and now - self.marks[0][0] >= self.seconds:
            self.stop = True
        self.marks.append((now, self._step))

    def wait(self, step: int) -> None:
        # Every rank is at the same step here.
        self._step = step
        self._barrier.wait()


def _stream_job(session, blocks, lockstep, warmup, latencies, threads):
    rank = session.comm.rank
    threads[threading.get_ident()] = rank
    mine = blocks[rank]
    session.initialize(mine[0])
    step = 1
    for _ in range(warmup):
        session.incorporate_data(mine[step % POOL])
        step += 1
    lockstep.wait(step)
    if lockstep.seconds is None:
        return step, None
    while True:
        if step % POOL == 0:
            lockstep.wait(step)
            if lockstep.stop:
                break
        t0 = time.perf_counter()
        session.incorporate_data(mine[step % POOL])
        if rank == 0:
            latencies.append(time.perf_counter() - t0)
        step += 1
    return step, session.result()


def _alloc_job(session, blocks, fence, steps, out):
    """Barrier-fenced steps under tracemalloc: the in-process ranks share
    one heap, so rank 0's window sees every rank's allocations."""
    rank = session.comm.rank
    mine = blocks[rank]
    session.initialize(mine[0])
    for step in range(1, POOL):  # fill the workspace before measuring
        session.incorporate_data(mine[step])
    before = 0
    for step in range(steps):
        fence.wait()
        if rank == 0:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
        fence.wait()
        session.incorporate_data(mine[step % POOL])
        fence.wait()
        if rank == 0:
            out.append(tracemalloc.get_traced_memory()[1] - before)


@dataclasses.dataclass
class _StreamPass:
    setup_s: float
    latencies: List[float] = dataclasses.field(default_factory=list)
    error: float = 0.0
    lockstep: Any = None
    threads: Dict[int, int] = dataclasses.field(default_factory=dict)
    tracers: Any = None


def _qr_flops(_state, args, _result) -> dict:
    """Computed flops of an economy Householder QR that also forms Q."""
    m, n = args[0].shape
    n = min(m, n)
    return {"flops": 4.0 * m * n * n - 4.0 * n**3 / 3.0}


def _run_stream(w, rng, seconds, trace, setups, warmup, work_dir, seed) -> Outcome:
    cols = POOL * w.batch
    pool = rng.standard_normal((w.n_dof, SIGNAL_RANK)) @ rng.standard_normal(
        (SIGNAL_RANK, cols)
    ) + NOISE * rng.standard_normal((w.n_dof, cols))
    part = block_partition(w.n_dof, w.ranks)
    blocks = [
        [
            np.ascontiguousarray(rows[:, j * w.batch : (j + 1) * w.batch])
            for j in range(POOL)
        ]
        for rows in (pool[part.slice_of(r)] for r in range(w.ranks))
    ]
    ref_u, ref_s, _ = np.linalg.svd(pool, full_matrices=False)
    ref_u, ref_s = ref_u[:, :SIGNAL_RANK], ref_s[:SIGNAL_RANK]
    cfg = RunConfig(
        solver=SolverConfig(K=K, ff=1.0),
        backend=BackendConfig(name=w.backend, size=w.ranks),
    )

    def once(seconds: Optional[float], traced: bool = False) -> _StreamPass:
        lockstep = Lockstep(w.ranks, seconds)
        latencies: List[float] = []
        threads: Dict[int, int] = {}
        t_call = time.perf_counter()
        out = Session.run(
            cfg, _stream_job, blocks, lockstep, warmup, latencies, threads, trace=traced
        )
        results, tracers = out if traced else (out, None)
        done = _StreamPass(lockstep.marks[0][0] - t_call)
        if seconds is None:
            return done
        steps, result = results[0]
        # At ff=1 the stream is exactly the pool repeated `cycles` times.
        expected = np.sqrt(steps // POOL) * ref_s
        sigma = result.singular_values[:SIGNAL_RANK]
        sigma_error = np.max(np.abs(sigma - expected) / expected)
        modes = result.modes[:, :SIGNAL_RANK]
        # Sine of the largest principal angle to the pool's left vectors.
        angle = np.linalg.norm(ref_u - modes @ (modes.T @ ref_u), 2)
        done.latencies, done.lockstep = latencies, lockstep
        done.error = float(max(sigma_error, angle))
        done.threads, done.tracers = threads, tracers
        return done

    def correct(*passes: _StreamPass) -> bool:
        return all(p.error <= TOLERANCE for p in passes)

    def failed(p: _StreamPass) -> int:
        # A wrong final basis makes every step that built it a failure.
        return 0 if correct(p) else len(p.latencies)

    if not trace:
        spare = [once(None).setup_s for _ in range(setups - 1)]
        main = once(seconds)
        return Outcome(
            correct(main),
            len(main.latencies),
            failed(main),
            _end_to_end(main.latencies, main.lockstep.marks, spare + [main.setup_s]),
            [_oracle_note(main.error)],
        )

    # Untraced quarters on both sides of the traced half, so drift in the
    # machine's speed does not read as tracing overhead.
    before = once(seconds / 4)
    recorder = SpanRecorder({"linalg.qr": (None, _qr_flops)})
    with recorder:
        traced = once(seconds / 2, traced=True)
    after = once(seconds / 4)
    alloc: List[int] = []
    tracemalloc.start()
    try:
        Session.run(
            cfg, _alloc_job, blocks, threading.Barrier(w.ranks), ALLOC_STEPS, alloc
        )
    finally:
        tracemalloc.stop()
    unfired = recorder.unfired("stream")
    if unfired:
        raise RuntimeError(f"declared spans never fired on {w.name}: {unfired}")
    layers, events = _stream_layers(
        recorder, traced, before.latencies + after.latencies, alloc
    )
    path = _write_trace(
        recorder.chrome_trace(traced.threads, events), work_dir, w.name, seed
    )
    passes = (before, traced, after)
    return Outcome(
        correct(*passes),
        sum(len(p.latencies) for p in passes),
        sum(failed(p) for p in passes),
        layers,
        [_oracle_note(max(p.error for p in passes)), f"chrome trace: {path}"],
    )


def _stream_layers(rec, traced, untraced, alloc) -> Tuple[Dict[str, float], List[dict]]:
    a, b = traced.lockstep.marks[0][0], traced.lockstep.marks[-1][0]
    rank0 = next(tid for tid, rank in traced.threads.items() if rank == 0)
    steps = rec.select("core.step", tid=rank0, since=a, until=b)
    qr = rec.select("linalg.qr", tid=rank0, since=a, until=b)
    svd = rec.select("linalg.svd", tid=rank0, since=a, until=b)
    inits = rec.select("core.init", tid=rank0)
    records = [
        (rank, r)
        for rank, tracer in enumerate(traced.tracers)
        for r in tracer.records
        if a <= r.t_start <= b
    ]
    n = len(steps)
    step_s = sum(s.dur for s in steps)
    qr_s = sum(s.dur for s in qr)
    comm_s = sum(r.duration_s for rank, r in records if rank == 0)
    self_s = step_s - rec.child_time(steps, ("linalg.qr", "linalg.svd")) - comm_s
    layers = {
        "core.step_ms": step_s / n * 1e3,
        "core.self_ms": self_s / n * 1e3,
        "core.init_ms": statistics.mean(s.dur for s in inits) * 1e3,
        "core.alloc_bytes_per_step": float(statistics.mean(alloc)),
        "linalg.qr_ms": qr_s / n * 1e3,
        "linalg.qr_gflops": sum(s.info["flops"] for s in qr) / qr_s / 1e9,
        "linalg.svd_ms": sum(s.dur for s in svd) / n * 1e3,
        "smpi.calls_per_step": len(records) / n,
        "smpi.bytes_per_step": sum(r.nbytes for _, r in records) / n,
        "smpi.comm_ms": comm_s / n * 1e3,
        "smpi.comm_share": comm_s / step_s,
        "trace.overhead_share": _overhead(traced.latencies, untraced),
    }
    tid_of = {rank: tid for tid, rank in traced.threads.items()}
    events = [
        {
            "name": f"smpi.{r.op}",
            "ph": "X",
            "ts": (r.t_start - rec.epoch) * 1e6,
            "dur": r.duration_s * 1e6,
            "pid": rank,
            "tid": tid_of[rank],
            "cat": "smpi",
            "args": {"bytes": r.nbytes, "peer": r.peer},
        }
        for rank, r in records
    ]
    return layers, events


def _overhead(traced: List[float], untraced: List[float]) -> float:
    base = statistics.median(untraced)
    return (statistics.median(traced) - base) / base


# -- HTTP query -------------------------------------------------------------


class QueryMix:
    """The seeded query stream.  Interactive: unique ``project`` payloads.
    Bulk: 50% project, 25% reconstruct, 25% reconstruction_error, with
    ``REPEAT_SHARE`` of queries repeating one of the last 128 answered
    since the latest publish.  Repeating only answered queries of the
    current version makes every repeat a result-cache hit, so the work a
    run does depends on the seed alone, not on timing."""

    def __init__(self, rng, n_dof: int, bulk: bool) -> None:
        self.rng, self.n_dof, self.bulk = rng, n_dof, bulk
        self.answered: List[Tuple[str, np.ndarray]] = []
        self._sent: List[Tuple[str, np.ndarray]] = []

    def next(self) -> Tuple[str, np.ndarray]:
        rng = self.rng
        if not self.bulk:
            return "project", rng.standard_normal((self.n_dof, 1))
        if self.answered and rng.random() < REPEAT_SHARE:
            return self.answered[rng.integers(len(self.answered))]
        draw = rng.random()
        if draw < 0.5:
            kind, rows = "project", self.n_dof
        elif draw < 0.75:
            kind, rows = "reconstruct", K
        else:
            kind, rows = "reconstruction_error", self.n_dof
        item = (kind, rng.standard_normal((rows, 1)))
        self._sent.append(item)
        return item

    def settle(self) -> None:
        """The queries sent so far have been answered."""
        self.answered = (self.answered + self._sent)[-128:]
        self._sent = []

    def new_version(self) -> None:
        """A publish superseded every answer so far."""
        self.answered, self._sent = [], []


@dataclasses.dataclass
class _QueryLog:
    #: (kind, payload, version, answer, latency_s) per answered query.
    answers: List[tuple] = dataclasses.field(default_factory=list)
    failed: int = 0

    def latencies(self) -> List[float]:
        return [answer[-1] for answer in self.answers]


def _exchange(client, mix, count, log) -> None:
    """Send ``count`` submits back to back, then collect their answers.
    A non-2xx status or an unanswered job counts as a failed query."""
    sent = []
    for _ in range(count):
        kind, payload = mix.next()
        t0 = time.perf_counter()
        try:
            sent.append((kind, payload, t0, client.submit(BASIS, payload, kind=kind)))
        except ServingHTTPError:
            log.failed += 1
    for kind, payload, t0, reply in sent:
        try:
            answer = client.result(reply, wait=30.0)
        except ServingError:
            log.failed += 1
            continue
        log.answers.append(
            (kind, payload, reply["version"], answer, time.perf_counter() - t0)
        )
    mix.settle()


def _mismatches(answers, versions) -> Tuple[int, float]:
    """Answers that differ from the numpy reference for the basis version
    they report by more than ``TOLERANCE`` (relative); and the worst
    difference."""
    bad, worst = 0, 0.0
    for kind, payload, version, answer, _ in answers:
        basis = versions.get(version)
        if basis is None:
            bad += 1
            continue
        if kind == "project":
            ref = basis.T @ payload
        elif kind == "reconstruct":
            ref = basis @ payload
        else:
            residual = payload - basis @ (basis.T @ payload)
            ref = np.linalg.norm(residual) / np.linalg.norm(payload)
        ref = np.asarray(ref)
        answer = np.asarray(answer, dtype=float)
        if answer.shape != ref.shape:
            bad += 1
            continue
        scale = max(1.0, float(np.max(np.abs(ref))))
        error = float(np.max(np.abs(answer - ref))) / scale
        worst = max(worst, error)
        bad += not error <= TOLERANCE
    return bad, worst


class _Server:
    """One server life: a fresh store with version 1 published, the
    server on a background thread, one client connection, warmed up."""

    def __init__(self, bases, work_dir, mix, window, warmup) -> None:
        t0 = time.perf_counter()
        self._dir = tempfile.TemporaryDirectory(dir=work_dir)
        self.store = ModeBaseStore(self._dir.name)
        self.versions = {self.store.publish(BASIS, bases[0], SPECTRUM): bases[0]}
        mix.new_version()
        self.handle = start_in_thread(self.store, SERVING)
        self.client = ServingClient.from_url(self.handle.url)
        try:
            warm = _QueryLog()
            for start in range(0, warmup, window):
                _exchange(self.client, mix, min(window, warmup - start), warm)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def close(self) -> None:
        self.client.close()
        self.handle.stop()
        self._dir.cleanup()


@dataclasses.dataclass
class _QueryPass:
    setup_s: float
    log: _QueryLog
    #: ``(time, queries answered)`` after set-up and after every window.
    marks: List[Tuple[float, int]]
    mismatched: int
    worst: float
    before: Optional[dict] = None
    after: Optional[dict] = None


def _query_pass(w, bases, mix, seconds, work_dir, warmup, snapshot=False) -> _QueryPass:
    bulk = w.path == "bulk"
    window = WINDOW if bulk else 1
    server = _Server(bases, work_dir, mix, window, warmup)
    try:
        before = server.client.metrics() if snapshot else None
        log = _QueryLog()
        published = 0
        marks = [(time.perf_counter(), 0)]
        while marks[-1][0] - marks[0][0] < seconds:
            _exchange(server.client, mix, window, log)
            sent = len(log.answers) + log.failed
            if bulk and sent // PUBLISH_EVERY > published:
                published += 1
                basis = bases[published % len(bases)]
                server.versions[server.store.publish(BASIS, basis, SPECTRUM)] = basis
                mix.new_version()
            marks.append((time.perf_counter(), len(log.answers)))
        after = server.client.metrics() if snapshot else None
    finally:
        server.close()
    bad, worst = _mismatches(log.answers, server.versions)
    return _QueryPass(server.setup_s, log, marks, bad, worst, before, after)


class _ServingHooks:
    """Span hooks for the query path: queue wait per queued ticket, the
    tickets (later: job ids) each flush served, and body sizes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._outstanding: Dict[int, Tuple[Any, float]] = {}
        self._local = threading.local()
        self.job_of: Dict[int, str] = {}

    def submitted(self, _state, _args, ticket):
        if not ticket.done:
            with self._lock:
                self._outstanding[id(ticket)] = (ticket, time.perf_counter())
        elif not ticket.cached:
            # Tripped the size watermark: the flush nested in this submit
            # served it before the submit returned (no queue wait).
            self._local.last_flush["tickets"].append(ticket)

    def flush_entry(self, args):
        return time.perf_counter(), args[0].pending

    def flushed(self, state, _args, _served):
        entry, queued = state
        with self._lock:
            done = [key for key, (t, _) in self._outstanding.items() if t.done]
            served = [self._outstanding.pop(key) for key in done]
        info = {
            "queued": queued,
            "wait_s": sum(entry - t_return for _, t_return in served),
            "tickets": [ticket for ticket, _ in served],
        }
        self._local.last_flush = info
        return info

    def job_created(self, _state, _args, job):
        self.job_of[id(job.ticket)] = job.id

    def table(self):
        return {
            "serving.submit": (None, self.submitted),
            "serving.flush": (self.flush_entry, self.flushed),
            "net.decode": (None, lambda _s, args, _r: {"bytes": len(args[0].body)}),
            "net.encode": (None, lambda _s, _a, response: {"bytes": len(response)}),
            "net.job": (None, self.job_created),
        }


def _run_query(w, rng, seconds, trace, setups, warmup, work_dir, seed) -> Outcome:
    bulk = w.path == "bulk"
    # Bulk publishes new versions, cycling through three bases.
    bases = [
        np.linalg.qr(rng.standard_normal((w.n_dof, K)))[0]
        for _ in range(3 if bulk else 1)
    ]
    mix = QueryMix(rng, w.n_dof, bulk)

    def counts(p: _QueryPass) -> Tuple[int, int]:
        failed = p.log.failed + p.mismatched
        return len(p.log.answers) + p.log.failed, failed

    def note(*passes: _QueryPass) -> str:
        return _oracle_note(max(p.worst for p in passes))

    if not trace:
        spare = []
        for _ in range(setups - 1):
            server = _Server(bases, work_dir, mix, WINDOW if bulk else 1, warmup)
            server.close()
            spare.append(server.setup_s)
        main = _query_pass(w, bases, mix, seconds, work_dir, warmup)
        return Outcome(
            main.mismatched == 0,
            *counts(main),
            _end_to_end(main.log.latencies(), main.marks, spare + [main.setup_s]),
            [note(main)],
        )

    # Untraced quarters around the traced half, as for the streams.
    def quarter() -> _QueryPass:
        return _query_pass(w, bases, mix, seconds / 4, work_dir, warmup)

    before = quarter()
    hooks = _ServingHooks()
    with SpanRecorder(hooks.table()) as recorder:
        traced = _query_pass(
            w, bases, mix, seconds / 2, work_dir, warmup, snapshot=True
        )
    after = quarter()
    unfired = recorder.unfired(w.path)
    if unfired:
        raise RuntimeError(f"declared spans never fired on {w.name}: {unfired}")
    for span in recorder.spans:
        if span.name == "serving.flush":
            tickets = span.info.pop("tickets")
            span.info["jobs"] = [hooks.job_of.get(id(t), "") for t in tickets]
    path = _write_trace(recorder.chrome_trace({}, []), work_dir, w.name, seed)
    passes = (before, traced, after)
    attempted, failed = (sum(column) for column in zip(*map(counts, passes)))
    untraced = before.log.latencies() + after.log.latencies()
    return Outcome(
        all(p.mismatched == 0 for p in passes),
        attempted,
        failed,
        _query_layers(recorder, traced, untraced),
        [note(*passes), f"chrome trace: {path}"],
    )


def _query_layers(rec, traced, untraced) -> Dict[str, float]:
    a, b = traced.marks[0][0], traced.marks[-1][0]
    n = len(traced.log.answers)
    names = ("serving.submit", "serving.flush", "serving.gemm", "net.decode")
    names += ("serving.store.version_info", "net.encode")
    spans = {name: rec.select(name, since=a, until=b) for name in names}
    busy = {name: sum(s.dur for s in group) for name, group in spans.items()}
    flushes = spans["serving.flush"]
    # A submit that trips the size watermark runs the flush inside itself.
    submits = spans["serving.submit"]
    busy["serving.submit"] -= rec.child_time(submits, ("serving.flush",))
    queued = sum(s.info["queued"] for s in flushes)
    wait_s = sum(s.info["wait_s"] for s in flushes)
    parts = ("serving.submit", "serving.flush", "net.decode", "net.encode")
    other_s = sum(traced.log.latencies()) - wait_s - sum(busy[p] for p in parts)

    def delta(section, key):
        return traced.after[section][key] - traced.before[section][key]

    hits = delta("engine", "result_cache_hits")
    lookups = hits + delta("engine", "result_cache_misses")

    def mean_ms(name):  # per call, set-up included
        return statistics.mean(s.dur for s in rec.select(name)) * 1e3

    def per_query(total):
        return total / n

    return {
        "serving.submit_ms": per_query(busy["serving.submit"]) * 1e3,
        "serving.store.version_info_ms": (
            per_query(busy["serving.store.version_info"]) * 1e3
        ),
        "serving.queue_wait_ms": wait_s / max(queued, 1) * 1e3,
        "serving.flush_ms": per_query(busy["serving.flush"]) * 1e3,
        "serving.gemm_ms": per_query(busy["serving.gemm"]) * 1e3,
        "serving.batch_size": queued / max(len(flushes), 1),
        "serving.deadline_flush_share": (
            delta("engine", "deadline_flushes") / max(delta("engine", "flushes"), 1)
        ),
        "serving.result_cache_hit_ratio": hits / max(lookups, 1),
        "serving.store.publish_ms": mean_ms("serving.store.publish"),
        "serving.store.load_ms": mean_ms("serving.store.load"),
        "net.decode_ms": per_query(busy["net.decode"]) * 1e3,
        "net.encode_ms": per_query(busy["net.encode"]) * 1e3,
        "net.request_bytes_per_query": per_query(
            sum(s.info["bytes"] for s in spans["net.decode"])
        ),
        "net.response_bytes_per_query": per_query(
            sum(s.info["bytes"] for s in spans["net.encode"])
        ),
        # The closing /metrics request counts itself.
        "net.requests_per_query": per_query(delta("server", "requests") - 1),
        "net.other_ms": per_query(other_s) * 1e3,
        "trace.overhead_share": _overhead(traced.log.latencies(), untraced),
    }


def run(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, work_dir
) -> Outcome:
    """Run workload ``name`` once: end-to-end metrics, or with ``trace``
    the per-layer metrics of its path.  ``smoke`` shrinks the problem and
    set-up so the whole suite checks itself in seconds."""
    w = WORKLOADS[name]
    setups, warmup = SETUPS, WARMUP
    if smoke:
        w = dataclasses.replace(w, n_dof=w.n_dof // 8)
        setups, warmup = 1, 3
    rng = np.random.default_rng(seed)
    runner = _run_stream if w.path == "stream" else _run_query
    return runner(w, rng, seconds, trace, setups, warmup, work_dir, seed)
