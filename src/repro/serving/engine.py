"""``QueryEngine`` — micro-batched query serving over sharded mode bases.

Under heavy traffic the unit of work must not be the *query* (one skinny
GEMM plus one collective each) but the *flush*: the engine queues pending
queries and, per ``(basis, kind)`` group, coalesces their payloads
column-wise into **one** distributed GEMM and (at most) one extra reduction
— arithmetic intensity and collective count both improve by the batching
factor.  The answer columns are then scattered back to per-query tickets.

The engine also keeps an LRU cache of loaded :class:`ShardedBasis` objects
so hot bases are sharded once and served many times, while cold bases are
evicted instead of accumulating.

SPMD contract: the engine is a *per-rank* object and flushing is
collective.  Every rank must submit the same queries in the same order and
flush together (the natural situation when a frontend broadcasts the
request log to all serving ranks); results are replicated on every rank.

>>> engine = QueryEngine(comm, store)
>>> t1 = engine.submit_project("burgers", snapshots)
>>> t2 = engine.submit_error("burgers", snapshots)
>>> engine.flush()
2
>>> coeffs = t1.result()
"""

from __future__ import annotations

import collections
import hashlib
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.workspace import Workspace
from ..exceptions import BasisNotFoundError, CommunicatorError, ServingError, ShapeError
from ..obs import runtime as _obs
from ..smpi.exceptions import SmpiError
from ..smpi.reduction import SUM
from ..smpi.selfcomm import SelfCommunicator
from ..utils.partition import block_partition
from .sharded import ShardedBasis

__all__ = ["QueryEngine", "QueryTicket", "QUERY_KINDS"]

#: Query kinds the engine answers.
QUERY_KINDS = ("project", "reconstruct", "reconstruction_error")

#: In-memory bases registered via :meth:`QueryEngine.add_basis` get this
#: pseudo-version in cache keys (store versions are positive ints).
_MEM_VERSION = 0


class QueryTicket:
    """Handle to one submitted query; redeem with :meth:`result` after the
    engine flushed.

    ``degraded`` is ``True`` when the answer came from a local replica
    after the primary shard group stopped answering (see
    :meth:`QueryEngine.flush` failover) — the value is still exact, but
    it was served without the shard group's parallelism.  ``cached`` is
    ``True`` when the answer was served from the engine's keyed result
    cache without touching the shard group at all.
    """

    __slots__ = (
        "kind",
        "basis",
        "version",
        "degraded",
        "cached",
        "_value",
        "_done",
        "_error",
    )

    def __init__(self, kind: str, basis: str, version: int) -> None:
        self.kind = kind
        self.basis = basis
        self.version = version
        self.degraded = False
        self.cached = False
        self._value = None
        self._done = False
        self._error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        """Whether the ticket is settled (answered, or failed with its flush)."""
        return self._done

    def result(self):
        """The query answer.  Instant: a pending ticket raises
        :class:`ServingError` (call :meth:`QueryEngine.flush` first), and
        so does a failed one, chained to its flush's exception."""
        if self._error is not None:
            raise ServingError(
                f"{self.kind} query on {self.basis!r} v{self.version} "
                f"failed in its flush: {type(self._error).__name__}: "
                f"{self._error}"
            ) from self._error
        if not self._done:
            raise ServingError(
                f"{self.kind} query on {self.basis!r} is still pending — "
                f"call QueryEngine.flush() first"
            )
        return self._value

    def _fulfil(self, value, degraded: bool = False, cached: bool = False) -> None:
        self._value = value
        self.degraded = degraded
        self.cached = cached
        self._done = True

    def _fail(self, cause: BaseException) -> None:
        self._error = cause
        self._done = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self._done else "pending"
        if self._error is not None:
            state = "failed"
        elif self._done and self.degraded:
            state = "done, degraded"
        return f"QueryTicket({self.kind}, {self.basis!r}, {state})"


class _Pending(NamedTuple):
    """One queued query: its ticket, payload, and bookkeeping for the
    deadline SLO (submit time) and result cache (key, or ``None`` when
    the query is uncacheable)."""

    ticket: QueryTicket
    payload: np.ndarray
    local: bool
    t_submit: float
    cache_key: Optional[Tuple[str, int, str, str]]


def payload_digest(payload: np.ndarray) -> str:
    """Content digest of a query payload (dtype + shape + raw bytes).

    The result-cache key component: two submissions with bit-identical
    payloads collide (a *hit*), any differing byte, shape or dtype does
    not.  SHA-1 is used as a content hash, not for security.
    """
    arr = np.ascontiguousarray(payload)
    hasher = hashlib.sha1()
    hasher.update(str(arr.dtype).encode())
    hasher.update(repr(arr.shape).encode())
    hasher.update(arr.tobytes())
    return hasher.hexdigest()


class QueryEngine:
    """Serve project / reconstruct / reconstruction-error queries over
    sharded bases, with request coalescing and an LRU basis cache.

    Parameters
    ----------
    comm:
        Communicator for this rank (any :mod:`repro.smpi` backend).
    store:
        Optional :class:`~repro.serving.ModeBaseStore` that basis names
        resolve through.  Without a store, register bases with
        :meth:`add_basis`.
    max_cached_bases:
        LRU capacity; least recently used sharded bases are evicted (store
        bases reload transparently on next use).
    flush_threshold:
        Auto-flush once this many queries are pending — bounds the batch
        latency without the caller managing flushes.
    flush_deadline_ms:
        Latency SLO (milliseconds) of a pending query; it triggers no
        flush.  The engine never flushes spontaneously (flushing is
        collective): below the size watermark the owner drives every
        flush (the :class:`repro.net.NetServer` event loop flushes as
        soon as the engine goes idle).  A flush whose oldest ticket
        waited at least this long counts as a miss in
        ``stats()["deadline_flushes"]``.  ``None`` (the default) disables
        the accounting.
    result_cache_entries:
        Capacity of the keyed result cache: ``(basis name, version,
        kind, payload digest) -> result``.  A repeated projection /
        reconstruction / error query with a bit-identical payload is
        answered instantly at submit time, without queueing — no GEMM,
        no collective.  Version bumps miss naturally (versions resolve
        at submit).  ``local=True`` queries are never cached (their
        payloads are rank-dependent, so caching would desynchronise the
        SPMD flush schedule), and degraded (failover) results are never
        *stored* (the replica answer is exact, but a shard-group
        recovery would serve stale provenance).  ``0`` (default)
        disables the cache.
    replicate:
        Keep a full-copy *replica* of every registered/loaded basis on
        this rank (a :class:`ShardedBasis` over a single-rank
        communicator).  When a flush against the primary shard group
        fails with a communicator error — a rank crashed, a collective
        deadlocked — the engine re-runs the group against the replica,
        fulfils the outstanding tickets with ``degraded=True``, marks
        the shard group down, and serves every later flush from
        replicas too.  Store-backed bases can always fail over (the
        replica is rebuilt from the store on demand); in-memory bases
        need ``replicate`` on.  Queries submitted with ``local=True``
        cannot fail over — their payloads only cover the primary
        partition's row block.
    """

    def __init__(
        self,
        comm,
        store=None,
        *,
        max_cached_bases: int = 8,
        flush_threshold: int = 64,
        flush_deadline_ms: Optional[float] = None,
        result_cache_entries: int = 0,
        replicate: bool = False,
    ) -> None:
        if max_cached_bases < 1:
            raise ServingError(
                f"max_cached_bases must be >= 1, got {max_cached_bases}"
            )
        if flush_threshold < 1:
            raise ServingError(
                f"flush_threshold must be >= 1, got {flush_threshold}"
            )
        if flush_deadline_ms is not None and not flush_deadline_ms > 0.0:
            raise ServingError(
                f"flush_deadline_ms must be positive or None, got "
                f"{flush_deadline_ms}"
            )
        if result_cache_entries < 0:
            raise ServingError(
                f"result_cache_entries must be >= 0, got {result_cache_entries}"
            )
        self.comm = comm
        self.store = store
        self.max_cached_bases = max_cached_bases
        self.flush_threshold = flush_threshold
        self.flush_deadline_ms = flush_deadline_ms
        self.result_cache_entries = result_cache_entries
        self.replicate = replicate
        self._cache: "collections.OrderedDict[Tuple[str, int], ShardedBasis]" = (
            collections.OrderedDict()
        )
        self._pinned: set = set()  # in-memory bases are not evictable
        # Full-copy failover replicas, keyed like the cache.  Kept outside
        # the LRU: a replica must survive exactly as long as failing over
        # to it is possible.
        self._replicas: Dict[Tuple[str, int], ShardedBasis] = {}
        # Set after the first failover: the primary shard group is down,
        # so every later flush goes straight to replicas (no point paying
        # another deadlock timeout per flush).
        self._shard_group_down = False
        self._pending: List[_Pending] = []
        # Keyed result cache: (name, version, kind, digest) -> immutable
        # answer.  Hits fulfil at submit; stores happen at flush (never
        # for degraded answers).
        self._result_cache: "collections.OrderedDict[Tuple[str, int, str, str], object]" = (
            collections.OrderedDict()
        )
        # Age (seconds) of the oldest ticket of the last flush batch, at
        # flush time — the observable the deadline-SLO tests/metrics read.
        self._last_flush_oldest_age_s = 0.0
        # Reusable column-stacking buffer for flush batches: the stacked
        # payload only feeds the distributed GEMM (which snapshots/copies),
        # so steady-state flushes of a stable batch shape allocate nothing.
        self._workspace = Workspace()
        self._stats = {
            "queries": 0,
            "flushes": 0,
            "gemms": 0,
            "collectives": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "evictions": 0,
            "failovers": 0,
            "health_reroutes": 0,
            "result_cache_hits": 0,
            "result_cache_misses": 0,
            "result_cache_evictions": 0,
            "deadline_flushes": 0,
        }

    # -- basis resolution --------------------------------------------------
    def add_basis(
        self,
        name: str,
        modes_or_basis,
        singular_values: Optional[np.ndarray] = None,
        replicate: Optional[bool] = None,
    ) -> ShardedBasis:
        """Register an in-memory basis under ``name`` (pseudo-version 0).

        Accepts a ready :class:`ShardedBasis` or a globally replicated
        modes matrix (sharded via :meth:`ShardedBasis.from_global`).
        In-memory bases are pinned: the LRU never evicts them, since there
        is no store to reload them from.  ``replicate`` (default: the
        engine's setting) additionally keeps a full local replica for
        failover — only possible when the global modes matrix is given,
        since a pre-sharded basis cannot be reassembled without the very
        shard group the replica is there to replace.
        """
        replicate = self.replicate if replicate is None else replicate
        if isinstance(modes_or_basis, ShardedBasis):
            if replicate:
                raise ServingError(
                    f"cannot replicate basis {name!r} from a pre-sharded "
                    f"ShardedBasis; pass the global modes matrix instead"
                )
            basis = modes_or_basis
        else:
            basis = ShardedBasis.from_global(
                self.comm, modes_or_basis, singular_values
            )
            if replicate:
                self._replicas[(name, _MEM_VERSION)] = ShardedBasis.from_global(
                    SelfCommunicator(), modes_or_basis, singular_values
                )
        key = (name, _MEM_VERSION)
        self._cache[key] = basis
        self._cache.move_to_end(key)
        self._pinned.add(key)
        return basis

    def _resolve_info(
        self, name: str, version: Optional[int]
    ) -> Tuple[int, int, int]:
        """``(version, n_dof, n_modes)`` for ``name``/``version`` (``None``
        = latest), with one manifest read; raises
        :class:`BasisNotFoundError` for names/versions that do not exist —
        at *submit* time, so a bad query can never poison a flush."""
        if self.store is not None:
            try:
                return self.store.version_info(name, version)
            except BasisNotFoundError:
                # Store versions are positive; only the in-memory
                # pseudo-version may still resolve below.
                if version is not None and version != _MEM_VERSION:
                    raise
        mem = self._cache.get((name, _MEM_VERSION))
        if mem is not None and version in (None, _MEM_VERSION):
            return _MEM_VERSION, mem.n_dof, mem.n_modes
        raise BasisNotFoundError(
            f"no basis named {name!r} "
            + (
                f"in store {self.store.root}"
                if self.store is not None
                else "(no store attached; use add_basis)"
            )
        )

    def load(self, name: str, version: Optional[int] = None) -> ShardedBasis:
        """The sharded basis for ``name``/``version`` (default: latest),
        through the LRU cache.  A concrete version already cached needs no
        manifest lookup: store versions are never deleted, and a flush
        loads the version its tickets resolved at submit."""
        basis = None if version is None else self._cache.get((name, version))
        if basis is None:
            version = self._resolve_info(name, version)[0]
            basis = self._cache.get((name, version))
        key = (name, version)
        if basis is not None:
            self._cache.move_to_end(key)
            self._count("cache_hits")
            return basis
        if version == _MEM_VERSION or self.store is None:
            raise BasisNotFoundError(
                f"no basis named {name!r} version {version} is loadable"
            )
        basis = ShardedBasis.from_store(self.comm, self.store, name, version)
        self._count("cache_misses")
        self._cache[key] = basis
        if self.replicate and key not in self._replicas:
            self._replicas[key] = ShardedBasis.from_store(
                SelfCommunicator(), self.store, name, version
            )
        self._evict()
        return basis

    def _replica(self, name: str, version: int) -> Optional[ShardedBasis]:
        """The failover replica for ``name``/``version``, building one from
        the store on demand (store bases can always fail over)."""
        key = (name, version)
        replica = self._replicas.get(key)
        if replica is not None:
            return replica
        if self.store is None or version == _MEM_VERSION:
            return None
        try:
            replica = ShardedBasis.from_store(
                SelfCommunicator(), self.store, name, version
            )
        except BasisNotFoundError:
            return None
        self._replicas[key] = replica
        return replica

    def _evict(self) -> None:
        # Capacity governs the *evictable* population only: pinned
        # in-memory bases must not starve store bases out of the cache.
        evictable = [k for k in self._cache if k not in self._pinned]
        while len(evictable) > self.max_cached_bases:
            oldest = evictable.pop(0)
            del self._cache[oldest]
            # The replica follows its basis out (store replicas rebuild
            # on demand, so failover capability is preserved).
            self._replicas.pop(oldest, None)
            self._stats["evictions"] += 1

    @property
    def cached_bases(self) -> List[Tuple[str, int]]:
        """Cache keys, least recently used first."""
        return list(self._cache)

    # -- submission --------------------------------------------------------
    def submit(
        self,
        kind: str,
        name: str,
        payload: np.ndarray,
        version: Optional[int] = None,
        local: bool = False,
    ) -> QueryTicket:
        """Queue one query; returns its ticket.

        ``payload`` is a 2-D column block: snapshots for ``project`` /
        ``reconstruction_error`` (global rows, or this rank's block with
        ``local=True``), coefficients for ``reconstruct``.  Auto-flushes at
        ``flush_threshold`` pending queries.
        """
        if kind not in QUERY_KINDS:
            raise ServingError(
                f"query kind must be one of {QUERY_KINDS}, got {kind!r}"
            )
        payload = np.asarray(payload)
        if payload.ndim == 1:
            payload = payload[:, np.newaxis]
        if payload.ndim != 2:
            raise ShapeError(
                f"query payload must be 1-D or 2-D, got ndim={payload.ndim}"
            )
        version, n_dof, n_modes = self._resolve_info(name, version)
        # Validate rows NOW: a malformed query must fail at submission,
        # not poison the whole flush it would have batched into.
        if kind == "reconstruct":
            expected = n_modes
        elif local:
            cached = self._cache.get((name, version))
            expected = (
                cached.partition.counts[self.comm.rank]
                if cached is not None
                # Store bases shard canonically (from_store -> from_global).
                else block_partition(n_dof, self.comm.size).counts[
                    self.comm.rank
                ]
            )
        else:
            expected = n_dof
        if payload.shape[0] != expected:
            raise ShapeError(
                f"{kind} payload for basis {name!r} must have {expected} "
                f"rows{' (local block)' if local else ''}, got "
                f"{payload.shape[0]}"
            )
        ticket = QueryTicket(kind, name, version)
        self._count("queries")
        cache_key = None
        if self.result_cache_entries > 0 and not local:
            cache_key = (name, version, kind, payload_digest(payload))
            hit = self._result_cache.get(cache_key)
            if hit is not None:
                # Answered without queueing: no GEMM, no collective.  The
                # hit value is immutable (stored read-only); the ticket
                # gets its own writable copy, like any flush answer.
                self._result_cache.move_to_end(cache_key)
                self._count("result_cache_hits")
                value = hit
                if isinstance(value, np.ndarray):
                    value = np.array(value)
                ticket._fulfil(value, cached=True)
                return ticket
            self._count("result_cache_misses")
        self._pending.append(
            _Pending(ticket, payload, local, time.monotonic(), cache_key)
        )
        if len(self._pending) >= self.flush_threshold:
            self.flush()
        return ticket

    def submit_project(self, name, data, version=None, local=False):
        """Queue a projection (``U^T A``) query."""
        return self.submit("project", name, data, version, local)

    def submit_reconstruct(self, name, coefficients, version=None):
        """Queue a reconstruction (``U c``) query."""
        return self.submit("reconstruct", name, coefficients, version)

    def submit_error(self, name, data, version=None, local=False):
        """Queue a relative reconstruction-error query."""
        return self.submit("reconstruction_error", name, data, version, local)

    # -- immediate convenience wrappers ------------------------------------
    def project(self, name, data, version=None, local=False) -> np.ndarray:
        """Submit + flush + return: projection coefficients."""
        ticket = self.submit_project(name, data, version, local)
        self.flush()
        return ticket.result()

    def reconstruct(self, name, coefficients, version=None) -> np.ndarray:
        """Submit + flush + return: reconstructed global field."""
        ticket = self.submit_reconstruct(name, coefficients, version)
        self.flush()
        return ticket.result()

    def reconstruction_error(self, name, data, version=None, local=False) -> float:
        """Submit + flush + return: relative reconstruction error."""
        ticket = self.submit_error(name, data, version, local)
        self.flush()
        return ticket.result()

    # -- the batched flush -------------------------------------------------
    def flush(self) -> int:
        """Answer every pending query; returns how many were served.

        Collective: every rank must flush with identical pending queues.
        Queries are grouped by ``(basis, version, kind, local)``; each
        group's payloads are concatenated column-wise and answered by a
        single distributed GEMM (plus one scalar-vector reduction for the
        error kind), then split back onto the tickets.

        **Failover**: when a group's collective fails — a shard rank
        crashed, or this rank timed out waiting on one — the group is
        re-run against the basis's local full-copy replica (see
        ``replicate``) and its tickets are fulfilled with
        ``degraded=True``; the shard group is then marked down and every
        later flush serves from replicas directly.  A group that cannot
        fail over (no replica, or ``local=True`` payloads) re-raises as
        :class:`ServingError` with the original failure chained.  Before
        anything propagates, every unanswered ticket of the batch fails
        with it (``done``, never cached, :meth:`~QueryTicket.result`
        raising a :class:`ServingError` chained to the cause).
        """
        pending, self._pending = self._pending, []
        if not pending:
            return 0
        try:
            self._flush_batch(pending)
        except BaseException as exc:
            for entry in pending:
                if not entry.ticket.done:
                    entry.ticket._fail(exc)
            raise
        return len(pending)

    def _flush_batch(self, pending: List[_Pending]) -> None:
        """Answer a popped, non-empty batch (the body of :meth:`flush`)."""
        now = time.monotonic()
        oldest_age = max(now - entry.t_submit for entry in pending)
        self._last_flush_oldest_age_s = oldest_age
        if (
            self.flush_deadline_ms is not None
            and oldest_age * 1000.0 >= self.flush_deadline_ms
        ):
            self._stats["deadline_flushes"] += 1
        self._stats["flushes"] += 1
        st = _obs.state()
        t0 = time.perf_counter() if st is not None else 0.0
        with _obs.span("serving.flush", phase="flush", rank=self.comm.rank):
            groups: Dict[
                Tuple[str, int, str, bool],
                List[Tuple[QueryTicket, np.ndarray]],
            ] = collections.OrderedDict()
            for ticket, payload, local, _, _ in pending:
                key = (ticket.basis, ticket.version, ticket.kind, local)
                groups.setdefault(key, []).append((ticket, payload))
            if not self._shard_group_down and self._shard_group_unhealthy():
                # Proactive routing: a peer of the shard group is already
                # failed, suspect or dead per the health monitor — serve
                # this flush from replicas instead of committing to a
                # collective that can only time out or fail.
                self._shard_group_down = True
                self._count("health_reroutes")
            for (name, version, kind, local), items in groups.items():
                if self._shard_group_down:
                    self._flush_degraded(name, version, kind, items, local)
                    continue
                basis = self.load(name, version)
                try:
                    self._flush_group(basis, kind, items, local)
                except (CommunicatorError, SmpiError) as exc:
                    # The shard group stopped answering mid-flush.  No
                    # ticket of this group has been fulfilled yet (tickets
                    # are only fulfilled after the collectives complete),
                    # so the whole group re-runs against the replica.
                    self._shard_group_down = True
                    self._flush_degraded(
                        name, version, kind, items, local, cause=exc
                    )
            self._store_results(pending)
        if st is not None and st.registry is not None:
            st.registry.histogram("repro.serving.flush_batch").observe(
                float(len(pending))
            )
            st.registry.gauge("repro.serving.last_flush_oldest_age_s").set(
                oldest_age
            )
            st.registry.histogram("repro.serving.flush_seconds").observe(
                time.perf_counter() - t0
            )

    def _flush_degraded(
        self,
        name: str,
        version: int,
        kind: str,
        items: List[Tuple[QueryTicket, np.ndarray]],
        local: bool,
        cause: Optional[BaseException] = None,
    ) -> None:
        """Serve one flush group from the local replica (shard group down)."""
        replica = None if local else self._replica(name, version)
        if replica is None:
            reason = (
                "its payloads are rank-local blocks of the down shard group"
                if local
                else "no replica is available (register with replicate=True,"
                " or serve from a store)"
            )
            raise ServingError(
                f"cannot fail over {kind} queries on basis {name!r} "
                f"v{version}: {reason}"
            ) from cause
        self._count("failovers", "repro.recovery.failovers")
        self._flush_group(replica, kind, items, local=False, degraded=True)

    def _flush_group(self, basis, kind, items, local, degraded=False) -> None:
        if kind == "project":
            self._flush_project(basis, items, local, degraded)
        elif kind == "reconstruct":
            self._flush_reconstruct(basis, items, degraded)
        else:
            self._flush_error(basis, items, local, degraded)

    def _shard_group_unhealthy(self) -> bool:
        """Proactive probe of the shard group's health: any already-failed
        world rank, or any peer the attached
        :class:`~repro.health.monitor.HealthMonitor` classifies suspect or
        dead.  ``False`` on worlds without health state (nothing to
        consult) — the reactive failover path still covers those."""
        from ..health.daemon import communicator_world

        world, _ = communicator_world(self.comm)
        if world is None:
            return False
        if world.failed_ranks():
            return True
        health = getattr(world, "health", None)
        return health is not None and health.has_unhealthy()

    @staticmethod
    def _spans(payloads: List[np.ndarray]) -> List[Tuple[int, int]]:
        spans, offset = [], 0
        for payload in payloads:
            spans.append((offset, offset + payload.shape[1]))
            offset = spans[-1][1]
        return spans

    def _stack_columns(self, blocks: List[np.ndarray]) -> np.ndarray:
        """Column-stack a flush group into the reusable workspace buffer.

        A single-query group is passed through untouched (no copy at all);
        larger groups fill one pooled ``(rows, total_cols)`` buffer instead
        of ``np.concatenate``-ing a fresh batch array every flush.
        """
        if len(blocks) == 1:
            return blocks[0]
        width = sum(b.shape[1] for b in blocks)
        dtype = np.result_type(*[b.dtype for b in blocks])
        stacked = self._workspace.get(
            "flush_stack", (blocks[0].shape[0], width), dtype
        )
        offset = 0
        for block in blocks:
            stacked[:, offset : offset + block.shape[1]] = block
            offset += block.shape[1]
        return stacked

    def _flush_project(self, basis, items, local, degraded=False) -> None:
        payloads = [p for _, p in items]
        stacked = self._stack_columns(
            [basis._resolve_local(p, local) for p in payloads]
        )
        coeffs = basis.project(stacked, local=True)
        self._stats["gemms"] += 1
        self._stats["collectives"] += 1
        for (ticket, _), (a, b) in zip(items, self._spans(payloads)):
            # True copy (ascontiguousarray would pass a full-width slice
            # through uncopied): tickets must own writable storage — never
            # alias the batch array (mutation bleed-through, whole-batch
            # retention) or a read-only broadcast snapshot.
            ticket._fulfil(np.array(coeffs[:, a:b]), degraded)

    def _flush_reconstruct(self, basis, items, degraded=False) -> None:
        payloads = [p for _, p in items]
        stacked = basis.reconstruct(self._stack_columns(payloads))
        self._stats["gemms"] += 1
        self._stats["collectives"] += 2  # gatherv_rows + bcast
        for (ticket, _), (a, b) in zip(items, self._spans(payloads)):
            ticket._fulfil(np.array(stacked[:, a:b]), degraded)

    def _flush_error(self, basis, items, local, degraded=False) -> None:
        payloads = [p for _, p in items]
        rows = [basis._resolve_local(p, local) for p in payloads]
        coeffs = basis.project(self._stack_columns(rows), local=True)
        self._stats["gemms"] += 1
        # One vector allreduce carries every query's ||A||^2 at once,
        # folded into a pooled buffer (out=) — the per-flush reduction
        # result is consumed below and never escapes, so repeated flushes
        # allocate nothing for it.
        local_sq = np.array([float(np.sum(r * r)) for r in rows])
        total_sq = np.asarray(
            basis.comm.allreduce(
                local_sq,
                SUM,
                out=self._workspace.get(
                    "error_norms", local_sq.shape, local_sq.dtype
                ),
            )
        )
        self._stats["collectives"] += 2
        for (ticket, _), (a, b), tot in zip(
            items, self._spans(payloads), total_sq
        ):
            if tot <= 0.0:
                ticket._fulfil(0.0, degraded)
                continue
            captured = float(np.sum(coeffs[:, a:b] ** 2))
            residual = max(float(tot) - captured, 0.0)
            ticket._fulfil(
                float(np.sqrt(residual) / np.sqrt(float(tot))), degraded
            )

    # -- result cache ------------------------------------------------------
    def _store_results(self, pending: List[_Pending]) -> None:
        """Populate the result cache from a flushed batch.

        Degraded (failover) answers are never stored — the primary shard
        group may recover, and a stale replica-era entry would then keep
        masking it.  Stored arrays are frozen (``writeable=False``) so a
        ticket owner mutating *their* copy can never corrupt the cache.
        """
        if self.result_cache_entries < 1:
            return
        for entry in pending:
            if entry.cache_key is None:
                continue
            ticket = entry.ticket
            if not ticket.done or ticket.degraded:
                continue
            value = ticket._value
            if isinstance(value, np.ndarray):
                value = np.array(value)
                value.setflags(write=False)
            self._result_cache[entry.cache_key] = value
            self._result_cache.move_to_end(entry.cache_key)
        while len(self._result_cache) > self.result_cache_entries:
            self._result_cache.popitem(last=False)
            self._stats["result_cache_evictions"] += 1

    @property
    def cached_results(self) -> List[Tuple[str, int, str, str]]:
        """Result-cache keys ``(name, version, kind, digest)``, least
        recently used first."""
        return list(self._result_cache)

    # -- deadline accounting ----------------------------------------------
    def oldest_pending_age_s(self, now: Optional[float] = None) -> float:
        """Age (seconds) of the oldest pending ticket; ``0.0`` when the
        queue is empty.  Safe to call from another thread: it reads one
        snapshot of the queue, and a flush swaps in a fresh list."""
        pending = self._pending
        if not pending:
            return 0.0
        if now is None:
            now = time.monotonic()
        return max(now - pending[0].t_submit, 0.0)

    # -- instrumentation ---------------------------------------------------
    def _count(self, key: str, metric: Optional[str] = None) -> None:
        """Bump ``stats()[key]`` and its counter (default ``repro.serving.<key>``)."""
        self._stats[key] += 1
        st = _obs.state()
        if st is not None and st.registry is not None:
            st.registry.counter(metric or f"repro.serving.{key}").inc()

    @property
    def pending(self) -> int:
        """Queries queued but not yet flushed."""
        return len(self._pending)

    def pending_by_group(self) -> Dict[Tuple[str, str], int]:
        """Pending-queue depth per ``(basis, kind)`` group — how many
        GEMM groups the next flush will pay, and how deep each is."""
        depths: Dict[Tuple[str, str], int] = {}
        for entry in self._pending:
            key = (entry.ticket.basis, entry.ticket.kind)
            depths[key] = depths.get(key, 0) + 1
        return depths

    @property
    def shard_group_down(self) -> bool:
        """Whether a failover has marked the primary shard group down
        (all flushes now serve degraded, from replicas)."""
        return self._shard_group_down

    def stats(self) -> dict:
        """Counters plus live queue pressure (a fresh dict; mutating it
        does not affect the engine).

        Counter keys: queries, flushes, gemms, collectives, cache_hits/
        cache_misses/evictions (the *basis* LRU), result_cache_hits/
        result_cache_misses/result_cache_evictions (the keyed *result*
        cache), deadline_flushes, failovers, health_reroutes.  Queue
        keys: ``pending`` (total), ``pending_by_group`` (per
        ``(basis, kind)``, keyed ``"<basis>:<kind>"`` so the dict is
        JSON-serialisable), ``oldest_pending_age_s`` and
        ``last_flush_oldest_age_s`` — what the ``/metrics`` endpoint
        reports.
        """
        snapshot = dict(self._stats)
        snapshot["pending"] = len(self._pending)
        snapshot["pending_by_group"] = {
            f"{basis}:{kind}": depth
            for (basis, kind), depth in sorted(self.pending_by_group().items())
        }
        snapshot["oldest_pending_age_s"] = self.oldest_pending_age_s()
        snapshot["last_flush_oldest_age_s"] = self._last_flush_oldest_age_s
        return snapshot
