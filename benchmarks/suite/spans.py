"""Bench-side span recorder: times calls into each layer from outside.

The program is not edited to be measured.  For the length of one traced
run, each declared callable is replaced at the module or class attribute
its caller looks it up through (``repro.core.parallel.economy_svd``,
``QueryEngine.flush``, ...) by a wrapper that records one span per call;
:meth:`SpanRecorder.uninstall` puts every original back.  Spans nest
through a thread-local parent, so a layer's self time is its duration
minus the time its child spans cover.  Spans stay in memory and are
exported once, at the end, as a Chrome trace.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class Site(NamedTuple):
    """One declared call site: ``owner.attr`` of ``module`` (``owner`` is
    ``None`` for a module-level function), recorded as span ``name``.  It
    must fire at least once on each workload path in ``paths``."""

    name: str
    module: str
    owner: Optional[str]
    attr: str
    paths: Tuple[str, ...]

    @property
    def label(self) -> str:
        owner = f"{self.owner}." if self.owner else ""
        return f"{self.module}.{owner}{self.attr}"


STREAM = ("stream",)
QUERY = ("interactive", "bulk")

#: Every span the benchmark records.  A site that stops firing on a path
#: it lists fails the traced run, so a refactor that moves a call site is
#: caught instead of silently reading 0.
_STEP, _ENGINE = "ParSVDParallel", "QueryEngine"
_BASIS, _STORE = "ShardedBasis", "ModeBaseStore"
SITES = (
    Site("core.step", "repro.core.parallel", _STEP, "incorporate_data", STREAM),
    Site("core.init", "repro.core.parallel", _STEP, "initialize", STREAM),
    Site("linalg.qr", "repro.utils.linalg", None, "economy_qr", STREAM),
    # The step's small SVD of R, then APMOS's SVD at initialisation.
    Site("linalg.svd", "repro.core.parallel", None, "economy_svd", STREAM),
    Site("linalg.svd", "repro.core.apmos", None, "economy_svd", STREAM),
    Site("serving.submit", "repro.serving.engine", _ENGINE, "submit", QUERY),
    Site("serving.flush", "repro.serving.engine", _ENGINE, "flush", QUERY),
    Site("serving.gemm", "repro.serving.sharded", _BASIS, "project", QUERY),
    Site("serving.gemm", "repro.serving.sharded", _BASIS, "reconstruct", ("bulk",)),
    Site(
        "serving.store.version_info",
        "repro.serving.store",
        _STORE,
        "version_info",
        QUERY,
    ),
    Site("serving.store.publish", "repro.serving.store", _STORE, "publish", QUERY),
    Site("serving.store.load", "repro.serving.sharded", _BASIS, "from_store", QUERY),
    Site("net.decode", "repro.net.http", "Request", "json", QUERY),
    # server.py imports json_response by name, so it is patched there.
    Site("net.encode", "repro.net.server", None, "json_response", QUERY),
    # Maps each ticket to its job id, so flush spans name the jobs served.
    Site("net.job", "repro.net.jobs", "JobTable", "create", QUERY),
)


class Span(NamedTuple):
    id: int
    site: int
    name: str
    tid: int
    t0: float
    t1: float
    parent: Optional[int]
    info: Any

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


Hook = Tuple[
    Optional[Callable[[tuple], Any]], Optional[Callable[[Any, tuple, Any], Any]]
]


class SpanRecorder:
    """Patches :data:`SITES` on :meth:`install` and records spans until
    :meth:`uninstall` (also usable as a context manager).

    ``hooks`` maps a span name to ``(before, after)``: ``before(args)``
    runs at entry and returns a state, ``after(state, args, result)`` runs
    at exit and returns the span's ``info`` (the flops of a QR, the
    tickets a flush served, the bytes of a body).
    """

    def __init__(self, hooks: Optional[Dict[str, Hook]] = None) -> None:
        self.hooks = hooks or {}
        self.spans: List[Span] = []
        self.epoch = time.perf_counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    def _wrap(self, index: int, name: str, fn: Callable) -> Callable:
        before, after = self.hooks.get(name, (None, None))
        local, spans, ids = self._local, self.spans, self._ids

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            state = before(args) if before is not None else None
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            info = after(state, args, result) if after is not None else None
            spans.append(
                Span(span_id, index, name, threading.get_ident(), t0, t1, parent, info)
            )
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> "SpanRecorder":
        for index, site in enumerate(SITES):
            module = importlib.import_module(site.module)
            owner = module if site.owner is None else getattr(module, site.owner)
            # The raw descriptor: a classmethod is re-wrapped as one.
            raw = vars(owner)[site.attr]
            if isinstance(raw, classmethod):
                patched: Any = classmethod(self._wrap(index, site.name, raw.__func__))
            else:
                patched = self._wrap(index, site.name, raw)
            self._restore.append((owner, site.attr, raw))
            setattr(owner, site.attr, patched)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- queries ------------------------------------------------------------
    def unfired(self, path: str) -> List[str]:
        """Labels of the declared sites on ``path`` that recorded no span."""
        fired = {span.site for span in self.spans}
        return [
            site.label
            for index, site in enumerate(SITES)
            if path in site.paths and index not in fired
        ]

    def select(
        self,
        name: str,
        *,
        tid: Optional[int] = None,
        since: float = float("-inf"),
        until: float = float("inf"),
    ) -> List[Span]:
        """Spans named ``name`` (optionally on one thread) that started
        inside ``[since, until]``."""
        return [
            s
            for s in self.spans
            if s.name == name
            and (tid is None or s.tid == tid)
            and since <= s.t0 <= until
        ]

    def child_time(self, parents: List[Span], names: Tuple[str, ...]) -> float:
        """Total duration of the direct children named in ``names`` of the
        ``parents`` spans."""
        ids = {span.id for span in parents}
        return sum(s.dur for s in self.spans if s.parent in ids and s.name in names)

    def chrome_trace(self, pid_of_tid: Dict[int, int], extra: List[dict]) -> dict:
        """The spans plus ``extra`` ready-made ``X`` events as a Chrome
        ``trace_event`` payload: pid = rank, one tid per thread."""
        events = []
        for span in self.spans:
            layer = span.name.rsplit(".", 1)[0]
            args: Dict[str, Any] = {"site": SITES[span.site].label}
            if span.parent is not None:
                args["parent"] = span.parent
            if isinstance(span.info, dict):
                args.update(
                    (key, value)
                    for key, value in span.info.items()
                    if isinstance(value, (int, float, str, list))
                )
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.t0 - self.epoch) * 1e6,
                    "dur": span.dur * 1e6,
                    "pid": pid_of_tid.get(span.tid, 0),
                    "tid": span.tid,
                    "cat": layer,
                    "args": args,
                }
            )
        events.extend(extra)
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": f"rank {pid}"},
            }
            for pid in sorted({event["pid"] for event in events})
        ]
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}
