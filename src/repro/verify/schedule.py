"""Cross-rank schedule conformance and shutdown-time leak detection.

The dynamic half of ``repro.verify``: instead of predicting violations
from source, it *observes* a run.

* :func:`check_schedules` aligns the per-rank collective op streams
  recorded by :class:`~repro.smpi.tracer.CommTracer` (via
  :meth:`~repro.smpi.tracer.CommTracer.schedule`) and reports the first
  divergence: a rank issuing a different collective at some position, a
  mismatched root, an incompatible dtype, or one rank's stream simply
  ending early.  Divergences that deadlock under MPI often *complete*
  on the in-process backends (unbounded mailboxes), which is exactly
  what makes them checkable here.
* :func:`checked_run` wraps :meth:`repro.api.Session.run` with tracing
  and :func:`repro.smpi.provenance.track`, then reports schedule
  divergence plus leaked resources: requests still pending at shutdown,
  envelopes never recycled, and requests that were garbage-collected
  un-awaited (captured from their ``ResourceWarning`` finalizers).

Every collective in the protocol is blocking and is recorded when its
call returns, so the collective stream is in issue order on every lane;
the streaming step moves its factors with point-to-point ops, which the
schedule excludes.
"""

from __future__ import annotations

import dataclasses
import gc
import warnings
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.smpi.provenance import Leak, track
from repro.smpi.tracer import COLLECTIVE_OPS, CommRecord

__all__ = [
    "CheckedRun",
    "Divergence",
    "ScheduleReport",
    "check_schedules",
    "checked_run",
    "format_leaks",
]

#: Ops whose recorded payload shape must agree across ranks (contribution
#: shapes of gather-flavoured ops legitimately differ per rank).
_SHAPE_CHECKED = frozenset({"bcast", "allreduce"})


@dataclasses.dataclass(frozen=True)
class Divergence:
    """First point where the per-rank collective streams disagree."""

    index: int
    field: str
    values: Dict[int, Any]

    def describe(self) -> str:
        per_rank = ", ".join(
            f"rank {rank}: {value!r}"
            for rank, value in sorted(self.values.items())
        )
        what = {
            "op": "different collectives issued",
            "root": "different roots",
            "dtype": "incompatible payload dtypes",
            "shape": "incompatible payload shapes",
            "length": "stream ended early on some rank(s)",
        }.get(self.field, self.field)
        return (
            f"schedule divergence at collective #{self.index} "
            f"({what}): {per_rank}"
        )


@dataclasses.dataclass
class ScheduleReport:
    """Outcome of one cross-rank conformance check."""

    streams: Dict[int, List[CommRecord]]
    divergence: Optional[Divergence]

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def describe(self) -> str:
        counts = {rank: len(s) for rank, s in sorted(self.streams.items())}
        if self.ok:
            return (
                f"schedules conform across {len(self.streams)} rank(s) "
                f"({counts} collectives per rank)"
            )
        return self.divergence.describe()


def _as_schedule(stream: Any) -> List[CommRecord]:
    """Normalize a tracer / record list to its collective-op stream."""
    if hasattr(stream, "schedule"):
        return list(stream.schedule())
    records = getattr(stream, "records", stream)
    return [r for r in records if r.op in COLLECTIVE_OPS]


def check_schedules(streams: Sequence[Any]) -> ScheduleReport:
    """Align per-rank collective streams; report the first divergence.

    ``streams`` is rank-ordered: :class:`~repro.smpi.tracer.CommTracer`
    objects (as returned by ``Session.run(..., trace=True)`` /
    ``run_spmd(trace=True)``) or plain :class:`CommRecord` lists.
    """
    schedules = {rank: _as_schedule(s) for rank, s in enumerate(streams)}
    report = ScheduleReport(streams=schedules, divergence=None)
    if len(schedules) <= 1:
        return report
    length = max(len(s) for s in schedules.values())
    for index in range(length):
        missing = {
            rank: None
            for rank, s in schedules.items()
            if index >= len(s)
        }
        if missing:
            values: Dict[int, Any] = {
                rank: (s[index].op if index < len(s) else None)
                for rank, s in schedules.items()
            }
            report.divergence = Divergence(index, "length", values)
            return report
        here = {rank: s[index] for rank, s in schedules.items()}
        for field in ("op", "root", "dtype", "shape"):
            observed = {
                rank: getattr(record, field) for rank, record in here.items()
            }
            if field == "shape" and next(
                iter(here.values())
            ).op not in _SHAPE_CHECKED:
                continue
            if field in ("dtype", "shape"):
                # Non-array payloads record None; only conflicting
                # concrete values diverge.
                concrete = {v for v in observed.values() if v is not None}
                if len(concrete) > 1:
                    report.divergence = Divergence(index, field, observed)
                    return report
            elif len(set(observed.values())) > 1:
                report.divergence = Divergence(index, field, observed)
                return report
    return report


def format_leaks(leaks: Sequence[Leak]) -> str:
    """Human-readable multi-line leak report."""
    if not leaks:
        return "no leaked requests or envelopes"
    lines = [f"{len(leaks)} leaked resource(s):"]
    for leak in leaks:
        lines.extend("  " + line for line in leak.describe().splitlines())
    return "\n".join(lines)


@dataclasses.dataclass
class CheckedRun:
    """Everything :func:`checked_run` observed about one workload."""

    results: List[Any]
    schedule: ScheduleReport
    leaks: List[Leak]
    unawaited: List[str]

    @property
    def ok(self) -> bool:
        return self.schedule.ok and not self.leaks and not self.unawaited

    def describe(self) -> str:
        lines = [self.schedule.describe(), format_leaks(self.leaks)]
        if self.unawaited:
            lines.append(
                f"{len(self.unawaited)} request(s) garbage-collected "
                f"un-awaited:"
            )
            lines.extend("  " + message for message in self.unawaited)
        else:
            lines.append("no requests garbage-collected un-awaited")
        return "\n".join(lines)


def checked_run(
    config: Any,
    fn: Callable[..., Any],
    *args: Any,
    **kwargs: Any,
) -> CheckedRun:
    """Run ``fn`` through :meth:`repro.api.Session.run` under full
    dynamic verification.

    Wraps the run in communicator tracing and provenance tracking, then
    reports: cross-rank schedule conformance, resources still
    outstanding after the run (requests pending, envelopes unrecycled —
    each with its creation site), and requests that died un-awaited
    during the run (their ``ResourceWarning`` finalizers, identified by
    the ``SPMD002`` marker in the message).
    """
    from repro.api import Session

    with track(capture_tracebacks=True) as scope:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            results, tracers = Session.run(
                config, fn, *args, trace=True, **kwargs
            )
            # Surface finalizers for anything the workload dropped
            # (reference cycles through exception tracebacks are common).
            gc.collect()
        leaks = scope.leaks()
    unawaited = [
        str(entry.message)
        for entry in caught
        if issubclass(entry.category, ResourceWarning)
        and "SPMD002" in str(entry.message)
    ]
    return CheckedRun(
        results=results,
        schedule=check_schedules(tracers or []),
        leaks=leaks,
        unawaited=unawaited,
    )
