"""Streaming batch abstraction.

The streaming SVD consumes snapshot *batches*.  A :class:`SnapshotStream`
normalises the three ways batches arise in practice — an in-memory matrix,
a snapshot container on disk, or an on-the-fly generator (the in-situ case
the paper targets, where snapshots come from a running simulation) — behind
one re-iterable interface with validated, uniform batch shapes.

:class:`PrefetchStream` wraps any snapshot stream with a bounded
background double buffer, so batch production (disk reads of an
out-of-core :func:`dataset_stream`, an expensive generator) overlaps the
consumer's compute.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from ..exceptions import ShapeError
from ..obs import runtime as _obs
from .io import SnapshotDataset

__all__ = [
    "PrefetchStream",
    "SnapshotStream",
    "array_stream",
    "dataset_stream",
    "function_stream",
]


class SnapshotStream:
    """Re-iterable source of ``(n_dof, batch)`` snapshot batches.

    Parameters
    ----------
    factory:
        Zero-argument callable returning a fresh iterator of batches.
        Wrapping a *factory* (not an iterator) makes the stream re-iterable,
        so one stream object can drive several SVD runs (e.g. a serial
        reference and a parallel candidate).
    n_dof:
        Expected row count; every yielded batch is validated against it.
    n_snapshots:
        Total column count if known (informational).
    """

    def __init__(
        self,
        factory: Callable[[], Iterator[np.ndarray]],
        n_dof: Optional[int] = None,
        n_snapshots: Optional[int] = None,
    ) -> None:
        self._factory = factory
        self.n_dof = n_dof
        self.n_snapshots = n_snapshots

    def __iter__(self) -> Iterator[np.ndarray]:
        expected_rows = self.n_dof
        for batch in self._factory():
            batch = np.asarray(batch, dtype=float)
            if batch.ndim != 2:
                raise ShapeError(
                    f"stream yielded a {batch.ndim}-D batch; expected 2-D"
                )
            if expected_rows is None:
                expected_rows = batch.shape[0]
            elif batch.shape[0] != expected_rows:
                raise ShapeError(
                    f"stream yielded a batch with {batch.shape[0]} rows; "
                    f"expected {expected_rows}"
                )
            yield batch

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "SnapshotStream":
        """Derived stream with ``fn`` applied to every batch (e.g. mean
        removal, rank-local row slicing)."""

        def factory() -> Iterator[np.ndarray]:
            return (fn(batch) for batch in self)

        return SnapshotStream(factory, n_dof=None, n_snapshots=self.n_snapshots)

    def restrict_rows(self, row_slice: slice) -> "SnapshotStream":
        """Derived stream carrying only ``row_slice`` of every batch — how a
        rank adapts a global stream to its domain-decomposed block.

        ``n_dof`` propagates through ``slice.indices``, so stepped and
        negative slices (e.g. ``slice(None, None, 2)``, ``slice(-5, None)``)
        report the true restricted row count and the derived stream
        validates every batch against it.  When the parent's ``n_dof`` is
        unknown the derived stream infers its row count from the first
        restricted batch.
        """
        stream = self.map(lambda batch: batch[row_slice, :])
        if self.n_dof is not None:
            stream.n_dof = len(range(*row_slice.indices(self.n_dof)))
        return stream


class _EndOfStream:
    """Producer sentinel: the wrapped stream is exhausted."""


class _StreamFailure:
    """Producer sentinel carrying the wrapped stream's exception."""

    def __init__(self, exception: BaseException) -> None:
        self.exception = exception


class PrefetchStream(SnapshotStream):
    """Bounded background double-buffer over any :class:`SnapshotStream`.

    A daemon producer thread iterates the wrapped stream into a queue of
    ``depth`` slots (default 2 — classic double buffering): while the
    consumer processes batch *k*, the producer is already reading batch
    *k+1*.  Exactly the wrapped stream's batches are yielded, in order; a
    producer-side exception is re-raised at the consumer's next batch.
    Each iteration spawns a fresh producer, so the stream stays
    re-iterable; abandoning an iteration mid-stream (e.g. a consumer
    error) stops the producer promptly — a bounded queue never strands it
    blocked forever.

    Parameters
    ----------
    stream:
        The source stream — including an out-of-core
        :func:`dataset_stream`, whose disk reads then overlap compute.
    depth:
        Queue capacity (prefetched batches held at once), ``>= 1``.
    """

    def __init__(self, stream: SnapshotStream, depth: int = 2) -> None:
        if depth < 1:
            raise ShapeError(f"prefetch depth must be >= 1, got {depth}")
        self._stream = stream
        self._depth = int(depth)
        # Live producers of in-progress iterations: (stop event, thread).
        # An interrupted consumer (crash mid-fit, Session.close with
        # drop_pending) calls abort() to stop them promptly instead of
        # relying on generator finalisation.
        self._active: list = []
        self._active_lock = threading.Lock()
        super().__init__(
            self._prefetched,
            n_dof=stream.n_dof,
            n_snapshots=stream.n_snapshots,
        )

    def abort(self, join_timeout: float = 2.0) -> None:
        """Stop every live producer thread and wait for it to exit.

        Idempotent and safe concurrently with a consumer: producers check
        their stop event on every bounded put, so they exit within one
        poll interval.  After an abort the stream remains usable — the
        next iteration spawns a fresh producer.
        """
        with self._active_lock:
            active = list(self._active)
        for stop, producer in active:
            stop.set()
        for stop, producer in active:
            producer.join(timeout=join_timeout)
        with self._active_lock:
            self._active = [
                entry for entry in self._active if entry[1].is_alive()
            ]

    def _prefetched(self) -> Iterator[np.ndarray]:
        slots: "queue.Queue" = queue.Queue(maxsize=self._depth)
        stop = threading.Event()

        def produce() -> None:
            try:
                for batch in self._stream:
                    # Snapshot before queueing: an in-situ source may
                    # legally reuse one buffer per batch, and it keeps
                    # producing while the consumer still holds this one.
                    batch = np.array(batch, copy=True)
                    while not stop.is_set():
                        try:
                            slots.put(batch, timeout=0.05)
                            break
                        except queue.Full:
                            continue
                    else:
                        return
                item = _EndOfStream()
            except BaseException as exc:  # noqa: BLE001 - re-raised consumer-side
                item = _StreamFailure(exc)
            while not stop.is_set():
                try:
                    slots.put(item, timeout=0.05)
                    return
                except queue.Full:
                    continue

        producer = threading.Thread(
            target=produce, name="snapshot-prefetch", daemon=True
        )
        entry = (stop, producer)
        with self._active_lock:
            self._active.append(entry)
        producer.start()
        try:
            while True:
                # Observability: queue depth / starvation seen by the
                # consumer.  One module-global read when disabled — no
                # allocation on the hot path.
                st = _obs.state()
                if st is not None and st.registry is not None:
                    depth = slots.qsize()
                    st.registry.gauge(
                        "repro.data.prefetch.queue_depth"
                    ).set(float(depth))
                    if depth == 0:
                        st.registry.counter(
                            "repro.data.prefetch.starvation"
                        ).inc()
                item = slots.get()
                if isinstance(item, _EndOfStream):
                    return
                if isinstance(item, _StreamFailure):
                    raise item.exception
                if st is not None and st.registry is not None:
                    st.registry.counter("repro.data.prefetch.batches").inc()
                yield item
        finally:
            stop.set()
            with self._active_lock:
                if entry in self._active:
                    self._active.remove(entry)


def array_stream(matrix: np.ndarray, batch_size: int) -> SnapshotStream:
    """Stream an in-memory ``(M, N)`` matrix in column batches."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ShapeError(f"matrix must be 2-D, got ndim={matrix.ndim}")
    if batch_size <= 0:
        raise ShapeError(f"batch_size must be positive, got {batch_size}")

    def factory() -> Iterator[np.ndarray]:
        for start in range(0, matrix.shape[1], batch_size):
            yield matrix[:, start : start + batch_size]

    return SnapshotStream(
        factory, n_dof=matrix.shape[0], n_snapshots=matrix.shape[1]
    )


def dataset_stream(dataset: SnapshotDataset, batch_size: int) -> SnapshotStream:
    """Stream a disk container in column batches (out-of-core ingestion)."""
    if batch_size <= 0:
        raise ShapeError(f"batch_size must be positive, got {batch_size}")

    def factory() -> Iterator[np.ndarray]:
        return dataset.column_batches(batch_size)

    return SnapshotStream(
        factory, n_dof=dataset.n_dof, n_snapshots=dataset.n_snapshots
    )


def function_stream(
    fn: Callable[[int], Optional[np.ndarray]],
    n_batches: Optional[int] = None,
    n_dof: Optional[int] = None,
) -> SnapshotStream:
    """Stream batches produced by ``fn(batch_index)``.

    ``fn`` returns the next batch or ``None`` to end the stream — the
    in-situ pattern where a simulation produces data until it finishes.
    When ``n_batches`` is given the stream ends after that many batches
    regardless.  Passing ``n_dof`` declares the expected row count up
    front, so shape validation rejects a wrong-sized batch from the very
    first one (otherwise the first batch silently defines the row count).
    """
    if n_dof is not None and n_dof <= 0:
        raise ShapeError(f"n_dof must be positive, got {n_dof}")

    def factory() -> Iterator[np.ndarray]:
        index = 0
        while n_batches is None or index < n_batches:
            batch = fn(index)
            if batch is None:
                return
            yield batch
            index += 1

    return SnapshotStream(factory, n_dof=n_dof)
