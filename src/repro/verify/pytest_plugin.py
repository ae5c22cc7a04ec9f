"""Pytest integration for the SPMD leak detector.

Two pieces:

* a **global guard** (autouse fixture): every test runs with the
  provenance tracker enabled (no traceback capture — cheap), and fails
  at teardown if it leaves behind a live, never-completed request.
  This is what lets the whole tier-1 suite assert "no leaked requests"
  without touching individual tests.  A test that *deliberately*
  abandons requests can opt out with ``@pytest.mark.spmd_allow_leaks``.
* an **opt-in fixture** ``spmd_leak_guard``: a scoped
  :class:`~repro.smpi.provenance.TrackScope` with traceback capture on,
  for tests that want to assert on (or inspect) leak reports directly.

Registered repo-wide from the root ``conftest.py`` via
``pytest_plugins = ("repro.verify.pytest_plugin",)``.
"""

from __future__ import annotations

import gc
from typing import Iterator, List

import pytest

from repro.smpi.provenance import Leak, TRACKER, TrackScope, track

__all__ = ["spmd_leak_guard"]


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "spmd_allow_leaks: skip the global SPMD leaked-request check "
        "(the test deliberately abandons nonblocking requests)",
    )


def _pending_after_gc(mark: int) -> List[Leak]:
    """Still-pending requests created after ``mark``, after giving the
    collector a chance to clear reference cycles (exception tracebacks
    commonly pin abandoned requests)."""
    pending = TRACKER.pending_requests(mark)
    if pending:
        gc.collect()
        pending = TRACKER.pending_requests(mark)
    return pending


@pytest.fixture(autouse=True)
def _spmd_global_leak_check(request) -> Iterator[None]:
    """Fail any test that leaves a live, never-completed request."""
    if request.node.get_closest_marker("spmd_allow_leaks"):
        yield
        return
    TRACKER.enable(capture_tracebacks=False)
    mark = TRACKER.mark()
    try:
        yield
        pending = _pending_after_gc(mark)
    finally:
        TRACKER.disable(capture_tracebacks=False)
    if pending:
        details = "\n".join("  " + leak.describe() for leak in pending)
        pytest.fail(
            f"test leaked {len(pending)} un-awaited SPMD request(s) "
            f"(complete them with wait()/test(), cancel() "
            f"deliberate abandons, or mark the test with "
            f"@pytest.mark.spmd_allow_leaks):\n{details}",
            pytrace=False,
        )


@pytest.fixture
def spmd_leak_guard() -> Iterator[TrackScope]:
    """Provenance scope with creation tracebacks, failing on any leak.

    Yields the :class:`~repro.smpi.provenance.TrackScope`; the test can
    also query it directly (``scope.pending_requests()`` etc.).  At
    teardown, any outstanding request *or* envelope fails the test with
    creation sites.
    """
    with track(capture_tracebacks=True) as scope:
        yield scope
        leaks = scope.leaks()
        if leaks:
            gc.collect()
            leaks = scope.leaks()
        if leaks:
            details = "\n".join("  " + leak.describe() for leak in leaks)
            pytest.fail(
                f"{len(leaks)} SPMD resource leak(s):\n{details}",
                pytrace=False,
            )
