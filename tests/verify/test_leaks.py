"""Leak detector and ResourceWarning finalizers (the runtime SPMD002)."""

import gc
import warnings

import numpy as np
import pytest

from repro.smpi import create_communicator
from repro.smpi.provenance import TRACKER, track
from repro.verify import format_leaks


class TestPendingRequests:
    def test_pending_receive_is_reported_with_origin(self):
        with track(capture_tracebacks=True) as scope:
            comms = create_communicator("threads", 2)
            request = comms[1].irecv(0, 9)
            leaks = scope.pending_requests()
            assert len(leaks) == 1
            assert leaks[0].kind == "RecvRequest"
            assert "source=0" in leaks[0].detail
            assert "tag=9" in leaks[0].detail
            assert leaks[0].origin and "test_leaks" in leaks[0].origin
            assert "created at:" in leaks[0].describe()
            request.cancel()
            assert scope.pending_requests() == []

    def test_completed_receive_is_not_reported(self):
        with track() as scope:
            comms = create_communicator("threads", 2)
            comms[0].send(np.ones(3), 1, 4)
            request = comms[1].irecv(0, 4)
            request.wait(timeout=5.0)
            assert scope.pending_requests() == []

    def test_pending_receive_is_reported_with_metadata(self):
        with track() as scope:
            comms = create_communicator("threads", 2)
            request = comms[0].irecv(1, 42)
            leaks = scope.pending_requests()
            assert len(leaks) == 1
            assert leaks[0].kind == "RecvRequest"
            assert "source=1" in leaks[0].detail
            assert "rank 0" in leaks[0].detail
            assert "tag=42" in leaks[0].detail
            request.cancel()  # retire the deliberate leak


class TestUnreleasedEnvelopes:
    def test_unconsumed_message_is_reported_until_received(self):
        with track() as scope:
            comms = create_communicator("threads", 2)
            comms[0].send(np.ones(8), 1, 2)
            envelopes = scope.unreleased_envelopes()
            assert len(envelopes) == 1
            assert envelopes[0].kind == "Envelope"
            assert "tag=2" in envelopes[0].detail
            comms[1].recv(0, 2)
            assert scope.unreleased_envelopes() == []

    def test_format_leaks(self):
        with track() as scope:
            comms = create_communicator("threads", 2)
            comms[0].send(np.ones(2), 1, 7)
            text = format_leaks(scope.leaks())
            assert "1 leaked resource(s)" in text
            assert "Envelope" in text
            comms[1].recv(0, 7)
        assert format_leaks([]) == "no leaked requests or envelopes"


class TestScopeSemantics:
    def test_earlier_traffic_is_out_of_scope(self):
        comms = create_communicator("threads", 2)
        comms[0].send(np.ones(2), 1, 1)
        with track() as scope:
            assert scope.unreleased_envelopes() == []
        comms[1].recv(0, 1)

    def test_nested_scopes_compose(self):
        with track() as outer:
            comms = create_communicator("threads", 2)
            with track() as inner:
                comms[0].send(np.ones(2), 1, 3)
                assert len(inner.unreleased_envelopes()) == 1
            # Inner exit must not clear the outer scope's view.
            assert len(outer.unreleased_envelopes()) == 1
            comms[1].recv(0, 3)

    def test_tracker_disabled_records_nothing(self):
        # The global test guard keeps the tracker enabled; drain its
        # refcount to observe true-disabled behavior, then restore.
        depth = 0
        while TRACKER.enabled:
            TRACKER.disable()
            depth += 1
        try:
            comms = create_communicator("threads", 2)
            request = comms[1].irecv(0, 11)
            assert TRACKER.pending_requests() == []
            request.cancel()
        finally:
            for _ in range(depth):
                TRACKER.enable()


class TestFinalizerWarnings:
    def test_unawaited_receive_warns_on_gc(self):
        comms = create_communicator("threads", 2)
        request = comms[1].irecv(0, 5)
        with pytest.warns(ResourceWarning, match="SPMD002"):
            del request
            gc.collect()

    def test_warning_names_the_receive(self):
        comms = create_communicator("threads", 2)
        request = comms[1].irecv(0, 9)
        with pytest.warns(ResourceWarning, match=r"RecvRequest\(source=0, tag=9\)"):
            del request
            gc.collect()

    def test_warning_carries_origin_when_tracked(self):
        with track(capture_tracebacks=True):
            comms = create_communicator("threads", 2)
            request = comms[1].irecv(0, 6)
            with pytest.warns(ResourceWarning, match="created at"):
                del request
                gc.collect()

    def test_completed_request_does_not_warn(self):
        comms = create_communicator("threads", 2)
        comms[0].send(np.ones(2), 1, 8)
        request = comms[1].irecv(0, 8)
        request.wait(timeout=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            del request
            gc.collect()

    def test_cancelled_request_does_not_warn(self):
        comms = create_communicator("threads", 2)
        request = comms[1].irecv(0, 12)
        request.cancel()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            del request
            gc.collect()


#: Requests deliberately kept alive past a marked test's teardown, so
#: the global guard's opt-out path is genuinely exercised (see below).
_DELIBERATE_LEAKS = []


class TestPytestPlugin:
    def test_leak_guard_fixture_passes_clean_test(self, spmd_leak_guard):
        comms = create_communicator("threads", 2)
        comms[0].send(np.ones(2), 1, 1)
        comms[1].recv(0, 1)
        assert spmd_leak_guard.leaks() == []

    @pytest.mark.spmd_allow_leaks
    def test_allow_leaks_marker_opts_out(self):
        # A live, never-completed request survives this test's teardown;
        # without the marker the global guard would fail it.
        comms = create_communicator("threads", 2)
        _DELIBERATE_LEAKS.append(comms[1].irecv(0, 3))

    def test_marker_leak_cleanup(self):
        # Runs after the marked test (file order): retire its leak so
        # nothing lingers.  The guard's per-test mark means this test is
        # not blamed for the pre-existing request either way.
        while _DELIBERATE_LEAKS:
            _DELIBERATE_LEAKS.pop().cancel()
