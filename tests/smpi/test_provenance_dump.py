"""DeadlockError enrichment: a timed-out receive appends the provenance
tracker's dump of every request still in flight — the diagnosis rides in
the exception instead of needing a debugger."""

import gc
import threading

import pytest

from repro.smpi import create_communicator, provenance
from repro.smpi.exceptions import DeadlockError


def test_deadlock_message_lists_pending_requests():
    comms = create_communicator("threads", 2, timeout=0.2)
    comm = comms[0]
    with provenance.track():
        outstanding = comm.irecv(source=1, tag=7)
        with pytest.raises(DeadlockError) as excinfo:
            comm.recv(source=1, tag=9)
        message = str(excinfo.value)
        assert "timed out" in message
        assert "request(s) still pending" in message
        # The un-matched irecv is named with its (source, tag) pattern.
        assert "RecvRequest" in message
        assert "source=1, tag=7" in message
        outstanding.cancel()


def test_deadlocked_wait_reports_other_pending_requests():
    comms = create_communicator("threads", 2, timeout=5.0)
    comm = comms[0]
    with provenance.track():
        first = comm.irecv(source=1, tag=1)
        second = comm.irecv(source=1, tag=2)
        with pytest.raises(DeadlockError) as excinfo:
            first.wait(timeout=0.1)
        message = str(excinfo.value)
        assert "deadlocked nonblocking receive" in message
        assert "source=1, tag=2" in message
        first.cancel()
        second.cancel()


def test_dump_silent_outside_tracking():
    """Without provenance tracking the timeout message stays lean."""
    comms = create_communicator("threads", 2, timeout=0.1)
    comm = comms[0]
    with pytest.raises(DeadlockError) as excinfo:
        comm.recv(source=1, tag=3)
    assert "still pending" not in str(excinfo.value)


def test_track_scope_reports_and_clears():
    comms = create_communicator("threads", 2, timeout=1.0)
    comm0, comm1 = comms
    with provenance.track() as scope:
        request = comm0.irecv(source=1, tag=4)
        leaks = scope.pending_requests()
        assert len(leaks) == 1
        assert "tag=4" in leaks[0].detail
        comm1.send("x", 0, tag=4)
        request.wait()
        assert scope.pending_requests() == []


def test_garbage_collection_inside_a_locked_section_does_not_hang():
    """A tracked object freed by the cyclic collector fires its weakref
    callback wherever the collection happens — including inside the
    tracker's own locked section.  The callback must not take the lock."""
    tracker = provenance.RequestTracker()
    tracker.enable()

    class Cyclic:
        pass

    obj = Cyclic()
    obj.self_ref = obj  # only the cyclic collector can free it
    tracker.note_request(obj, "Cyclic", "detail")
    del obj

    def collect_while_locked():
        with tracker._lock:
            gc.collect()

    worker = threading.Thread(target=collect_while_locked, daemon=True)
    worker.start()
    worker.join(timeout=10.0)
    assert not worker.is_alive(), "weakref callback deadlocked on the lock"
    assert tracker.pending_requests() == []
    assert tracker._requests == {}
    tracker.disable()
