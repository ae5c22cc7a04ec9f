"""Nonblocking receive timeouts, cancellation and the envelope arena."""

import numpy as np
import pytest

from repro.smpi import run_backend, run_spmd
from repro.smpi.exceptions import DeadlockError, SmpiError
from repro.smpi.message import ENVELOPE_POOL, Envelope, take_payload


class TestRecvRequestTimeout:
    def test_wait_timeout_raises_descriptive_deadlock(self):
        """A deadlocked nonblocking receive fails fast with the pending
        (source, tag) pattern in the message — it must not hang for the
        mailbox's full default timeout."""

        def job(comm):
            if comm.rank == 0:
                request = comm.irecv(1, 7)
                with pytest.raises(DeadlockError) as excinfo:
                    request.wait(timeout=0.1)
                message = str(excinfo.value)
                assert "source=1" in message and "tag=7" in message
                assert "never posted" in message
                # Abandon the receive, so it is not dropped uncompleted.
                request.cancel()
            comm.barrier()
            return True

        assert run_spmd(2, job) == [True, True]

    def test_wait_timeout_delivers_when_message_arrives(self):
        def job(comm):
            if comm.rank == 0:
                return comm.irecv(1, 3).wait(timeout=30.0)
            comm.send("payload", dest=0, tag=3)
            return None

        assert run_spmd(2, job)[0] == "payload"

class TestRecvRequestCancel:
    @pytest.mark.parametrize("backend, size", [("self", 1), ("threads", 2)])
    def test_cancel_contract(self, backend, size):
        """Every in-process backend's receive request can be cancelled:
        it is then done with no payload, and cancelling a completed
        receive is refused."""

        def job(comm):
            peer = comm.size - 1 - comm.rank
            abandoned = comm.irecv(peer, 5)
            abandoned.cancel()
            comm.send("payload", dest=peer, tag=6)
            received = comm.irecv(peer, 6)
            payload = received.wait()
            with pytest.raises(SmpiError, match="completed"):
                received.cancel()
            return abandoned.test(), payload

        for cancelled, payload in run_backend(backend, size, job):
            assert cancelled == (True, None)
            assert payload == "payload"


class TestEnvelopePool:
    def test_shells_are_recycled(self):
        """take_payload returns the shell to the arena; the next make
        reuses it instead of allocating."""
        envelope = Envelope.make(0, 1, "hello")
        before = len(ENVELOPE_POOL)
        payload = take_payload(envelope)
        assert payload == "hello"
        assert envelope.payload is None  # stripped on release
        assert len(ENVELOPE_POOL) == before + 1
        recycled = Envelope.make(2, 3, "again")
        assert recycled is envelope
        assert (recycled.source, recycled.tag) == (2, 3)
        assert len(ENVELOPE_POOL) == before
        take_payload(recycled)

    def test_streaming_collective_traffic_reuses_shells(self):
        """After warmup, a steady collective loop grows the arena no
        further — envelope churn is allocation-free."""

        def job(comm):
            for _ in range(3):  # warmup
                comm.bcast(np.ones(4), root=0)
                comm.gatherv_rows(np.ones((2, 2)), root=0)
            high_water = len(ENVELOPE_POOL)
            for _ in range(10):
                comm.bcast(np.ones(4), root=0)
                comm.gatherv_rows(np.ones((2, 2)), root=0)
            comm.barrier()
            return high_water

        # The pool is process-global: just assert it never exceeds a sane
        # bound for this traffic (shells outstanding <= messages in flight).
        run_spmd(3, job)
        assert len(ENVELOPE_POOL) <= 512
