"""Point-to-point semantics of the smpi runtime."""

import numpy as np
import pytest

from repro.smpi import ANY_SOURCE, ANY_TAG, run_spmd
from repro.smpi.exceptions import RankError, TagError


class TestSendRecv:
    def test_basic_roundtrip(self):
        def job(comm):
            if comm.rank == 0:
                comm.send({"a": 7}, dest=1, tag=3)
                return None
            return comm.recv(source=0, tag=3)

        results = run_spmd(2, job)
        assert results[1] == {"a": 7}

    def test_numpy_payload(self):
        def job(comm):
            if comm.rank == 0:
                comm.send(np.arange(10.0), dest=1)
                return None
            return comm.recv(source=0)

        results = run_spmd(2, job)
        assert np.array_equal(results[1], np.arange(10.0))

    def test_value_semantics_mutation_after_send(self):
        """Mutating a sent array must not affect the receiver (MPI copies)."""

        def job(comm):
            if comm.rank == 0:
                data = np.zeros(4)
                comm.send(data, dest=1, tag=0)
                data[:] = 99.0  # mutate after send
                comm.barrier()
                return None
            comm.barrier()
            return comm.recv(source=0, tag=0)

        results = run_spmd(2, job)
        assert np.array_equal(results[1], np.zeros(4))

    def test_tag_selectivity(self):
        """recv(tag=t) must skip non-matching messages."""

        def job(comm):
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            return first, second

        results = run_spmd(2, job)
        assert results[1] == ("first", "second")

    def test_any_source_any_tag(self):
        def job(comm):
            if comm.rank == 2:
                got = {comm.recv(source=ANY_SOURCE, tag=ANY_TAG) for _ in range(2)}
                return got
            comm.send(comm.rank, dest=2, tag=comm.rank)
            return None

        results = run_spmd(3, job)
        assert results[2] == {0, 1}

    def test_non_overtaking_same_source_tag(self):
        def job(comm):
            if comm.rank == 0:
                for i in range(20):
                    comm.send(i, dest=1, tag=5)
                return None
            return [comm.recv(source=0, tag=5) for _ in range(20)]

        results = run_spmd(2, job)
        assert results[1] == list(range(20))

    def test_invalid_dest_raises(self):
        from repro.smpi import ParallelFailure

        def job(comm):
            comm.send(1, dest=5)

        with pytest.raises(ParallelFailure) as info:
            run_spmd(2, job)
        assert all(
            isinstance(f.exception, RankError) for f in info.value.failures
        )

    def test_negative_user_tag_rejected(self):
        from repro.smpi import ParallelFailure

        def job(comm):
            if comm.rank == 0:
                comm.send(1, dest=1, tag=-3)

        with pytest.raises(ParallelFailure) as info:
            run_spmd(2, job, timeout=5.0)
        assert any(
            isinstance(f.exception, TagError) for f in info.value.failures
        )


class TestNonblocking:
    def test_isend_irecv(self):
        def job(comm):
            if comm.rank == 0:
                req = comm.isend([1, 2, 3], dest=1, tag=9)
                req.wait()
                return None
            req = comm.irecv(source=0, tag=9)
            return req.wait()

        results = run_spmd(2, job)
        assert results[1] == [1, 2, 3]

    def test_irecv_test_polls(self):
        def job(comm):
            if comm.rank == 0:
                comm.barrier()
                comm.send("late", dest=1, tag=0)
                return None
            req = comm.irecv(source=0, tag=0)
            done_before, _ = req.test()
            comm.barrier()
            payload = req.wait()
            return done_before, payload

        results = run_spmd(2, job)
        done_before, payload = results[1]
        assert done_before is False
        assert payload == "late"

    def test_send_request_always_done(self):
        def job(comm):
            if comm.rank == 0:
                req = comm.isend(0, dest=1)
                done, payload = req.test()
                comm.recv(source=1)  # drain partner's message
                return done, payload
            comm.recv(source=0)
            comm.send(1, dest=0)
            return None

        results = run_spmd(2, job)
        assert results[0] == (True, None)


class TestDeadlockDetection:
    def test_recv_without_send_times_out(self):
        from repro.smpi import ParallelFailure
        from repro.smpi.exceptions import DeadlockError

        def job(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=7)  # never sent

        with pytest.raises(ParallelFailure) as info:
            run_spmd(2, job, timeout=1.0)
        assert any(
            isinstance(f.exception, DeadlockError)
            for f in info.value.failures
        )
