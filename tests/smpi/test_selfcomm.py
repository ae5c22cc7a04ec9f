"""SelfCommunicator: the zero-overhead single-rank backend.

Checks the full communicator protocol against the semantics the threaded
backend guarantees, so the two are interchangeable for size-1 runs.
"""

import numpy as np
import pytest

from repro.smpi import SUM, SelfCommunicator
from repro.smpi.exceptions import DeadlockError, RankError, TagError


@pytest.fixture
def comm():
    return SelfCommunicator()


class TestIdentity:
    def test_rank_and_size(self, comm):
        assert comm.rank == 0
        assert comm.size == 1
        assert comm.Get_rank() == 0
        assert comm.Get_size() == 1


class TestPointToPoint:
    def test_self_send_recv_roundtrip(self, comm):
        comm.send({"a": np.arange(3)}, dest=0, tag=7)
        out = comm.recv(source=0, tag=7)
        assert np.array_equal(out["a"], np.arange(3))

    def test_value_semantics_on_self_send(self, comm):
        payload = np.ones(4)
        comm.send(payload, dest=0, tag=1)
        payload[:] = -1.0
        assert np.array_equal(comm.recv(tag=1), np.ones(4))

    def test_tag_matching_is_fifo_per_tag(self, comm):
        comm.send("first", dest=0, tag=3)
        comm.send("second", dest=0, tag=3)
        comm.send("other", dest=0, tag=4)
        assert comm.recv(tag=3) == "first"
        assert comm.recv(tag=4) == "other"
        assert comm.recv(tag=3) == "second"

    def test_wildcards(self, comm):
        comm.send(42, dest=0, tag=9)
        assert comm.recv() == 42

    def test_recv_without_send_raises_deadlock(self, comm):
        with pytest.raises(DeadlockError):
            comm.recv(source=0, tag=0)

    def test_bad_peer_rejected(self, comm):
        with pytest.raises(RankError):
            comm.send(1, dest=1)
        with pytest.raises(RankError):
            comm.recv(source=2)

    def test_negative_tag_rejected(self, comm):
        with pytest.raises(TagError):
            comm.send(1, dest=0, tag=-3)

    def test_isend_irecv(self, comm):
        req = comm.isend(np.arange(5), dest=0, tag=2)
        assert req.wait() is None
        rreq = comm.irecv(source=0, tag=2)
        done, payload = rreq.test()
        assert done
        assert np.array_equal(payload, np.arange(5))

    def test_irecv_test_pending(self, comm):
        rreq = comm.irecv(source=0, tag=5)
        assert rreq.test() == (False, None)
        comm.send("late", dest=0, tag=5)
        assert rreq.test() == (True, "late")

class TestCollectives:
    def test_bcast_identity(self, comm):
        obj = np.arange(4)
        assert comm.bcast(obj, root=0) is obj

    def test_gather(self, comm):
        assert comm.gather(5) == [5]

    def test_gatherv_rows(self, comm):
        block = np.arange(6.0).reshape(3, 2)
        stacked = comm.gatherv_rows(block)
        assert np.array_equal(stacked, block)

    def test_reductions(self, comm):
        assert comm.allreduce(4.0, SUM) == 4.0

    def test_barrier_noop(self, comm):
        assert comm.barrier() is None


class TestManagement:
    def test_split_and_dup(self, comm):
        child = comm.split(color=3, key=0)
        assert isinstance(child, SelfCommunicator)
        assert comm.split(color=None) is None
        dup = comm.dup()
        assert dup.size == 1 and dup is not comm

    def test_split_queues_are_isolated(self, comm):
        child = comm.split(color=0)
        comm.send("parent", dest=0, tag=1)
        assert child.irecv().test() == (False, None)
        assert comm.recv(tag=1) == "parent"
