"""Communicator split/dup and context isolation."""

import pytest

from repro.smpi import SUM, SelfCommunicator, run_spmd


class TestSplit:
    def test_even_odd_split(self):
        def job(comm):
            sub = comm.split(color=comm.rank % 2)
            return sub.rank, sub.size, sub.bcast(sub.gather(comm.rank, root=0), root=0)

        results = run_spmd(4, job)
        # evens: world ranks 0, 2 -> sub ranks 0, 1
        assert results[0] == (0, 2, [0, 2])
        assert results[2] == (1, 2, [0, 2])
        # odds: world ranks 1, 3
        assert results[1] == (0, 2, [1, 3])
        assert results[3] == (1, 2, [1, 3])

    def test_key_reorders(self):
        def job(comm):
            # reverse ordering via descending key
            sub = comm.split(color=0, key=-comm.rank)
            return sub.rank

        results = run_spmd(4, job)
        assert results == [3, 2, 1, 0]

    def test_undefined_color_returns_none(self):
        def job(comm):
            color = None if comm.rank == 1 else 0
            sub = comm.split(color)
            return sub if sub is None else sub.size

        results = run_spmd(3, job)
        assert results[1] is None
        assert results[0] == 2 and results[2] == 2

    def test_context_isolation_from_parent(self):
        """A message sent on the parent must not be received on the child."""

        def job(comm):
            sub = comm.split(color=0)
            if comm.rank == 0:
                comm.send("parent-msg", dest=1, tag=4)
                sub.send("child-msg", dest=1, tag=4)
                return None
            child = sub.recv(source=0, tag=4)
            parent = comm.recv(source=0, tag=4)
            return parent, child

        results = run_spmd(2, job)
        assert results[1] == ("parent-msg", "child-msg")

    def test_nested_split(self):
        def job(comm):
            half = comm.split(color=comm.rank // 2)
            quarter = half.split(color=half.rank % 2)
            return quarter.size

        results = run_spmd(4, job)
        assert results == [1, 1, 1, 1]

    def test_split_collective_on_subcomm(self):
        def job(comm):
            sub = comm.split(color=comm.rank % 2)
            return sub.allreduce(comm.rank, SUM)

        results = run_spmd(6, job)
        assert results[0] == 0 + 2 + 4
        assert results[1] == 1 + 3 + 5


class TestDup:
    def test_dup_same_topology(self):
        def job(comm):
            dup = comm.dup()
            return dup.rank, dup.size

        results = run_spmd(3, job)
        assert results == [(0, 3), (1, 3), (2, 3)]

    def test_dup_isolated_traffic(self):
        def job(comm):
            dup = comm.dup()
            if comm.rank == 0:
                dup.send(1, dest=1, tag=0)
                comm.send(2, dest=1, tag=0)
                return None
            original = comm.recv(source=0, tag=0)
            duplicated = dup.recv(source=0, tag=0)
            return original, duplicated

        results = run_spmd(2, job)
        assert results[1] == (2, 1)


class TestSelfComm:
    def test_size_one(self):
        comm = SelfCommunicator()
        assert comm.rank == 0
        assert comm.size == 1

    def test_collectives_degenerate(self):
        comm = SelfCommunicator()
        assert comm.bcast(5) == 5
        assert comm.gather(3) == [3]
        assert comm.bcast(comm.gather("x")) == ["x"]
        assert comm.allreduce(2, SUM) == 2
        comm.barrier()
