"""Collective operations of the smpi runtime."""

import numpy as np

from repro.smpi import SUM, run_spmd


class TestBcast:
    def test_scalar(self):
        def job(comm):
            value = 42 if comm.rank == 0 else None
            return comm.bcast(value, root=0)

        assert run_spmd(4, job) == [42, 42, 42, 42]

    def test_array_copies_to_receivers(self):
        def job(comm):
            data = np.arange(5.0) if comm.rank == 0 else None
            out = comm.bcast(data, root=0)
            out_id = id(out)
            comm.barrier()
            return np.array(out), out_id

        results = run_spmd(3, job)
        arrays = [r[0] for r in results]
        ids = [r[1] for r in results]
        for arr in arrays:
            assert np.array_equal(arr, np.arange(5.0))
        # receivers must hold copies, not the root's object
        assert ids[1] != ids[0] and ids[2] != ids[0]

    def test_nonzero_root(self):
        def job(comm):
            value = "hello" if comm.rank == 2 else None
            return comm.bcast(value, root=2)

        assert run_spmd(4, job) == ["hello"] * 4

    def test_single_rank(self):
        assert run_spmd(1, lambda c: c.bcast(7, root=0)) == [7]


class TestGatherScatter:
    def test_gather_rank_order(self):
        def job(comm):
            return comm.gather(comm.rank * 10, root=0)

        results = run_spmd(5, job)
        assert results[0] == [0, 10, 20, 30, 40]
        assert all(r is None for r in results[1:])

    def test_gather_nonzero_root(self):
        def job(comm):
            return comm.gather(chr(ord("a") + comm.rank), root=1)

        results = run_spmd(3, job)
        assert results[1] == ["a", "b", "c"]
        assert results[0] is None

    def test_gatherv_rows(self):
        def job(comm):
            block = np.full((comm.rank + 1, 2), float(comm.rank))
            return comm.gatherv_rows(block, root=0)

        results = run_spmd(3, job)
        stacked = results[0]
        assert stacked.shape == (6, 2)
        assert np.array_equal(stacked[:1], np.zeros((1, 2)))
        assert np.array_equal(stacked[1:3], np.ones((2, 2)))
        assert np.array_equal(stacked[3:], np.full((3, 2), 2.0))

class TestReductions:
    def test_allreduce_sum(self):
        def job(comm):
            return comm.allreduce(comm.rank + 1, SUM)

        assert run_spmd(4, job) == [10, 10, 10, 10]

    def test_allreduce_array_elementwise(self):
        def job(comm):
            return comm.allreduce(np.array([comm.rank, 1.0]), SUM)

        results = run_spmd(3, job)
        for r in results:
            assert np.array_equal(r, np.array([3.0, 3.0]))

    def test_reduction_deterministic_order(self):
        """Rank-ordered fold: floating-point result is exactly repeatable."""

        def job(comm):
            contribution = (0.1 + comm.rank) * 1e-7
            return comm.allreduce(contribution, SUM)

        first = run_spmd(4, job)
        second = run_spmd(4, job)
        assert first == second


class TestAlltoallBarrier:
    def test_barrier_orders_phases(self):
        """A message sent after the barrier cannot be received before it."""
        import threading

        hits = []
        lock = threading.Lock()

        def job(comm):
            with lock:
                hits.append(("pre", comm.rank))
            comm.barrier()
            with lock:
                hits.append(("post", comm.rank))

        run_spmd(4, job)
        pre_indices = [i for i, (phase, _) in enumerate(hits) if phase == "pre"]
        post_indices = [i for i, (phase, _) in enumerate(hits) if phase == "post"]
        assert max(pre_indices) < min(post_indices)


class TestSequencesOfCollectives:
    def test_back_to_back_bcasts_keep_order(self):
        def job(comm):
            a = comm.bcast("one" if comm.rank == 0 else None, root=0)
            b = comm.bcast("two" if comm.rank == 0 else None, root=0)
            return a, b

        results = run_spmd(4, job)
        for r in results:
            assert r == ("one", "two")

    def test_mixed_collective_pipeline(self):
        def job(comm):
            total = comm.allreduce(comm.rank, SUM)
            ranks = comm.bcast(comm.gather(comm.rank, root=0), root=0)
            piece = comm.bcast(
                list(range(comm.size)) if comm.rank == 0 else None, root=0
            )[comm.rank]
            return total, ranks, piece

        results = run_spmd(4, job)
        for rank, (total, ranks, piece) in enumerate(results):
            assert total == 6
            assert ranks == [0, 1, 2, 3]
            assert piece == rank
