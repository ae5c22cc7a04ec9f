"""Unit tests for the distributed TSQR variants."""

import numpy as np
import pytest

from repro.core.tsqr import (
    TsqrStep,
    finish_now,
    reduction_schedule,
    tree_fan_in,
    tsqr_gather,
    tsqr_tree,
)
from repro.core.workspace import Workspace
from repro.smpi import SelfCommunicator, run_spmd
from repro.utils.linalg import orthogonality_defect, qr_positive
from repro.utils.partition import block_partition


def identity_reduce(r):
    """The plain-TSQR reduce: no combine factor, ``R`` rides the reply."""
    return np.eye(r.shape[0], dtype=r.dtype), r


def pooled_tsqr(comm, block, variant, workspace):
    """One step as the streaming driver runs it: posted over an F-ordered
    scratch copy of ``block`` (factored in place) with the rank's
    long-lived ``workspace`` pooling the ``R`` stacks, finished at once."""
    step = TsqrStep(comm, np.array(block, order="F"), workspace, variant)
    return finish_now(step, identity_reduce)


def run_tsqr(data, nranks, variant, workspace=False):
    """Run one TSQR variant over row blocks of ``data``.

    ``workspace=True`` takes the pooled lane instead of the blocking
    functions: each rank keeps one Workspace, and a first step over other
    data of the same shape leaves its ``R`` stacks dirty for the checked
    one.
    """
    m = data.shape[0]
    fn = tsqr_gather if variant == "gather" else tsqr_tree

    def job(comm):
        part = block_partition(m, comm.size)
        block = data[part.slice_of(comm.rank), :]
        if not workspace:
            return fn(comm, block)
        pool = Workspace()
        pooled_tsqr(comm, block[::-1] + 1.0, variant, pool)
        return pooled_tsqr(comm, block, variant, pool)

    results = run_spmd(nranks, job)
    q = np.concatenate([r[0] for r in results], axis=0)
    return q, results[0][1], [r[1] for r in results]


@pytest.mark.parametrize("variant", ["gather", "tree"])
class TestTsqrCommon:
    #: Whether the checks run on the pooled step lane.
    workspace = False

    @pytest.mark.parametrize("nranks", [1, 2, 3, 4, 5, 7, 8])
    def test_matches_serial_qr(self, rng, variant, nranks):
        a = rng.standard_normal((160, 12))
        q, r, _ = run_tsqr(a, nranks, variant, self.workspace)
        q_ref, r_ref = qr_positive(a)
        assert np.allclose(r, r_ref, atol=1e-9)
        assert np.allclose(q, q_ref, atol=1e-8)

    def test_reconstruction(self, rng, variant):
        a = rng.standard_normal((90, 7))
        q, r, _ = run_tsqr(a, 3, variant, self.workspace)
        assert np.allclose(q @ r, a, atol=1e-10)

    def test_q_orthonormal(self, rng, variant):
        a = rng.standard_normal((120, 9))
        q, _, _ = run_tsqr(a, 4, variant, self.workspace)
        assert orthogonality_defect(q) < 1e-10

    def test_r_replicated_on_all_ranks(self, rng, variant):
        a = rng.standard_normal((60, 5))
        _, _, all_r = run_tsqr(a, 3, variant, self.workspace)
        for r in all_r[1:]:
            assert np.array_equal(r, all_r[0])

    def test_r_positive_diag(self, rng, variant):
        a = rng.standard_normal((80, 6))
        _, r, _ = run_tsqr(a, 4, variant, self.workspace)
        assert np.all(np.diagonal(r) >= 0)

    def test_single_rank(self, rng, variant):
        a = rng.standard_normal((40, 6))
        fn = tsqr_gather if variant == "gather" else tsqr_tree
        q_ref, r_ref = qr_positive(a)
        if self.workspace:
            q, r = pooled_tsqr(SelfCommunicator(), a, variant, Workspace())
        else:
            q, r = fn(SelfCommunicator(), a)
        assert np.allclose(q, q_ref)
        assert np.allclose(r, r_ref)


class TestTsqrCommonWorkspace(TestTsqrCommon):
    """The same checks on the pooled lane the streaming driver runs."""

    workspace = True

    @pytest.mark.parametrize("nranks", [1, 2, 3, 4])
    def test_results_survive_the_next_step(self, rng, variant, nranks):
        """A step's ``q_local`` and ``R`` own their memory: the next step
        on the same workspace, which refactors in the pooled ``R`` stacks,
        leaves them intact and gets its own factors right."""
        a = rng.standard_normal((90, 7))
        b = rng.standard_normal((90, 7))

        def job(comm):
            rows = block_partition(a.shape[0], comm.size).slice_of(comm.rank)
            pool = Workspace()
            q_a, r_a = pooled_tsqr(comm, a[rows], variant, pool)
            kept = q_a.copy(), r_a.copy()
            q_b, r_b = pooled_tsqr(comm, b[rows], variant, pool)
            intact = np.array_equal(q_a, kept[0]) and np.array_equal(r_a, kept[1])
            return intact, q_b, r_b

        results = run_spmd(nranks, job)
        assert all(intact for intact, _, _ in results)
        q_ref, r_ref = qr_positive(b)
        q_b = np.concatenate([q for _, q, _ in results], axis=0)
        assert np.allclose(q_b, q_ref, atol=1e-8)
        assert np.allclose(results[0][2], r_ref, atol=1e-9)


class TestBlockingCallerContract:
    @pytest.mark.parametrize("variant", ["gather", "tree"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_caller_block_unchanged_and_q_fresh(self, rng, variant, order):
        """The steps factor their input in place; the blocking functions
        hand them a private copy, so the caller's block survives and
        ``q_local`` owns its memory, on every rank."""
        a = rng.standard_normal((90, 7))
        fn = tsqr_gather if variant == "gather" else tsqr_tree

        def job(comm):
            part = block_partition(a.shape[0], comm.size)
            block = np.array(a[part.slice_of(comm.rank), :], order=order)
            before = block.copy()
            q, _ = fn(comm, block)
            again, _ = fn(comm, block)
            return (
                np.array_equal(block, before),
                np.shares_memory(q, block),
                np.shares_memory(q, again),
                np.array_equal(q, again),
            )

        for unchanged, q_aliases_input, calls_alias, same in run_spmd(3, job):
            assert unchanged
            assert not q_aliases_input
            assert not calls_alias
            assert same


class TestVariantsAgree:
    @pytest.mark.parametrize("nranks", [2, 3, 5, 6, 8])
    def test_gather_and_tree_identical(self, rng, nranks):
        a = rng.standard_normal((200, 10))
        qg, rg, _ = run_tsqr(a, nranks, "gather")
        qt, rt, _ = run_tsqr(a, nranks, "tree")
        assert np.allclose(rg, rt, atol=1e-9)
        assert np.allclose(qg, qt, atol=1e-8)


class TestReductionSchedule:
    """``reduction_schedule(rank, size, fan_in)`` is ``(merges, parent)``:
    the ``(level, children)`` this rank absorbs and the ``(rank, level)``
    that absorbs it."""

    @staticmethod
    def tree(size, fan_in):
        return [reduction_schedule(rank, size, fan_in) for rank in range(size)]

    @pytest.mark.parametrize("size", [2, 3, 4, 8])
    def test_flat_tree_is_the_gather(self, size):
        """At fan-in ``p`` rank 0 absorbs every other rank at level 0."""
        assert tree_fan_in("gather", size) == size
        root, *others = self.tree(size, tree_fan_in("gather", size))
        assert root == ([(0, list(range(1, size)))], None)
        assert others == [([], (0, 0))] * (size - 1)

    def test_binary_tree_of_three(self):
        """Rank 2 is absorbed at level 1 and absorbs nobody: a leaf."""
        assert tree_fan_in("tree", 3) == 2
        assert self.tree(3, 2) == [
            ([(0, [1]), (1, [2])], None),
            ([], (0, 0)),
            ([], (0, 1)),
        ]

    def test_binary_tree_of_four(self):
        """Rank 2 absorbs rank 3, then forwards to rank 0 at level 1."""
        assert self.tree(4, 2) == [
            ([(0, [1]), (1, [2])], None),
            ([], (0, 0)),
            ([(0, [3])], (0, 1)),
            ([], (2, 0)),
        ]

    def test_binary_tree_of_eight(self):
        assert self.tree(8, 2) == [
            ([(0, [1]), (1, [2]), (2, [4])], None),
            ([], (0, 0)),
            ([(0, [3])], (0, 1)),
            ([], (2, 0)),
            ([(0, [5]), (1, [6])], (0, 2)),
            ([], (4, 0)),
            ([(0, [7])], (4, 1)),
            ([], (6, 0)),
        ]

    def test_one_rank_is_a_lone_root(self):
        for variant in ("gather", "tree"):
            assert reduction_schedule(0, 1, tree_fan_in(variant, 1)) == ([], None)

    @pytest.mark.parametrize("size", [2, 3, 5, 6, 7, 8, 9])
    @pytest.mark.parametrize("fan_in", [2, 3, 4])
    def test_every_rank_reaches_the_root_once(self, size, fan_in):
        """Each non-root rank is absorbed exactly once, at the level its
        parent lists it, by a parent that is absorbed at a higher level."""
        schedule = self.tree(size, fan_in)
        absorbed = {
            child: (rank, level)
            for rank, (merges, _) in enumerate(schedule)
            for level, children in merges
            for child in children
        }
        assert sorted(absorbed) == list(range(1, size))
        for rank, (merges, parent) in enumerate(schedule[1:], start=1):
            assert parent == absorbed[rank]
            assert all(level < parent[1] for level, _ in merges)

    def test_degenerate_fan_in_rejected(self):
        with pytest.raises(ValueError):
            reduction_schedule(1, 4, 1)
        with pytest.raises(ValueError):
            tree_fan_in("sideways", 4)


class TestEdgeShapes:
    @pytest.mark.parametrize("variant", ["gather", "tree"])
    def test_ranks_with_fewer_rows_than_columns(self, rng, variant):
        """Blocks narrower than the column count still reduce correctly."""
        a = rng.standard_normal((10, 6))  # 4 ranks -> blocks of 3,3,2,2 rows
        q, r, _ = run_tsqr(a, 4, variant)
        assert np.allclose(q @ r, a, atol=1e-10)
        assert orthogonality_defect(q) < 1e-10

    def test_streaming_width(self, rng):
        """The streaming update factors (K + batch)-wide blocks."""
        a = rng.standard_normal((300, 25))
        q, r, _ = run_tsqr(a, 6, "gather")
        assert q.shape == (300, 25)
        assert np.allclose(q @ r, a, atol=1e-9)
