"""Zero-copy fast lane: value semantics must survive buffer sharing.

The snapshot-once broadcast shares ONE immutable payload copy across all
``p - 1`` receiver envelopes, and ``gatherv_rows`` assembles blocks
directly into one root buffer.  These tests pin down the
semantics that make that sharing safe:

* mutating a sent buffer after the send never reaches any receiver;
* no receiver can corrupt what another receiver observed (the shared
  snapshot is read-only);
* lazily sized envelopes still report correct wire sizes to the tracer.
"""

import numpy as np
import pytest

from repro.smpi import run_spmd
from repro.smpi.message import Envelope, copy_payload, freeze_payload


class TestFreezePayload:
    def test_array_frozen_copy(self):
        a = np.arange(4.0)
        frozen, shareable = freeze_payload(a)
        assert shareable
        assert frozen is not a
        assert not frozen.flags.writeable
        a[0] = 99.0
        assert frozen[0] == 0.0

    def test_already_frozen_shared_without_copy(self):
        a = np.arange(3.0)
        a.flags.writeable = False
        frozen, shareable = freeze_payload(a)
        assert shareable
        assert frozen is a

    def test_scalars_shareable(self):
        for obj in (None, 1, 2.5, True, "s", b"b"):
            frozen, shareable = freeze_payload(obj)
            assert shareable
            assert frozen is obj or frozen == obj

    def test_tuple_of_arrays_frozen(self):
        payload = (np.arange(3.0), np.ones(2), 7)
        frozen, shareable = freeze_payload(payload)
        assert shareable
        assert isinstance(frozen, tuple)
        assert not frozen[0].flags.writeable
        payload[0][0] = 5.0
        assert frozen[0][0] == 0.0

    def test_mutable_containers_not_shareable(self):
        for obj in ([np.ones(2)], {"x": np.ones(2)}, object()):
            _, shareable = freeze_payload(obj)
            assert not shareable

    def test_tuple_with_mutable_member_not_shareable(self):
        _, shareable = freeze_payload((np.ones(2), [1, 2]))
        assert not shareable


class TestCopyPayloadReadOnlyFastPath:
    def test_readonly_array_not_copied(self):
        a = np.arange(5.0)
        a.flags.writeable = False
        assert copy_payload(a) is a

    def test_writable_array_still_copied(self):
        a = np.arange(5.0)
        c = copy_payload(a)
        assert c is not a
        a[0] = -1.0
        assert c[0] == 0.0

    def test_readonly_view_of_writable_base_still_copied(self):
        """A writeable=False VIEW tracks its writable base, so it is not
        an immutable snapshot and must be copied (value semantics)."""
        base = np.arange(6.0)
        view = np.broadcast_to(base, (2, 6))  # read-only, base writable
        c = copy_payload(view)
        assert c is not view
        base[0] = 99.0
        assert c[0, 0] == 0.0

    def test_freeze_readonly_view_copies(self):
        base = np.arange(4.0)
        view = base[:3]
        view.flags.writeable = False
        frozen, shareable = freeze_payload(view)
        assert shareable
        assert frozen is not view
        base[0] = -1.0
        assert frozen[0] == 0.0


class TestLazyEnvelopeSizing:
    def test_nbytes_computed_lazily_and_cached(self):
        env = Envelope.make(0, 1, np.zeros(10))
        assert env._nbytes is None  # not sized by the send
        assert env.nbytes == 80
        assert env._nbytes == 80  # cached

    def test_unsizable_payload_sends_fine(self):
        # The sizing walk only happens if something reads nbytes.
        class Opaque:
            def __reduce__(self):
                raise RuntimeError("never pickle me")

        env = Envelope.presnapshotted(0, 1, Opaque())
        assert env.payload is not None
        assert env.nbytes == 0  # sizing failure degrades to 0 on demand

    def test_presnapshotted_skips_copy(self):
        a = np.arange(3.0)
        env = Envelope.presnapshotted(0, 1, a)
        assert env.payload is a


class TestBcastValueSemantics:
    def test_root_mutation_after_bcast_invisible(self):
        """Mutating the sent buffer never affects receivers (satellite:
        mutation test for the shared-snapshot bcast)."""

        def job(comm):
            data = np.arange(6.0) if comm.rank == 0 else None
            out = comm.bcast(data, root=0)
            if comm.rank == 0:
                data[:] = -1.0  # after the send: must not reach anyone
            comm.barrier()
            return np.array(out)

        results = run_spmd(4, job)
        assert np.array_equal(results[0], np.full(6, -1.0))  # root's own
        for received in results[1:]:
            assert np.array_equal(received, np.arange(6.0))

    def test_receivers_share_one_readonly_snapshot(self):
        def job(comm):
            data = np.arange(4.0) if comm.rank == 0 else None
            out = comm.bcast(data, root=0)
            comm.barrier()
            return id(out), (None if comm.rank == 0 else out.flags.writeable)

        results = run_spmd(3, job)
        ids = [r[0] for r in results]
        # one copy for all receivers, distinct from the root's object
        assert ids[1] == ids[2] != ids[0]
        assert results[1][1] is False and results[2][1] is False

    def test_receiver_cannot_corrupt_other_receivers(self):
        def job(comm):
            data = np.arange(4.0) if comm.rank == 0 else None
            out = comm.bcast(data, root=0)
            if comm.rank == 1:
                with pytest.raises(ValueError):
                    out[0] = 99.0  # shared snapshot is immutable
            comm.barrier()
            return np.array(out)

        results = run_spmd(3, job)
        for received in results:
            assert np.array_equal(received, np.arange(4.0))

    def test_tuple_payload_shared_frozen(self):
        def job(comm):
            payload = (np.ones(3), np.zeros(2)) if comm.rank == 0 else None
            u, s = comm.bcast(payload, root=0)
            if comm.rank == 0:
                payload[0][:] = 7.0
            comm.barrier()
            return np.array(u), np.array(s)

        results = run_spmd(3, job)
        for u, s in results[1:]:
            assert np.array_equal(u, np.ones(3))
            assert np.array_equal(s, np.zeros(2))

    def test_unshareable_payload_still_copied_per_peer(self):
        def job(comm):
            payload = {"w": np.arange(3.0)} if comm.rank == 0 else None
            out = comm.bcast(payload, root=0)
            if comm.rank == 0:
                payload["w"][0] = -5.0
            comm.barrier()
            out_id = id(out["w"])
            comm.barrier()
            return np.array(out["w"]), out_id

        results = run_spmd(3, job)
        for arr, _ in results[1:]:
            assert np.array_equal(arr, np.arange(3.0))
        # mutable containers must NOT share buffers between receivers
        assert results[1][1] != results[2][1]


class TestGathervZeroCopy:
    def test_sender_mutation_after_send_invisible(self):
        def job(comm):
            block = np.full((2, 3), float(comm.rank))
            out = comm.gatherv_rows(block, root=0)
            block[:] = -99.0  # after the send
            comm.barrier()
            return None if out is None else np.array(out)

        results = run_spmd(3, job)
        stacked = results[0]
        for rank in range(3):
            assert np.array_equal(
                stacked[2 * rank : 2 * rank + 2], np.full((2, 3), float(rank))
            )

    def test_ragged_counts(self):
        def job(comm):
            block = np.full((comm.rank + 1, 2), float(comm.rank))
            return comm.gatherv_rows(block, root=0)

        stacked = run_spmd(3, job)[0]
        assert stacked.shape == (6, 2)
        assert np.array_equal(stacked[:1], np.zeros((1, 2)))
        assert np.array_equal(stacked[1:3], np.ones((2, 2)))
        assert np.array_equal(stacked[3:], np.full((3, 2), 2.0))

    def test_mixed_dtype_blocks_promote(self):
        """Root f32 + peer f64 must promote like np.concatenate (the
        pre-PR and generic-mixin behavior), not truncate to the root's
        dtype."""

        def job(comm):
            dtype = np.float32 if comm.rank == 0 else np.float64
            block = np.full((1, 2), np.pi, dtype=dtype)
            out = comm.gatherv_rows(block, root=0)
            return None if out is None else (out.dtype, np.array(out))

        dtype, stacked = run_spmd(2, job)[0]
        assert dtype == np.float64
        assert stacked[1, 0] == np.pi  # full f64 precision preserved

class TestGenericMixinGatherv:
    """The mixin fallback (used by backends without the threaded override,
    e.g. the mpi4py adapter) must match the threaded semantics."""

    class _FakeComm:
        from repro.smpi.derived import DerivedCollectivesMixin

        def __init__(self, blocks):
            self._blocks = blocks
            self.rank, self.size = 0, len(blocks)

        def gather(self, obj, root=0):
            return list(self._blocks)

        gatherv_rows = DerivedCollectivesMixin.gatherv_rows

    def test_stacks_and_promotes(self):
        comm = self._FakeComm(
            [np.ones((2, 3), dtype=np.float32), np.zeros((1, 3))]
        )
        out = comm.gatherv_rows(np.ones((2, 3), dtype=np.float32))
        assert out.shape == (3, 3) and out.dtype == np.float64

    def test_width_mismatch_raises_not_broadcasts(self):
        from repro.smpi.exceptions import SmpiError

        comm = self._FakeComm([np.ones((2, 3)), np.zeros((2, 1))])
        with pytest.raises(SmpiError):
            comm.gatherv_rows(np.ones((2, 3)))

class TestTracerStillSized:
    def test_bcast_bytes_accounted_with_shared_snapshot(self):
        def job(comm):
            data = np.zeros(10) if comm.rank == 0 else None
            comm.bcast(data, root=0)
            return comm.bytes_for("bcast")

        results = run_spmd(3, job, trace=True)[0]
        # root: (p-1) * 80 bytes; receivers: 80 each
        assert results[0] == 160
        assert results[1] == 80 and results[2] == 80

    def test_gatherv_bytes_accounted(self):
        def job(comm):
            comm.gatherv_rows(np.zeros((2, 5)), root=0)
            return comm.bytes_for("gatherv")

        results = run_spmd(3, job, trace=True)[0]
        assert results[0] == 160  # two remote 80-byte blocks received
        assert results[1] == 80 and results[2] == 80
