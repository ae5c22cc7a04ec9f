"""Mpi4pyCommunicator unit tests over a fake, threads-backed MPI stand-in.

The real adapter only runs under an MPI launcher, but its *configuration
logic* — notably the per-``irecv`` preposted receive-buffer size, which
mpi4py's pickle mode cannot probe and therefore truncates — is pure
Python.  These tests drive it against a minimal duck-typed ``MPI`` module
so the ``BackendConfig.irecv_buffer_bytes`` plumbing is exercised in this
container (no mpi4py needed)."""

import numpy as np
import pytest

import repro.smpi.mpi as mpi_module
from repro.config import BackendConfig
from repro.smpi import SmpiError, create_communicator, run_backend
from repro.smpi.mpi import Mpi4pyCommunicator


class FakeRequest:
    def wait(self):
        return None

    def test(self):
        return True, None


class FakeComm:
    """Just enough of ``mpi4py.MPI.Comm`` for the adapter's constructor,
    ``irecv``, ``gather``/``bcast`` and ``Dup``/``Split`` paths."""

    def __init__(self, rank=0, size=1):
        self._rank = rank
        self._size = size
        self.irecv_buffer_sizes = []

    def Get_rank(self):
        return self._rank

    def Get_size(self):
        return self._size

    def irecv(self, buf, source, tag):
        self.irecv_buffer_sizes.append(len(buf))
        return FakeRequest()

    def gather(self, obj, root=0):
        return [obj] * self._size

    def bcast(self, obj, root=0):
        return obj

    def Dup(self):
        return FakeComm(self._rank, self._size)

    def Split(self, color, key):
        return FakeComm(0, 1)


class FakeMPI:
    ANY_SOURCE = -99
    ANY_TAG = -98
    COMM_NULL = object()

    def __init__(self):
        self.COMM_WORLD = FakeComm()


@pytest.fixture
def fake_mpi(monkeypatch):
    fake = FakeMPI()
    monkeypatch.setattr(mpi_module, "_MPI", fake)
    monkeypatch.setattr(mpi_module, "HAVE_MPI4PY", True)
    return fake


class TestIrecvBufferBytes:
    def test_default_buffer_size(self, fake_mpi):
        comm = Mpi4pyCommunicator(fake_mpi.COMM_WORLD)
        assert comm.irecv_buffer_bytes == 1 << 24

    def test_configured_buffer_reaches_every_irecv(self, fake_mpi):
        comm = Mpi4pyCommunicator(fake_mpi.COMM_WORLD, irecv_buffer_bytes=4096)
        comm.irecv(source=0, tag=7)
        comm.irecv()  # wildcard source/tag path
        assert fake_mpi.COMM_WORLD.irecv_buffer_sizes == [4096, 4096]

    def test_invalid_buffer_size_rejected(self, fake_mpi):
        with pytest.raises(SmpiError, match="irecv_buffer_bytes"):
            Mpi4pyCommunicator(fake_mpi.COMM_WORLD, irecv_buffer_bytes=0)

    def test_buffer_size_propagates_through_dup_and_split(self, fake_mpi):
        comm = Mpi4pyCommunicator(fake_mpi.COMM_WORLD, irecv_buffer_bytes=8192)
        assert comm.dup().irecv_buffer_bytes == 8192
        child = comm.split(color=0)
        assert child is not None
        assert child.irecv_buffer_bytes == 8192

    def test_create_communicator_passes_knob_through(self, fake_mpi):
        comm = create_communicator(
            "mpi4py",
            1,
            mpi_comm=fake_mpi.COMM_WORLD,
            irecv_buffer_bytes=12345,
        )
        assert comm.irecv_buffer_bytes == 12345

    def test_create_communicator_none_keeps_adapter_default(self, fake_mpi):
        comm = create_communicator(
            "mpi4py", 1, mpi_comm=fake_mpi.COMM_WORLD, irecv_buffer_bytes=None
        )
        assert comm.irecv_buffer_bytes == 1 << 24

    def test_run_backend_passes_knob_through(self, fake_mpi):
        """Session.run's dispatch path: run_backend must hand the knob to
        the adapter, not silently fall back to the default buffer."""

        def job(comm):
            return comm.irecv_buffer_bytes

        results = run_backend("mpi4py", 1, job, irecv_buffer_bytes=54321)
        assert results == [54321]

    def test_backend_config_carries_the_knob(self):
        assert BackendConfig(
            name="mpi4py", irecv_buffer_bytes=4096
        ).irecv_buffer_bytes == 4096

    def test_threads_backend_accepts_and_ignores_knob(self):
        comms = create_communicator("threads", 2, irecv_buffer_bytes=4096)
        assert len(comms) == 2
        # probe-sized transports have no preposted-buffer cap to configure
        assert not hasattr(comms[0], "irecv_buffer_bytes")


@pytest.mark.parametrize("ndim", [1, 3], ids=["1d", "3d"])
@pytest.mark.parametrize(
    "backend,size",
    [("self", 1), ("threads", 1), ("threads", 2), ("mpi4py", 1)],
    ids=["self", "threads-1", "threads-2", "fake-mpi4py"],
)
def test_gatherv_rows_rejects_a_non_2d_block(request, backend, size, ndim):
    """Every backend checks the block before any traffic and raises the
    same SmpiError for a block that is not 2-D."""
    if backend == "mpi4py":
        request.getfixturevalue("fake_mpi")
    block = np.zeros((3,) if ndim == 1 else (3, 2, 2))

    def job(comm):
        with pytest.raises(
            SmpiError, match=f"expects a 2-D row block, got ndim={ndim}"
        ):
            comm.gatherv_rows(block, root=0)
        return True

    assert run_backend(backend, size, job) == [True] * size
