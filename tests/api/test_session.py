"""The `repro.api` facade: Session lifecycle, typed-config plumbing,
resume across backends/rank counts, and the locked public surface."""

import warnings

import numpy as np
import pytest

import repro
import repro.api
from repro import ParSVDParallel, ParSVDSerial
from repro.api import (
    BackendConfig,
    RunConfig,
    Session,
    SessionResult,
    SolverConfig,
    StreamConfig,
    checkpoint_run_config,
    load_run_config,
)
from repro.core.checkpoint import read_checkpoint
from repro.data.streams import array_stream, function_stream
from repro.exceptions import ConfigurationError, DataFormatError
from repro.smpi import run_spmd


@pytest.fixture
def data(rng):
    m, n, r = 120, 40, 8
    left = rng.standard_normal((m, r))
    right = rng.standard_normal((r, n))
    return (left * (0.6 ** np.arange(r))) @ right


def serial_reference(data, K=4, ff=1.0, batch=10):
    svd = ParSVDSerial(K=K, ff=ff)
    svd.initialize(data[:, :batch])
    for start in range(batch, data.shape[1], batch):
        svd.incorporate_data(data[:, start : start + batch])
    return svd


class TestApiSurface:
    def test_all_is_locked(self):
        """The public api surface is a contract: additions/removals must
        update this snapshot deliberately."""
        assert repro.api.__all__ == [
            "BackendConfig",
            "FaultConfig",
            "FaultSpec",
            "HealthConfig",
            "ObservabilityConfig",
            "RestartPolicy",
            "RunConfig",
            "ServingConfig",
            "Session",
            "SessionResult",
            "SolverConfig",
            "StreamConfig",
            "TenantSpec",
            "checkpoint_run_config",
            "load_run_config",
        ]

    def test_all_names_resolve(self):
        for name in repro.api.__all__:
            assert hasattr(repro.api, name), name

    def test_reexported_from_package_root(self):
        assert repro.Session is Session
        assert repro.RunConfig is RunConfig
        assert repro.SolverConfig is SolverConfig
        assert repro.BackendConfig is BackendConfig
        assert repro.StreamConfig is StreamConfig
        assert repro.SessionResult is SessionResult


class TestSessionBasics:
    def test_self_backend_matches_serial(self, data):
        cfg = RunConfig(
            solver=SolverConfig(K=4, ff=1.0),
            backend=BackendConfig(name="self"),
            stream=StreamConfig(batch=10),
        )
        with Session(cfg) as session:
            res = session.fit_stream(data).result()
        ref = serial_reference(data)
        assert isinstance(res, SessionResult)
        assert res.n_seen == data.shape[1]
        assert np.allclose(res.singular_values, ref.singular_values, rtol=1e-10)

    def test_section_shortcuts_override_config(self):
        session = Session(
            RunConfig(solver=SolverConfig(K=9)),
            solver=SolverConfig(K=3),
        )
        assert session.config.solver.K == 3

    def test_threads_run_matches_serial(self, data):
        cfg = RunConfig(
            solver=SolverConfig(K=4, ff=1.0),
            backend=BackendConfig(name="threads", size=3),
            stream=StreamConfig(batch=10),
        )

        def job(session):
            res = session.fit_stream(data).result()
            return np.array(res.modes), np.array(res.singular_values)

        results = Session.run(cfg, job)
        ref = serial_reference(data)
        for modes, values in results:
            assert np.allclose(values, ref.singular_values, rtol=1e-8)
            assert modes.shape == (data.shape[0], 4)

    def test_fit_stream_accepts_snapshot_stream(self, data):
        with Session(
            solver=SolverConfig(K=3, ff=1.0), stream=StreamConfig(batch=10)
        ) as session:
            res = session.fit_stream(array_stream(data, 10)).result()
        assert res.modes.shape == (data.shape[0], 3)

    def test_fit_stream_from_configured_source(self, data, tmp_path):
        from repro.data.io import write_snapshot_dataset

        path = tmp_path / "snaps.npz"
        write_snapshot_dataset(path, data)
        cfg = RunConfig(
            solver=SolverConfig(K=3, ff=1.0),
            backend=BackendConfig(name="threads", size=2),
            stream=StreamConfig(source=str(path), batch=10, prefetch=2),
        )

        def job(session):
            return np.array(session.fit_stream().result().singular_values)

        values = Session.run(cfg, job)[0]
        ref = serial_reference(data, K=3)
        assert np.allclose(values, ref.singular_values, rtol=1e-8)

    def test_manual_stepping(self, data):
        with Session(solver=SolverConfig(K=3, ff=1.0)) as session:
            session.initialize(data[:, :20]).incorporate_data(data[:, 20:])
            assert session.driver.iteration == 2
            assert session.singular_values.shape == (3,)
            assert session.local_modes.shape == (data.shape[0], 3)


class TestSessionErrors:
    def test_multi_rank_threads_needs_run(self):
        with pytest.raises(ConfigurationError, match="Session.run"):
            Session(backend=BackendConfig(name="threads", size=4))

    def test_untyped_config_rejected(self):
        with pytest.raises(ConfigurationError, match="RunConfig"):
            Session({"solver": {"K": 3}})

    def test_closed_session_rejects_use(self, data):
        session = Session(stream=StreamConfig(batch=10))
        session.close()
        with pytest.raises(ConfigurationError, match="closed"):
            session.fit_stream(data)
        session.close()  # idempotent

    def test_result_before_fit(self):
        with pytest.raises(ConfigurationError, match="fit_stream"):
            Session().result()

    def test_fit_stream_needs_source(self):
        with pytest.raises(ConfigurationError, match="source"):
            Session().fit_stream()

    def test_matrix_needs_batch(self, data):
        with pytest.raises(ConfigurationError, match="batch"):
            Session().fit_stream(data)

    def test_empty_stream_rejected(self):
        empty = function_stream(lambda i: None, n_dof=10)
        with pytest.raises(ConfigurationError, match="empty"):
            Session(stream=StreamConfig(batch=5)).fit_stream(empty)

    def test_partition_needs_known_n_dof(self, data):
        cfg = RunConfig(
            backend=BackendConfig(name="threads", size=2),
            stream=StreamConfig(batch=10),
        )
        unsized = function_stream(lambda i: data[:, :10] if i < 2 else None)

        def job(session):
            session.fit_stream(unsized)

        from repro.smpi import ParallelFailure

        with pytest.raises(ParallelFailure):
            Session.run(cfg, job)

    def test_run_without_config_or_resume(self):
        with pytest.raises(ConfigurationError, match="RunConfig"):
            Session.run(None, lambda session: None)

    def test_run_rejects_untyped_config(self):
        with pytest.raises(ConfigurationError, match="RunConfig"):
            Session.run({"solver": {"K": 3}}, lambda session: None)


class TestDeprecationShim:
    """The deprecated keyword-argument constructor is gone: ``solver=`` is
    the one construction path."""

    def test_solver_path_is_clean(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            svd = ParSVDParallel(
                repro.create_communicator("self"),
                solver=SolverConfig(K=5, gather="none"),
            )
            ParSVDParallel(repro.create_communicator("self"))
        assert svd.solver.gather == "none"

    def test_legacy_kwargs_are_rejected(self):
        comm = repro.create_communicator("self")
        with pytest.raises(TypeError):
            ParSVDParallel(comm, K=3)
        with pytest.raises(TypeError):
            ParSVDParallel(comm, 3)
        with pytest.raises(ConfigurationError, match="SolverConfig"):
            ParSVDParallel(comm, solver={"K": 3})


class TestCheckpointEmbedding:
    def test_session_checkpoint_embeds_run_config(self, data, tmp_path):
        cfg = RunConfig(
            solver=SolverConfig(K=3, ff=0.95),
            backend=BackendConfig(name="threads", size=2, timeout=90.0),
            stream=StreamConfig(batch=10, prefetch=1),
        )
        base = tmp_path / "state"

        def job(session):
            session.fit_stream(data)
            return session.save_checkpoint(base, gathered=True)

        path = Session.run(cfg, job)[0]
        state = read_checkpoint(path)
        assert state["run_config"] == cfg
        assert checkpoint_run_config(base) == cfg

    def test_legacy_checkpoint_reconstructs_config(self, data, tmp_path):
        base = tmp_path / "legacy"

        def job(comm):
            m = data.shape[0]
            rows = slice(
                comm.rank * (m // comm.size), (comm.rank + 1) * (m // comm.size)
            )
            svd = ParSVDParallel(
                comm, solver=SolverConfig(K=3, ff=1.0, qr_variant="tree")
            )
            svd.initialize(data[rows, :20])
            return svd.save_checkpoint(base, gathered=True)

        run_spmd(2, job)
        cfg = checkpoint_run_config(base)
        assert cfg.solver.K == 3
        assert cfg.solver.qr_variant == "tree"
        assert cfg.backend.size == 2
        state = read_checkpoint(tmp_path / "legacy.npz")
        assert state["run_config"] is None  # reconstructed, not embedded

    def test_checkpoint_run_config_missing(self, tmp_path):
        with pytest.raises(DataFormatError, match="no readable checkpoint"):
            checkpoint_run_config(tmp_path / "nothing")

    def test_config_only_read_skips_arrays(self, data, tmp_path):
        base = tmp_path / "light"
        with Session(
            solver=SolverConfig(K=3, ff=1.0),
            backend=BackendConfig(name="self"),
            stream=StreamConfig(batch=10),
        ) as session:
            session.fit_stream(data)
            session.save_checkpoint(base, gathered=True)
        state = read_checkpoint(tmp_path / "light.npz", load_arrays=False)
        assert state["modes"] is None
        assert state["singular_values"] is None
        assert state["run_config"].solver.K == 3

    def test_unparseable_embedded_config_degrades_with_warning(
        self, data, tmp_path
    ):
        """Forward compatibility: a checkpoint whose embedded RunConfig a
        build cannot parse must stay restorable from its flat fields."""
        import numpy as np

        base = tmp_path / "future"
        with Session(
            solver=SolverConfig(K=3, ff=1.0),
            backend=BackendConfig(name="self"),
            stream=StreamConfig(batch=10),
        ) as session:
            session.fit_stream(data)
            path = session.save_checkpoint(base, gathered=True)
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
        payload["run_config_json"] = np.asarray(
            '{"solver": {"from_the_future": 1}}'
        )
        np.savez(path, **payload)
        with pytest.warns(UserWarning, match="ignoring embedded run config"):
            cfg = checkpoint_run_config(base)
        assert cfg.solver.K == 3  # reconstructed from the flat fields

    @pytest.mark.parametrize(
        "section, key",
        [
            pytest.param("solver", "workspace", id="workspace"),
            pytest.param("solver", "overlap", id="overlap"),
            pytest.param("obs", "window_s", id="window_s"),
            pytest.param("solver", "r2", id="r2"),
        ],
    )
    def test_retired_solver_key_keeps_the_embedded_config(
        self, data, tmp_path, section, key
    ):
        """Checkpoints written before ``SolverConfig.workspace``,
        ``SolverConfig.overlap``, ``ObservabilityConfig.window_s`` or
        ``SolverConfig.r2`` was retired embed the key: resuming one drops
        it with one warning and keeps the rest of the run config."""
        import json

        base = tmp_path / "retired"
        with Session(
            solver=SolverConfig(K=3, ff=1.0, qr_variant="tree"),
            backend=BackendConfig(name="self"),
            stream=StreamConfig(batch=10, prefetch=1),
        ) as session:
            session.fit_stream(data)
            path = session.save_checkpoint(base, gathered=True)
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
        embedded = json.loads(str(payload["run_config_json"]))
        embedded[section][key] = True
        payload["run_config_json"] = np.asarray(json.dumps(embedded))
        if key == "r2":
            # Such checkpoints also carry the flat field; it is ignored.
            payload["config_r2"] = np.asarray(5)
        np.savez(path, **payload)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with Session.resume(base) as resumed:
                cfg = resumed.config
        assert cfg.solver.qr_variant == "tree"
        assert cfg.stream == StreamConfig(batch=10, prefetch=1)
        assert len(caught) == 1, [str(w.message) for w in caught]
        assert f"{section}.{key}" in str(caught[0].message)

    def test_load_run_config_errors_are_specific(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"solver": {"K": -1}}')
        with pytest.raises(ConfigurationError, match="K must be positive"):
            load_run_config(bad)


class TestResume:
    """Session.resume restores solver + backend settings at any rank
    count — including from checkpoints written by the bare driver API."""

    def _legacy_phase1(self, data, base, qr_variant, save_ranks=2):
        """First half of the stream through the bare driver, saved as a
        gathered (any-rank) checkpoint without an embedded config."""

        def job(comm):
            m = data.shape[0]
            from repro.utils.partition import block_partition

            part = block_partition(m, comm.size)
            block = data[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(
                comm, solver=SolverConfig(K=4, ff=1.0, r1=20, qr_variant=qr_variant)
            )
            svd.initialize(block[:, :10])
            svd.incorporate_data(block[:, 10:20])
            return svd.save_checkpoint(base, gathered=True)

        return run_spmd(save_ranks, job)[0]

    @pytest.mark.parametrize("resume_ranks", [1, 4])
    @pytest.mark.parametrize("qr_variant", ["gather", "tree"])
    def test_resume_matrix_threads(
        self, data, tmp_path, resume_ranks, qr_variant
    ):
        base = tmp_path / f"{qr_variant}-{resume_ranks}"
        self._legacy_phase1(data, base, qr_variant)

        resume_backend = BackendConfig(name="threads", size=resume_ranks)

        def phase2(session):
            # solver settings came from the checkpoint, not the caller
            assert session.config.solver.qr_variant == qr_variant
            assert session.config.solver.K == 4
            session.fit_stream(data[:, 20:])
            res = session.result()
            return np.array(res.modes), np.array(res.singular_values)

        cfg = checkpoint_run_config(base).replace(
            backend=resume_backend, stream=StreamConfig(batch=10)
        )
        modes_r, values_r = Session.run(cfg, phase2, resume=base)[0]

        def straight(session):
            session.fit_stream(data)
            res = session.result()
            return np.array(res.modes), np.array(res.singular_values)

        modes_s, values_s = Session.run(cfg, straight)[0]

        # A different rank count re-partitions rows, which reorders the
        # floating-point sums and can flip canonical mode signs (existing
        # gathered-restart contract: 1e-10 up to sign); the same-rank
        # bit-identical case is asserted separately below.
        from repro.utils.linalg import align_signs

        assert np.max(np.abs(values_r - values_s)) <= 1e-10 * np.max(values_s)
        assert np.max(np.abs(align_signs(modes_s, modes_r) - modes_s)) <= 1e-10

    def test_resume_same_ranks_bit_identical(self, data, tmp_path):
        """The acceptance criterion: a driver-written checkpoint resumed
        through the Session reproduces the uninterrupted driver run to
        1e-12."""
        base = tmp_path / "exact"
        self._legacy_phase1(data, base, "gather", save_ranks=2)

        cfg = checkpoint_run_config(base).replace(stream=StreamConfig(batch=10))

        def phase2(session):
            session.fit_stream(data[:, 20:])
            res = session.result()
            return np.array(res.modes), np.array(res.singular_values)

        modes_r, values_r = Session.run(cfg, phase2, resume=base)[0]

        def legacy_straight(comm):
            from repro.utils.partition import block_partition

            part = block_partition(data.shape[0], comm.size)
            block = data[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=4, ff=1.0, r1=20))
            for start in range(0, data.shape[1], 10):
                batch = block[:, start : start + 10]
                if start == 0:
                    svd.initialize(batch)
                else:
                    svd.incorporate_data(batch)
            return np.array(svd.modes), np.array(svd.singular_values)

        modes_s, values_s = run_spmd(2, legacy_straight)[0]
        assert np.max(np.abs(values_r - values_s)) <= 1e-12 * np.max(values_s)
        assert np.max(np.abs(modes_r - modes_s)) <= 1e-12

    def test_resume_single_session_self_backend(self, data, tmp_path):
        base = tmp_path / "single"
        with Session(
            solver=SolverConfig(K=3, ff=1.0),
            backend=BackendConfig(name="self"),
            stream=StreamConfig(batch=10),
        ) as session:
            session.fit_stream(data[:, :20])
            session.save_checkpoint(base, gathered=True)

        with Session.resume(base) as resumed:
            assert resumed.config.backend.name == "self"
            assert resumed.driver.n_seen == 20
            resumed.fit_stream(data[:, 20:])
            values = np.array(resumed.result().singular_values)

        ref = serial_reference(data, K=3)
        assert np.allclose(values, ref.singular_values, rtol=1e-10)

    def test_resume_per_rank_shards_roundtrip(self, data, tmp_path):
        """Non-gathered (per-rank) session checkpoints resume at the same
        rank count with the embedded config."""
        cfg = RunConfig(
            solver=SolverConfig(K=3, ff=1.0, gather="root"),
            backend=BackendConfig(name="threads", size=2),
            stream=StreamConfig(batch=10),
        )
        base = tmp_path / "shards"

        def phase1(session):
            session.fit_stream(data[:, :20])
            return session.save_checkpoint(base)

        Session.run(cfg, phase1)

        def phase2(session):
            assert session.config == cfg
            assert session.config.solver.gather == "root"
            session.fit_stream(data[:, 20:])
            return np.array(session.singular_values)

        # config=None: everything (backend included) comes from the file
        values = Session.run(None, phase2, resume=base)[0]

        def straight(session):
            session.fit_stream(data)
            return np.array(session.singular_values)

        values_s = Session.run(cfg, straight)[0]
        assert np.max(np.abs(values - values_s)) <= 1e-12 * np.max(values_s)


class TestServingThroughSession:
    def test_export_and_query_engine(self, data, tmp_path):
        from repro.serving import ModeBaseStore

        store = ModeBaseStore(tmp_path / "bases")
        cfg = RunConfig(
            solver=SolverConfig(K=3, ff=1.0),
            backend=BackendConfig(name="threads", size=2),
            stream=StreamConfig(batch=10),
        )

        def publish(session):
            session.fit_stream(data)
            return session.export_to_store(store, "test-basis")

        versions = Session.run(cfg, publish)
        assert versions == [1, 1]

        query = data[:, :3]

        def serve(session):
            engine = session.query_engine(store, flush_threshold=1)
            return engine.project("test-basis", query)

        coeffs = Session.run(cfg, serve)[0]
        base = store.get("test-basis")
        assert np.allclose(coeffs, base.modes.T @ query, atol=1e-10)


class TestBackendKnobPlumbing:
    def test_irecv_buffer_bytes_accepted_by_every_in_process_backend(self):
        """The knob rides BackendConfig into create_communicator on any
        backend; in-process backends probe sizes exactly and ignore it."""
        for name in ("threads", "self"):
            with Session(
                backend=BackendConfig(name=name, size=1, irecv_buffer_bytes=4096)
            ) as session:
                assert session.comm.size == 1
