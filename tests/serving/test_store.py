"""ModeBaseStore: versioned publish/get, manifest integrity, the
stat-validated manifest cache, ingestion."""

import json
import sys
import threading

import numpy as np
import pytest

from repro import ParSVDParallel, SolverConfig
from repro.config import SVDConfig
from repro.exceptions import BasisNotFoundError, ServingError, ShapeError
from repro.serving import MANIFEST_NAME, ModeBaseStore
from repro.smpi import run_spmd
from repro.utils.partition import block_partition


@pytest.fixture
def basis(rng):
    u, _ = np.linalg.qr(rng.standard_normal((60, 5)))
    s = np.linspace(3.0, 0.5, 5)
    return u, s


class TestPublishGet:
    def test_roundtrip(self, tmp_path, basis):
        u, s = basis
        store = ModeBaseStore(tmp_path / "store")
        version = store.publish("wave", u, s)
        assert version == 1
        base = store.get("wave")
        assert base.name == "wave"
        assert base.version == 1
        assert base.n_dof == 60 and base.n_modes == 5
        assert np.array_equal(base.modes, u)
        assert np.array_equal(base.singular_values, s)

    def test_versions_are_monotone_and_immutable(self, tmp_path, basis):
        u, s = basis
        store = ModeBaseStore(tmp_path / "store")
        v1 = store.publish("wave", u, s)
        v2 = store.publish("wave", 2.0 * u, s)
        assert (v1, v2) == (1, 2)
        assert store.versions("wave") == [1, 2]
        assert store.latest_version("wave") == 2
        # v1 is untouched by the later publish.
        assert np.array_equal(store.get("wave", 1).modes, u)
        assert np.array_equal(store.get("wave", 2).modes, 2.0 * u)
        # Default get() resolves to latest.
        assert store.get("wave").version == 2

    def test_reopen_existing_store(self, tmp_path, basis):
        u, s = basis
        ModeBaseStore(tmp_path / "store").publish("wave", u, s)
        reopened = ModeBaseStore(tmp_path / "store")
        assert reopened.names() == ["wave"]
        assert np.array_equal(reopened.get("wave").modes, u)

    def test_config_provenance_rides_along(self, tmp_path, basis):
        u, s = basis
        store = ModeBaseStore(tmp_path / "store")
        cfg = SVDConfig(K=5, ff=0.9, seed=3)
        store.publish("wave", u, s, config=cfg, iteration=7, n_seen=140)
        base = store.get("wave")
        assert base.config.ff == 0.9
        assert base.config.seed == 3
        assert base.iteration == 7
        assert base.n_seen == 140

    def test_describe_and_contains(self, tmp_path, basis):
        u, s = basis
        store = ModeBaseStore(tmp_path / "store")
        store.publish("a", u, s)
        store.publish("b", u, s)
        store.publish("b", u, s)
        assert store.describe() == {"a": [1], "b": [1, 2]}
        assert "a" in store and "zzz" not in store


class TestValidation:
    def test_unknown_name(self, tmp_path):
        store = ModeBaseStore(tmp_path / "store")
        with pytest.raises(BasisNotFoundError):
            store.get("missing")
        with pytest.raises(BasisNotFoundError):
            store.versions("missing")

    def test_unknown_version(self, tmp_path, basis):
        u, s = basis
        store = ModeBaseStore(tmp_path / "store")
        store.publish("wave", u, s)
        with pytest.raises(BasisNotFoundError):
            store.get("wave", 9)

    def test_unsafe_name_rejected(self, tmp_path, basis):
        u, s = basis
        store = ModeBaseStore(tmp_path / "store")
        for bad in ("../escape", "", "a b", ".hidden", "x/y"):
            with pytest.raises(ServingError):
                store.publish(bad, u, s)

    def test_shape_mismatch_rejected(self, tmp_path, basis):
        u, s = basis
        store = ModeBaseStore(tmp_path / "store")
        with pytest.raises(ShapeError):
            store.publish("wave", u, s[:-1])
        with pytest.raises(ShapeError):
            store.publish("wave", u[:, 0], s)

    def test_corrupt_manifest_fails_loudly(self, tmp_path, basis):
        u, s = basis
        store = ModeBaseStore(tmp_path / "store")
        store.publish("wave", u, s)
        (tmp_path / "store" / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ServingError):
            store.names()

    def test_manifest_is_valid_json(self, tmp_path, basis):
        u, s = basis
        store = ModeBaseStore(tmp_path / "store")
        store.publish("wave", u, s)
        manifest = json.loads((tmp_path / "store" / MANIFEST_NAME).read_text())
        assert manifest["format"] == 1
        assert manifest["bases"]["wave"]["latest"] == 1


class TestManifestCache:
    """Lookups read the manifest once while a ``stat`` shows it unchanged,
    and re-read it after any publish."""

    def test_lookups_read_the_manifest_once(self, tmp_path, basis, monkeypatch):
        u, s = basis
        store = ModeBaseStore(tmp_path / "store")
        store.publish("wave", u, s)
        reads = []
        real = ModeBaseStore._read_manifest

        def counted(self):
            reads.append(1)
            return real(self)

        monkeypatch.setattr(ModeBaseStore, "_read_manifest", counted)
        for _ in range(100):
            assert store.version_info("wave") == (1, 60, 5)
        assert len(reads) == 1

    def test_publish_by_another_instance_is_seen(self, tmp_path, basis):
        u, s = basis
        reader = ModeBaseStore(tmp_path / "store")
        reader.publish("wave", u, s)
        assert reader.version_info("wave") == (1, 60, 5)
        writer = ModeBaseStore(tmp_path / "store")
        writer.publish("wave", u[:, :3], s[:3])
        writer.publish("tide", u, s)
        assert reader.version_info("wave") == (2, 60, 3)
        assert reader.names() == ["tide", "wave"]
        assert reader.get("wave").n_modes == 3

    @pytest.mark.parametrize(
        "content", ["{not json", '{"format": 99, "bases": {}}', "[1, 2]"]
    )
    def test_damaged_manifest_after_caching_fails_loudly(
        self, tmp_path, basis, content
    ):
        u, s = basis
        store = ModeBaseStore(tmp_path / "store")
        store.publish("wave", u, s)
        assert store.version_info("wave")[0] == 1
        (tmp_path / "store" / MANIFEST_NAME).write_text(content)
        with pytest.raises(ServingError, match="manifest"):
            store.version_info("wave")

    def test_concurrent_publish_and_lookups(self, tmp_path, rng):
        """A publishing thread and readers share one store: every lookup
        answers a published (version, n_modes) pair, versions never go
        back, and the last publish is seen."""
        store = ModeBaseStore(tmp_path / "store")
        u, _ = np.linalg.qr(rng.standard_normal((30, 5)))
        widths = {}
        store.publish("wave", u[:, :1], np.ones(1))
        widths[1] = 1
        publishes = 40
        done = threading.Event()
        failures: list = []

        def publish() -> None:
            try:
                for i in range(2, publishes + 1):
                    k = 1 + i % 5
                    widths[i] = k
                    store.publish("wave", u[:, :k], np.ones(k))
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)
            finally:
                done.set()

        def read() -> None:
            try:
                last = 0
                while not done.is_set():
                    version, n_dof, n_modes = store.version_info("wave")
                    assert version >= last
                    assert (n_dof, n_modes) == (30, widths[version])
                    last = version
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read) for _ in range(3)]
            threads.append(threading.Thread(target=publish))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert store.version_info("wave") == (publishes, 30, widths[publishes])


class TestIngestion:
    def test_publish_gathered_checkpoint(self, tmp_path, decaying_matrix):
        """save_checkpoint(gathered=True) -> publish_checkpoint round-trip."""
        base_path = tmp_path / "state"

        def job(comm):
            part = block_partition(200, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=4, ff=1.0, r1=20))
            svd.initialize(block[:, :20])
            svd.incorporate_data(block[:, 20:])
            svd.save_checkpoint(base_path, gathered=True)
            return svd.modes

        modes = run_spmd(2, job)[0]
        store = ModeBaseStore(tmp_path / "store")
        version = store.publish_checkpoint("decay", base_path.with_suffix(".npz"))
        got = store.get("decay", version)
        assert np.allclose(got.modes, modes, atol=1e-14)
        assert got.n_seen == 40

    def test_rank_shard_rejected(self, tmp_path, decaying_matrix):
        """Per-rank shards are not servable; the error says how to fix it."""

        def job(comm):
            part = block_partition(200, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=4, ff=1.0, r1=20))
            svd.initialize(block)
            svd.save_checkpoint(tmp_path / "shards")

        run_spmd(2, job)
        store = ModeBaseStore(tmp_path / "store")
        with pytest.raises(ServingError, match="gathered"):
            store.publish_checkpoint("decay", tmp_path / "shards.rank0.npz")

    def test_export_to_store_from_parallel(self, tmp_path, decaying_matrix):
        store = ModeBaseStore(tmp_path / "store")

        def job(comm):
            part = block_partition(200, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=4, ff=1.0, r1=20))
            svd.initialize(block)
            v1 = svd.export_to_store(store, "decay")
            v2 = svd.export_to_store(store, "decay")
            return v1, v2, svd.modes

        results = run_spmd(3, job)
        # Every rank observes the same assigned versions.
        assert all(r[:2] == (1, 2) for r in results)
        assert np.allclose(
            store.get("decay").modes, results[0][2], atol=1e-14
        )

    def test_export_accepts_path(self, tmp_path, decaying_matrix):
        """export_to_store creates the store from a bare path at rank 0."""

        def job(comm):
            part = block_partition(200, comm.size)
            block = decaying_matrix[part.slice_of(comm.rank), :]
            svd = ParSVDParallel(comm, solver=SolverConfig(K=3, ff=1.0, r1=20))
            svd.initialize(block)
            return svd.export_to_store(tmp_path / "fresh", "decay")

        assert run_spmd(2, job) == [1, 1]
        assert ModeBaseStore(tmp_path / "fresh").names() == ["decay"]


class TestDamagedStore:
    def test_missing_manifest_over_version_files_refused(
        self, tmp_path, basis
    ):
        """A lost manifest must not let a fresh catalogue reassign
        'immutable' version numbers over live files."""
        u, s = basis
        root = tmp_path / "store"
        ModeBaseStore(root).publish("wave", u, s)
        (root / MANIFEST_NAME).unlink()
        with pytest.raises(ServingError, match="refusing to initialise"):
            ModeBaseStore(root)

    def test_publish_refuses_to_overwrite_unmanifested_file(
        self, tmp_path, basis
    ):
        u, s = basis
        store = ModeBaseStore(tmp_path / "store")
        # A stray file squats on the next version slot.
        (tmp_path / "store" / "wave.v1.npz").write_bytes(b"squatter")
        with pytest.raises(ServingError, match="refusing to overwrite"):
            store.publish("wave", u, s)
