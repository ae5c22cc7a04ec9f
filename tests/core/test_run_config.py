"""Typed run-config layer: SolverConfig / BackendConfig / StreamConfig /
RunConfig validation and lossless dict / JSON round-trips."""

import dataclasses

import pytest

from repro.config import (
    BackendConfig,
    ObservabilityConfig,
    RunConfig,
    SolverConfig,
    StreamConfig,
    SVDConfig,
)
from repro.exceptions import ConfigurationError


class TestSolverConfig:
    def test_defaults_extend_svd_config(self):
        cfg = SolverConfig()
        assert cfg.K == SVDConfig().K
        assert cfg.ff == SVDConfig().ff
        assert cfg.qr_variant == "gather"
        assert cfg.gather == "bcast"
        assert cfg.apmos_group_size is None
        # The paper's seven algorithm parameters plus three run options.
        assert len(dataclasses.fields(cfg)) == 10

    def test_is_an_svd_config(self):
        assert isinstance(SolverConfig(), SVDConfig)

    def test_svd_validation_still_applies(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(K=0)
        with pytest.raises(ConfigurationError):
            SolverConfig(ff=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("qr_variant", "sideways"),
            ("gather", "sometimes"),
            ("apmos_group_size", 0),
        ],
    )
    def test_run_option_validation(self, field, value):
        with pytest.raises(ConfigurationError):
            SolverConfig(**{field: value})

    def test_replace_preserves_type(self):
        cfg = SolverConfig(K=4).replace(qr_variant="tree")
        assert isinstance(cfg, SolverConfig)
        assert (cfg.K, cfg.qr_variant) == (4, "tree")

    def test_from_svd_config_lifts_plain_config(self):
        lifted = SolverConfig.from_svd_config(
            SVDConfig(K=7, ff=0.5, seed=3), qr_variant="tree"
        )
        assert (lifted.K, lifted.ff, lifted.seed) == (7, 0.5, 3)
        assert lifted.qr_variant == "tree"

    def test_from_svd_config_passthrough_and_override(self):
        base = SolverConfig(K=5, gather="root", qr_variant="tree")
        assert SolverConfig.from_svd_config(base) is base
        overridden = SolverConfig.from_svd_config(base, gather="none")
        # options override, the solver-level fields of the base survive
        assert overridden.gather == "none"
        assert overridden.qr_variant == "tree"
        assert overridden.K == 5

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SolverConfig().K = 3


class TestBackendConfig:
    def test_defaults(self):
        cfg = BackendConfig()
        assert cfg.name == "threads"
        assert cfg.size == 1
        assert cfg.timeout == 120.0
        assert cfg.irecv_buffer_bytes == 1 << 24

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": "bogus"},
            {"size": 0},
            {"size": True},
            {"name": "self", "size": 2},
            {"timeout": 0.0},
            {"irecv_buffer_bytes": 0},
            {"irecv_buffer_bytes": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            BackendConfig(**kwargs)

    def test_every_registered_backend_accepted(self):
        from repro.smpi import BACKENDS

        for name in BACKENDS:
            assert BackendConfig(name=name).name == name


class TestStreamConfig:
    def test_defaults(self):
        cfg = StreamConfig()
        assert cfg.source is None
        assert cfg.batch is None
        assert cfg.prefetch == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"source": 42},
            {"batch": 0},
            {"batch": True},
            {"prefetch": -1},
            {"prefetch": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            StreamConfig(**kwargs)


class TestObservabilityConfig:
    def test_defaults_off(self):
        cfg = ObservabilityConfig()
        assert cfg.metrics is False
        assert cfg.trace is False
        assert cfg.enabled is False

    @pytest.mark.parametrize(
        "kwargs, expect",
        [
            ({"metrics": True}, True),
            ({"trace": True}, True),
            ({"metrics": True, "trace": True}, True),
        ],
    )
    def test_enabled_when_any_component_on(self, kwargs, expect):
        assert ObservabilityConfig(**kwargs).enabled is expect

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"metrics": 1},
            {"trace": "yes"},
            {"metrics": None},
            {"trace": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ObservabilityConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ObservabilityConfig().metrics = True


class TestRunConfig:
    def test_sections_must_be_typed(self):
        with pytest.raises(ConfigurationError):
            RunConfig(solver={"K": 3})
        with pytest.raises(ConfigurationError):
            RunConfig(backend="threads")
        with pytest.raises(ConfigurationError):
            RunConfig(stream={"batch": 10})

    def test_dict_round_trip(self):
        cfg = RunConfig(
            solver=SolverConfig(
                K=12, ff=0.9, low_rank=True, seed=7,
                qr_variant="tree", gather="root",
            ),
            backend=BackendConfig(name="threads", size=4, timeout=30.0),
            stream=StreamConfig(source="/data/snaps.npz", batch=25, prefetch=3),
            obs=ObservabilityConfig(metrics=True, trace=True),
        )
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_round_trip(self):
        cfg = RunConfig(
            solver=SolverConfig(K=3, apmos_group_size=2),
            backend=BackendConfig(name="self"),
            stream=StreamConfig(batch=10),
        )
        assert RunConfig.from_json(cfg.to_json()) == cfg
        assert RunConfig.from_json(cfg.to_json(indent=2)) == cfg

    def test_default_round_trip(self):
        assert RunConfig.from_dict(RunConfig().to_dict()) == RunConfig()

    def test_missing_sections_take_defaults(self):
        cfg = RunConfig.from_dict({"solver": {"K": 5}})
        assert cfg.solver.K == 5
        assert cfg.backend == BackendConfig()
        assert cfg.stream == StreamConfig()
        assert cfg.obs == ObservabilityConfig()

    def test_obs_section_round_trips(self):
        cfg = RunConfig(obs=ObservabilityConfig(metrics=True))
        payload = cfg.to_dict()
        assert payload["obs"] == {
            "metrics": True,
            "trace": False,
        }
        assert RunConfig.from_dict(payload) == cfg

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown section"):
            RunConfig.from_dict({"sovler": {}})

    def test_invalid_value_names_the_section(self):
        """`repro config validate` reports which section failed."""
        with pytest.raises(ConfigurationError, match="'obs' section"):
            RunConfig.from_dict({"obs": {"metrics": "yes"}})
        with pytest.raises(ConfigurationError, match="'solver' section"):
            RunConfig.from_dict({"solver": {"ff": 2.0}})

    def test_unknown_key_rejected_with_name(self):
        with pytest.raises(ConfigurationError, match="frobnicate"):
            RunConfig.from_dict({"backend": {"frobnicate": 1}})

    @pytest.mark.parametrize("key", ["workspace", "overlap", "r2"])
    def test_solver_section_naming_a_retired_key_rejected(self, key):
        """The streaming step has one lane and no driver read ``r2``; a
        run config from before names a retired option and must say which
        key is wrong."""
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            RunConfig.from_dict({"solver": {"K": 4, key: True}})

    def test_obs_section_naming_window_s_rejected(self):
        """``ObservabilityConfig.window_s`` was read by nothing and is
        gone; a run config that still names it must say which key."""
        with pytest.raises(ConfigurationError, match="'window_s'"):
            RunConfig.from_dict({"obs": {"metrics": True, "window_s": 60.0}})

    def test_invalid_value_surfaces_specific_error(self):
        with pytest.raises(ConfigurationError, match="forget factor"):
            RunConfig.from_dict({"solver": {"ff": 2.0}})

    @pytest.mark.parametrize(
        "payload",
        [
            {"backend": {"timeout": "abc"}},
            {"backend": {"timeout": "60"}},
            {"solver": {"seed": "x"}},
            {"solver": {"K": [3]}},
        ],
    )
    def test_wrong_typed_values_surface_configuration_error(self, payload):
        """Never a raw TypeError/ValueError out of from_dict — the CLI's
        `config validate` contract."""
        with pytest.raises(ConfigurationError):
            RunConfig.from_dict(payload)

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            RunConfig.from_json("{nope")

    def test_save_load_round_trip(self, tmp_path):
        cfg = RunConfig(
            solver=SolverConfig(K=6, qr_variant="tree"),
            backend=BackendConfig(size=2),
            stream=StreamConfig(batch=40, prefetch=1),
        )
        path = cfg.save(tmp_path / "run.json")
        assert RunConfig.load(path) == cfg

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            RunConfig.load(tmp_path / "absent.json")

    def test_replace_sections(self):
        cfg = RunConfig().replace(backend=BackendConfig(size=3))
        assert cfg.backend.size == 3
        assert cfg.solver == SolverConfig()


class TestServingConfig:
    def test_defaults(self):
        from repro.config import ServingConfig

        cfg = ServingConfig()
        assert (cfg.host, cfg.port) == ("127.0.0.1", 8080)
        assert cfg.flush_deadline_ms == 25.0
        assert cfg.max_batch == 64
        assert cfg.result_cache_entries == 256
        assert cfg.tenants == ()
        assert not cfg.auth_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"host": ""},
            {"port": -1},
            {"port": 70000},
            {"flush_deadline_ms": 0.0},
            {"flush_deadline_ms": -5.0},
            {"max_batch": 0},
            {"result_cache_entries": -1},
        ],
    )
    def test_validation(self, kwargs):
        from repro.config import ServingConfig

        with pytest.raises(ConfigurationError):
            ServingConfig(**kwargs)

    def test_tenants_coerce_from_dicts(self):
        from repro.config import ServingConfig, TenantSpec

        cfg = ServingConfig(
            tenants=[{"name": "acme", "key": "k1"}, {"name": "zeus", "key": "k2"}]
        )
        assert cfg.tenants == (
            TenantSpec(name="acme", key="k1"),
            TenantSpec(name="zeus", key="k2"),
        )
        assert cfg.auth_enabled

    @pytest.mark.parametrize(
        "tenants, match",
        [
            (({"name": "a", "key": "k"}, {"name": "a", "key": "j"}), "name"),
            (({"name": "a", "key": "k"}, {"name": "b", "key": "k"}), "key"),
        ],
    )
    def test_duplicate_tenants_rejected(self, tenants, match):
        from repro.config import ServingConfig

        with pytest.raises(ConfigurationError, match=match):
            ServingConfig(tenants=tenants)

    @pytest.mark.parametrize(
        "kwargs", [{"name": ""}, {"name": "bad name", "key": "k"}, {"name": "a"}]
    )
    def test_tenant_spec_validation(self, kwargs):
        from repro.config import TenantSpec

        with pytest.raises(ConfigurationError):
            TenantSpec(**kwargs)

    def test_serving_section_round_trips(self):
        from repro.config import ServingConfig

        cfg = RunConfig(
            serving=ServingConfig(
                port=0,
                flush_deadline_ms=12.5,
                max_batch=8,
                result_cache_entries=4,
                tenants=({"name": "acme", "key": "k1"},),
            )
        )
        payload = cfg.to_dict()
        assert payload["serving"]["tenants"] == [{"name": "acme", "key": "k1"}]
        assert RunConfig.from_dict(payload) == cfg
        assert RunConfig.from_json(cfg.to_json(indent=2)) == cfg

    def test_serving_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="serving"):
            RunConfig.from_dict({"serving": {"portt": 1}})

    def test_serving_invalid_tenant_named_in_error(self):
        with pytest.raises(ConfigurationError):
            RunConfig.from_dict(
                {"serving": {"tenants": [{"name": "", "key": "k"}]}}
            )
