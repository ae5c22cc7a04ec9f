"""Unit tests for SVDConfig validation."""

import pytest

from repro.config import (
    DEFAULT_FORGET_FACTOR,
    DEFAULT_R1,
    GATHER_POLICIES,
    QR_VARIANTS,
    SVDConfig,
    validate_parallel_options,
)
from repro.exceptions import ConfigurationError


class TestDefaults:
    def test_paper_defaults(self):
        cfg = SVDConfig()
        assert cfg.ff == DEFAULT_FORGET_FACTOR == 0.95
        assert cfg.r1 == DEFAULT_R1 == 50
        assert cfg.low_rank is False
        # The paper's r2 is APMOS's number of global modes: the parallel
        # class passes K, so the config carries no field for it.
        assert not hasattr(cfg, "r2")

    def test_as_dict(self):
        d = SVDConfig(K=3).as_dict()
        assert d["K"] == 3
        assert set(d) >= {"K", "ff", "low_rank", "r1", "seed"}
        assert "r2" not in d


class TestValidation:
    @pytest.mark.parametrize("k", [0, -1])
    def test_bad_k(self, k):
        with pytest.raises(ConfigurationError):
            SVDConfig(K=k)

    def test_k_must_be_int(self):
        with pytest.raises(ConfigurationError):
            SVDConfig(K=2.5)
        with pytest.raises(ConfigurationError):
            SVDConfig(K=True)

    @pytest.mark.parametrize("ff", [0.0, -0.5, 1.01])
    def test_bad_ff(self, ff):
        with pytest.raises(ConfigurationError):
            SVDConfig(ff=ff)

    def test_ff_boundary_one_allowed(self):
        assert SVDConfig(ff=1.0).ff == 1.0

    @pytest.mark.parametrize("field", ["r1"])
    def test_bad_truncations(self, field):
        with pytest.raises(ConfigurationError):
            SVDConfig(**{field: 0})

    def test_bad_oversampling(self):
        with pytest.raises(ConfigurationError):
            SVDConfig(oversampling=-1)

    def test_bad_power_iters(self):
        with pytest.raises(ConfigurationError):
            SVDConfig(power_iters=-1)

    def test_bad_seed(self):
        with pytest.raises(ConfigurationError):
            SVDConfig(seed=-1)

    def test_none_seed_allowed(self):
        assert SVDConfig(seed=None).seed is None


class TestReplace:
    def test_replace_creates_new(self):
        cfg = SVDConfig(K=3)
        cfg2 = cfg.replace(K=7)
        assert cfg.K == 3
        assert cfg2.K == 7

    def test_replace_validates(self):
        with pytest.raises(ConfigurationError):
            SVDConfig().replace(ff=2.0)

    def test_frozen(self):
        cfg = SVDConfig()
        with pytest.raises(Exception):
            cfg.K = 9


class TestParallelOptions:
    def test_valid_combinations_pass(self):
        for qr in QR_VARIANTS:
            for gather in GATHER_POLICIES:
                validate_parallel_options(qr, gather, None)
                validate_parallel_options(qr, gather, 4)

    def test_bad_qr_variant(self):
        with pytest.raises(ConfigurationError):
            validate_parallel_options("sideways", "bcast", None)

    def test_bad_gather_policy(self):
        with pytest.raises(ConfigurationError):
            validate_parallel_options("gather", "sometimes", None)

    def test_bad_group_size(self):
        with pytest.raises(ConfigurationError):
            validate_parallel_options("gather", "bcast", 0)
        with pytest.raises(ConfigurationError):
            validate_parallel_options("gather", "bcast", True)
