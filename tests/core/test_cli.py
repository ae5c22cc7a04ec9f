"""CLI smoke tests (fast parameterisations)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_burgers_defaults(self):
        args = build_parser().parse_args(["burgers"])
        assert args.nx == 2048
        assert args.ranks == 4
        assert args.ff == 0.95

    def test_scaling_mode_choices(self):
        args = build_parser().parse_args(["scaling", "--mode", "strong"])
        assert args.mode == "strong"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scaling", "--mode", "sideways"])

    def test_serve_query_defaults(self):
        args = build_parser().parse_args(["serve-query"])
        assert args.nx == 512
        assert args.queries == 24
        assert args.window == 8
        assert args.store is None
        assert args.backend == "threads"

    def test_backend_choices(self):
        args = build_parser().parse_args(["burgers"])
        assert args.backend == "threads"
        args = build_parser().parse_args(["era5", "--backend", "self"])
        assert args.backend == "self"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["burgers", "--backend", "bogus"])


class TestConfigSubcommand:
    def test_dump_is_valid_run_config_json(self, capsys):
        from repro.api import RunConfig

        assert main(
            [
                "config", "dump",
                "--ranks", "4", "--modes", "8", "--ff", "1.0",
                "--batch", "50", "--qr-variant", "tree",
                "--prefetch", "2", "--seed", "3", "--low-rank",
            ]
        ) == 0
        cfg = RunConfig.from_json(capsys.readouterr().out)
        assert cfg.solver.K == 8
        assert cfg.solver.qr_variant == "tree"
        assert cfg.solver.low_rank is True
        assert cfg.solver.seed == 3
        assert cfg.backend.size == 4
        assert cfg.stream.batch == 50
        assert cfg.stream.prefetch == 2

    def test_dump_self_backend_forces_single_rank(self, capsys):
        from repro.api import RunConfig

        assert main(["config", "dump", "--backend", "self", "--ranks", "9"]) == 0
        cfg = RunConfig.from_json(capsys.readouterr().out)
        assert (cfg.backend.name, cfg.backend.size) == ("self", 1)

    def test_dump_validate_round_trip(self, capsys, tmp_path):
        assert main(["config", "dump", "--modes", "6"]) == 0
        dumped = capsys.readouterr().out
        path = tmp_path / "run.json"
        path.write_text(dumped)
        assert main(["config", "validate", str(path)]) == 0
        assert "valid RunConfig" in capsys.readouterr().out

    def test_validate_bad_file_exits_nonzero_with_specific_error(
        self, capsys, tmp_path
    ):
        path = tmp_path / "bad.json"
        path.write_text('{"solver": {"K": -1}}')
        assert main(["config", "validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "K must be positive" in err

    def test_validate_unknown_key_named(self, capsys, tmp_path):
        path = tmp_path / "unknown.json"
        path.write_text('{"backend": {"frobnicate": 1}}')
        assert main(["config", "validate", str(path)]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_validate_missing_file_exits_nonzero(self, capsys, tmp_path):
        assert main(["config", "validate", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["config"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "PyParSVD reproduction" in out
        assert "K=10" in out
        assert "Session" in out

    def test_burgers_small(self, capsys):
        code = main(
            [
                "burgers",
                "--nx", "256", "--nt", "60", "--batch", "20",
                "--ranks", "2", "--modes", "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_era5_small(self, capsys):
        code = main(
            [
                "era5",
                "--nlat", "12", "--nlon", "24", "--nt", "120",
                "--ranks", "2", "--modes", "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        assert "best-match=seasonal" in out

    def test_burgers_self_backend(self, capsys):
        code = main(
            [
                "burgers",
                "--nx", "256", "--nt", "60", "--batch", "20",
                "--modes", "4", "--backend", "self",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 ranks, backend=self" in out
        assert "PASS" in out

    def test_serve_query_small(self, capsys, tmp_path):
        code = main(
            [
                "serve-query",
                "--nx", "128", "--nt", "40", "--batch", "20",
                "--modes", "3", "--ranks", "2", "--queries", "6",
                "--window", "3", "--store", str(tmp_path / "store"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "published 'burgers' v1" in out
        assert "PASS" in out
        # The chosen store directory was actually used.
        assert (tmp_path / "store" / "manifest.json").exists()

    def test_serve_query_self_backend(self, capsys):
        code = main(
            [
                "serve-query",
                "--nx", "128", "--nt", "40", "--batch", "20",
                "--modes", "3", "--queries", "4", "--backend", "self",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 shards, backend=self" in out
        assert "PASS" in out

    def test_scaling_weak_uncalibrated(self, capsys):
        code = main(["scaling", "--mode", "weak", "--max-nodes", "4", "--no-calibrate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "efficiency" in out

    def test_scaling_strong_uncalibrated(self, capsys):
        code = main(
            ["scaling", "--mode", "strong", "--max-nodes", "2", "--no-calibrate"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "turnover" in out


class TestTwoLevelScalingFlag:
    def test_group_size_flag(self, capsys):
        code = main(
            [
                "scaling", "--mode", "weak", "--max-nodes", "4",
                "--no-calibrate", "--group-size", "16",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "two-level, groups of 16" in out


class TestServeQueryStoreLifecycle:
    def test_default_store_is_temporary_and_cleaned_up(self, capsys):
        import pathlib
        import re

        code = main(
            [
                "serve-query",
                "--nx", "128", "--nt", "40", "--batch", "20",
                "--modes", "3", "--queries", "4", "--backend", "self",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        match = re.search(r"store: (\S+) \(temporary, removed on exit\)", out)
        assert match, out
        assert not pathlib.Path(match.group(1)).exists()


class TestConfigFileOption:
    def _write_config(self, tmp_path):
        from repro.api import (
            BackendConfig,
            RunConfig,
            SolverConfig,
            StreamConfig,
        )

        cfg = RunConfig(
            solver=SolverConfig(K=4, ff=1.0, r1=50),
            backend=BackendConfig(name="threads", size=2),
            stream=StreamConfig(batch=20),
        )
        path = tmp_path / "run.json"
        path.write_text(cfg.to_json(indent=2))
        return path

    def test_all_run_subcommands_accept_config(self):
        # Every subcommand that builds a RunConfig takes --config;
        # `scaling` (analytic perf model, no RunConfig) is the exception.
        for command in ("burgers", "era5", "serve-query", "profile", "chaos"):
            args = build_parser().parse_args([command, "--config", "run.json"])
            assert args.config == "run.json"
        args = build_parser().parse_args(
            ["serve", "--store", "s", "--config", "run.json"]
        )
        assert args.config == "run.json"

    def test_override_map_covers_registered_subparsers(self):
        from repro.cli import _CONFIG_OVERRIDES

        parser = build_parser()
        assert set(_CONFIG_OVERRIDES) == set(parser._repro_subparsers)

    def test_explicit_dests_detection(self):
        from repro.cli import _explicit_dests

        parser = build_parser()
        argv = ["burgers", "--ranks", "2", "--ff=1.0", "--nx", "256"]
        explicit = _explicit_dests(parser, "burgers", argv)
        # Both "--flag value" and "--flag=value" spellings count.
        assert {"ranks", "ff", "nx"} <= explicit
        assert "modes" not in explicit
        assert "batch" not in explicit

    def test_file_values_win_when_flags_are_defaulted(self, tmp_path):
        from repro.cli import _config_from_file

        parser = build_parser()
        path = self._write_config(tmp_path)
        args = parser.parse_args(["burgers", "--config", str(path)])
        args._explicit = set()
        cfg = _config_from_file(args, "burgers")
        assert cfg.solver.K == 4
        assert cfg.solver.ff == 1.0
        assert cfg.backend.size == 2
        assert cfg.stream.batch == 20

    def test_explicit_flags_override_file(self, tmp_path):
        from repro.cli import _config_from_file, _explicit_dests

        parser = build_parser()
        path = self._write_config(tmp_path)
        argv = ["burgers", "--config", str(path), "--modes", "6", "--ranks", "1"]
        args = parser.parse_args(argv)
        args._explicit = _explicit_dests(parser, "burgers", argv)
        cfg = _config_from_file(args, "burgers")
        assert cfg.solver.K == 6
        assert cfg.backend.size == 1
        # Untouched flags keep the file's values, not argparse defaults.
        assert cfg.solver.ff == 1.0
        assert cfg.stream.batch == 20

    def test_explicit_self_backend_forces_single_rank(self, tmp_path):
        from repro.cli import _config_from_file

        parser = build_parser()
        path = self._write_config(tmp_path)
        args = parser.parse_args(
            ["burgers", "--config", str(path), "--backend", "self"]
        )
        args._explicit = {"backend"}
        cfg = _config_from_file(args, "burgers")
        assert (cfg.backend.name, cfg.backend.size) == ("self", 1)

    def test_burgers_runs_from_config_file(self, capsys, tmp_path):
        path = self._write_config(tmp_path)
        code = main(
            ["burgers", "--nx", "256", "--nt", "60", "--config", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "K=4, 2 ranks, backend=threads" in out
        assert "PASS" in out

    def test_burgers_flag_overrides_config_file(self, capsys, tmp_path):
        path = self._write_config(tmp_path)
        code = main(
            [
                "burgers", "--nx", "256", "--nt", "60",
                "--config", str(path), "--modes", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "K=3, 2 ranks, backend=threads" in out
        assert "PASS" in out

    def test_serve_query_runs_from_config_file(self, capsys, tmp_path):
        path = self._write_config(tmp_path)
        code = main(
            [
                "serve-query",
                "--nx", "128", "--nt", "40", "--queries", "4",
                "--store", str(tmp_path / "store"),
                "--config", str(path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out
        # The file's K=4 drove the published basis, not the --modes default.
        assert "4 modes" in out


class TestServeSubcommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--store", "basedir"])
        assert args.store == "basedir"
        assert (args.host, args.port) == ("127.0.0.1", 8080)
        assert args.deadline_ms == 25.0
        assert args.max_batch == 64
        assert args.cache_entries == 256
        assert args.tenant is None
        assert not args.seed_demo

    def test_store_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_tenant_flag_repeatable(self):
        args = build_parser().parse_args(
            ["serve", "--store", "s", "--tenant", "a:k1", "--tenant", "b:k2"]
        )
        assert args.tenant == ["a:k1", "b:k2"]

    def test_tenant_parse(self):
        from repro.cli import _parse_tenants
        from repro.config import TenantSpec
        from repro.exceptions import ConfigurationError

        assert _parse_tenants(["acme:k:with:colons"]) == (
            TenantSpec(name="acme", key="k:with:colons"),
        )
        for bad in ("nameonly", ":key", "name:"):
            with pytest.raises(ConfigurationError, match="NAME:KEY"):
                _parse_tenants([bad])

    def test_malformed_tenant_is_a_user_error(self, capsys, tmp_path):
        code = main(
            ["serve", "--store", str(tmp_path), "--tenant", "nocolon"]
        )
        assert code == 2
        assert "NAME:KEY" in capsys.readouterr().err

    def test_config_file_merge_covers_serving_section(self, tmp_path):
        from repro.cli import _config_from_file
        from repro.config import RunConfig, ServingConfig

        cfg = RunConfig(
            serving=ServingConfig(
                port=9999,
                flush_deadline_ms=7.0,
                max_batch=5,
                tenants=({"name": "acme", "key": "k"},),
            )
        )
        path = tmp_path / "serve.json"
        path.write_text(cfg.to_json(indent=2))
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--store", "s", "--config", str(path), "--port", "0"]
        )
        args._explicit = {"port"}
        merged = _config_from_file(args, "serve")
        # Explicit flag wins; untouched knobs keep the file's values.
        assert merged.serving.port == 0
        assert merged.serving.flush_deadline_ms == 7.0
        assert merged.serving.max_batch == 5
        assert merged.serving.tenants[0].name == "acme"


class TestProfileConfigOption:
    def test_profile_runs_from_config_file(self, capsys, tmp_path):
        from repro.config import RunConfig, SolverConfig, StreamConfig
        from repro.api import BackendConfig

        cfg = RunConfig(
            solver=SolverConfig(K=4, ff=1.0),
            backend=BackendConfig(name="threads", size=2),
            stream=StreamConfig(batch=16),
        )
        path = tmp_path / "run.json"
        path.write_text(cfg.to_json(indent=2))
        code = main(
            [
                "profile", "--config", str(path),
                "--steps", "3", "--ndof", "128",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # The file's K/ranks/batch drove the run, not the flag defaults.
        assert "K=4, 2 ranks" in out
        assert "128x48 synthetic stream" in out
