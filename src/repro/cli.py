"""Command-line interface: run the paper's experiments from the shell.

Usage::

    python -m repro burgers     [--nx 2048 --nt 400 --ranks 4 --modes 10]
    python -m repro era5        [--nlat 24 --nlon 48 --nt 360 --ranks 4]
    python -m repro scaling     [--mode weak|strong --max-nodes 256]
    python -m repro serve-query [--nx 512 --queries 24 --ranks 2]
    python -m repro serve       --store DIR [--port 8080 --deadline-ms 25]
    python -m repro profile     [--ranks 4 --steps 6 --trace out.json]
    python -m repro chaos       [--ranks 4 --seed 1234 --max-restarts 2]
    python -m repro verify      [paths ...] [--schedule]
    python -m repro config      dump [run flags] | validate FILE
    python -m repro info

Every experiment subcommand resolves its flags into one typed
:class:`~repro.config.RunConfig` and drives the solver exclusively
through :class:`repro.api.Session` — the same entry point the examples
and benchmarks use.  ``repro config dump`` prints that fully-resolved
config as JSON (pipe it to a file, edit, and ``validate`` it);
``repro config validate FILE`` exits nonzero with the specific
:class:`~repro.exceptions.ConfigurationError` on any bad section, key or
value.

Every run subcommand (``burgers``, ``era5``, ``serve-query``, ``serve``,
``profile``, ``chaos``) accepts ``--config FILE`` to load a saved
:class:`~repro.config.RunConfig` JSON as the base configuration; flags
passed explicitly on the command line override the file's values (flags
left at their defaults do not).  ``scaling`` is the one exception: it
drives the analytic performance model, not a run, and takes no
RunConfig.

``repro serve`` starts the :mod:`repro.net` HTTP serving frontend over a
:class:`~repro.serving.ModeBaseStore`: ``POST /v1/query`` /
``GET /v1/jobs/{id}`` job submission with group-commit flushing (a
flush as soon as the engine goes idle; ``--deadline-ms`` is the latency
SLO whose misses are counted), a keyed result cache, per-tenant API keys
(``--tenant NAME:KEY``), ``/metrics`` and ``/healthz``.

Observability: the experiment subcommands accept ``--metrics-json PATH``
(dump the :mod:`repro.obs` metrics registry after the run) and
``--trace PATH`` (write the span timeline as Chrome-trace JSON, loadable
in Perfetto / ``chrome://tracing``).  ``repro profile`` runs a small
synthetic stream with both enabled and prints the per-phase breakdown.

``repro verify`` runs the SPMD collective-correctness analyzer
(:mod:`repro.verify`): a static lint of driver code against the
communicator protocol's SPMD rules, plus (``--schedule``) a dynamic
cross-rank trace conformance check with leak detection.

Each experiment prints the same tables/plots as the corresponding bench
and exits nonzero if the experiment's shape checks fail, so the CLI can be
used as a smoke test of an installation.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def _add_backend_option(parser: argparse.ArgumentParser) -> None:
    from repro.smpi import BACKENDS, DEFAULT_BACKEND

    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=DEFAULT_BACKEND,
        help="communicator backend: 'threads' (in-process SPMD, default), "
        "'self' (single rank, zero overhead; forces --ranks 1), or "
        "'mpi4py' (real MPI; launch via mpiexec)",
    )


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--prefetch",
        type=int,
        default=0,
        metavar="DEPTH",
        help="prefetch snapshot batches through a background double buffer "
        "of this depth (0 = off); batch production then overlaps compute",
    )


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help="after the run, dump the repro.obs metrics registry "
        "(counters/gauges/histograms) as JSON to this file",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="after the run, write the span timeline as Chrome-trace JSON "
        "to this file (open in Perfetto or chrome://tracing)",
    )


def _apply_obs_flags(cfg, args: argparse.Namespace):
    """Enable the run config's obs section for any requested output."""
    import dataclasses

    want_metrics = getattr(args, "metrics_json", None) is not None
    want_trace = getattr(args, "trace", None) is not None
    if not (want_metrics or want_trace):
        return cfg
    from repro.obs import runtime as obs_runtime

    # Each CLI invocation profiles one run: start from a clean slate.
    obs_runtime.reset()
    return dataclasses.replace(
        cfg,
        obs=dataclasses.replace(
            cfg.obs,
            metrics=cfg.obs.metrics or want_metrics,
            trace=cfg.obs.trace or want_trace,
        ),
    )


def _write_obs_outputs(args: argparse.Namespace) -> None:
    """Dump the requested metrics/trace files after a run."""
    from repro.obs import runtime as obs_runtime

    metrics_path = getattr(args, "metrics_json", None)
    if metrics_path:
        with open(metrics_path, "w", encoding="utf-8") as handle:
            handle.write(
                obs_runtime.default_registry().to_json(indent=2) + "\n"
            )
        print(f"metrics written to {metrics_path}")
    trace_path = getattr(args, "trace", None)
    if trace_path:
        obs_runtime.default_tracer().write_chrome_trace(trace_path)
        print(
            f"trace written to {trace_path} "
            f"(open in Perfetto or chrome://tracing)"
        )


def _add_config_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="load a RunConfig JSON file ('repro config dump' format) as "
        "the base configuration; flags passed explicitly override its "
        "values",
    )


def _resolve_ranks(args: argparse.Namespace) -> int:
    """The 'self' backend is single-rank by construction."""
    return 1 if args.backend == "self" else args.ranks


def _backend_config(args: argparse.Namespace):
    from repro.api import BackendConfig

    return BackendConfig(name=args.backend, size=_resolve_ranks(args))


#: Per-subcommand map of CLI flag dest -> (RunConfig section, field) for
#: merging explicit flags over a --config file.
_CONFIG_OVERRIDES = {
    "burgers": {
        "modes": ("solver", "K"),
        "ff": ("solver", "ff"),
        "backend": ("backend", "name"),
        "ranks": ("backend", "size"),
        "batch": ("stream", "batch"),
        "prefetch": ("stream", "prefetch"),
    },
    "era5": {
        "modes": ("solver", "K"),
        "backend": ("backend", "name"),
        "ranks": ("backend", "size"),
        "prefetch": ("stream", "prefetch"),
    },
    "serve-query": {
        "modes": ("solver", "K"),
        "backend": ("backend", "name"),
        "ranks": ("backend", "size"),
        "batch": ("stream", "batch"),
    },
    "chaos": {
        "modes": ("solver", "K"),
        "qr_variant": ("solver", "qr_variant"),
        "backend": ("backend", "name"),
        "ranks": ("backend", "size"),
        "batch": ("stream", "batch"),
        "prefetch": ("stream", "prefetch"),
    },
    "profile": {
        "modes": ("solver", "K"),
        "backend": ("backend", "name"),
        "ranks": ("backend", "size"),
        "batch": ("stream", "batch"),
        "prefetch": ("stream", "prefetch"),
    },
    "serve": {
        "host": ("serving", "host"),
        "port": ("serving", "port"),
        "deadline_ms": ("serving", "flush_deadline_ms"),
        "max_batch": ("serving", "max_batch"),
        "cache_entries": ("serving", "result_cache_entries"),
    },
}


def _explicit_dests(
    parser: argparse.ArgumentParser, command: str, argv: List[str]
) -> set:
    """Flag dests the user actually passed for ``command``.

    Detected by matching the subparser's option strings against the raw
    argv — argparse itself does not distinguish "given" from
    "defaulted", and the --config merge must override only the former.
    """
    sub = getattr(parser, "_repro_subparsers", {}).get(command)
    if sub is None:
        return set()
    explicit = set()
    for action in sub._actions:
        for option in action.option_strings:
            if any(
                token == option or token.startswith(option + "=")
                for token in argv
            ):
                explicit.add(action.dest)
                break
    return explicit


def _config_from_file(args: argparse.Namespace, command: str):
    """A RunConfig from ``--config FILE`` with explicit flags merged in."""
    import dataclasses

    from repro.api import load_run_config

    cfg = load_run_config(args.config)
    overrides = _CONFIG_OVERRIDES[command]
    explicit = getattr(args, "_explicit", set())
    changes = {"solver": {}, "backend": {}, "stream": {}, "serving": {}}
    for dest, (section, field) in overrides.items():
        if dest in explicit:
            changes[section][field] = getattr(args, dest)
    # Mirror _resolve_ranks: the 'self' backend is single-rank.
    if changes["backend"].get("name", cfg.backend.name) == "self":
        changes["backend"]["size"] = 1
    return dataclasses.replace(
        cfg,
        **{
            section: dataclasses.replace(getattr(cfg, section), **fields)
            for section, fields in changes.items()
            if fields
        },
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PyParSVD reproduction — streaming/distributed/randomized SVD",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_burgers = sub.add_parser(
        "burgers", help="serial-vs-parallel validation on viscous Burgers"
    )
    p_burgers.add_argument("--nx", type=int, default=2048)
    p_burgers.add_argument("--nt", type=int, default=400)
    p_burgers.add_argument("--ranks", type=int, default=4)
    p_burgers.add_argument("--modes", type=int, default=10)
    p_burgers.add_argument("--batch", type=int, default=100)
    p_burgers.add_argument("--ff", type=float, default=0.95)
    _add_backend_option(p_burgers)
    _add_pipeline_options(p_burgers)
    _add_config_option(p_burgers)
    _add_obs_options(p_burgers)

    p_era5 = sub.add_parser(
        "era5", help="coherent structures of the synthetic pressure record"
    )
    p_era5.add_argument("--nlat", type=int, default=24)
    p_era5.add_argument("--nlon", type=int, default=48)
    p_era5.add_argument("--nt", type=int, default=360)
    p_era5.add_argument("--ranks", type=int, default=4)
    p_era5.add_argument("--modes", type=int, default=6)
    _add_backend_option(p_era5)
    _add_pipeline_options(p_era5)
    _add_config_option(p_era5)
    _add_obs_options(p_era5)

    p_scaling = sub.add_parser("scaling", help="scaling studies (model)")
    p_scaling.add_argument(
        "--mode", choices=("weak", "strong"), default="weak"
    )
    p_scaling.add_argument("--max-nodes", type=int, default=256)
    p_scaling.add_argument(
        "--no-calibrate",
        action="store_true",
        help="use nominal machine rates instead of measuring this machine",
    )
    p_scaling.add_argument(
        "--group-size",
        type=int,
        default=None,
        help="model APMOS's grouped gather with this group size (weak "
        "scaling only); sizes <= 1 or >= a point's rank count model the "
        "single gather there",
    )

    p_serve = sub.add_parser(
        "serve-query",
        help="sharded mode-base serving: build a basis, publish it to a "
        "store, answer micro-batched queries, verify against the serial "
        "reference",
    )
    p_serve.add_argument("--nx", type=int, default=512)
    p_serve.add_argument("--nt", type=int, default=120)
    p_serve.add_argument("--modes", type=int, default=8)
    p_serve.add_argument("--batch", type=int, default=30)
    p_serve.add_argument("--ranks", type=int, default=2)
    p_serve.add_argument("--queries", type=int, default=24)
    p_serve.add_argument(
        "--window",
        type=int,
        default=8,
        help="micro-batch window: queries coalesced per flush",
    )
    p_serve.add_argument(
        "--store",
        default=None,
        help="store directory to publish into (default: a temporary one)",
    )
    _add_backend_option(p_serve)
    _add_config_option(p_serve)
    _add_obs_options(p_serve)

    p_net = sub.add_parser(
        "serve",
        help="HTTP serving frontend (repro.net): job-based query "
        "submission over a mode-base store with group-commit "
        "flushing, a keyed result cache, per-tenant API keys, "
        "/metrics and /healthz",
    )
    p_net.add_argument(
        "--store",
        required=True,
        help="ModeBaseStore directory to serve (see --seed-demo)",
    )
    p_net.add_argument("--host", default="127.0.0.1")
    p_net.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listen port (0 = pick an ephemeral port and print it)",
    )
    p_net.add_argument(
        "--deadline-ms",
        type=float,
        default=25.0,
        help="flush-latency SLO: a flush whose oldest query waited this "
        "long counts as a miss in deadline_flushes (the server flushes as "
        "soon as its engine goes idle)",
    )
    p_net.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="size watermark: auto-flush once this many queries queue",
    )
    p_net.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        help="keyed result cache capacity (0 = off)",
    )
    p_net.add_argument(
        "--tenant",
        action="append",
        default=None,
        metavar="NAME:KEY",
        help="register a tenant API key (repeatable); with no --tenant "
        "the server is open (single-user mode)",
    )
    p_net.add_argument(
        "--seed-demo",
        action="store_true",
        help="before serving, publish a small Burgers basis as 'burgers' "
        "into the store (creates it if needed) — a self-contained demo "
        "/ smoke-test target",
    )
    _add_config_option(p_net)
    _add_obs_options(p_net)

    p_profile = sub.add_parser(
        "profile",
        help="stream a small synthetic low-rank matrix with observability "
        "on and print the per-phase timing breakdown (repro.obs); "
        "--trace/--metrics-json export the raw timeline and registry",
    )
    p_profile.add_argument("--ranks", type=int, default=4)
    p_profile.add_argument("--modes", type=int, default=8)
    p_profile.add_argument(
        "--ndof", type=int, default=1024, help="rows of the synthetic stream"
    )
    p_profile.add_argument("--batch", type=int, default=24)
    p_profile.add_argument(
        "--steps", type=int, default=6, help="number of streamed batches"
    )
    p_profile.add_argument(
        "--prefetch",
        type=int,
        default=2,
        metavar="DEPTH",
        help="background prefetch depth for the synthetic stream (0 = off)",
    )
    _add_backend_option(p_profile)
    _add_config_option(p_profile)
    _add_obs_options(p_profile)

    p_chaos = sub.add_parser(
        "chaos",
        help="fault-injection drill: stream a synthetic matrix under a "
        "seeded fault schedule (rank crash + delays) with a restart "
        "policy, then print a recovery report comparing the recovered "
        "run against the fault-free one",
    )
    p_chaos.add_argument("--ranks", type=int, default=4)
    p_chaos.add_argument("--modes", type=int, default=8)
    p_chaos.add_argument(
        "--ndof", type=int, default=256, help="rows of the synthetic stream"
    )
    p_chaos.add_argument("--batch", type=int, default=16)
    p_chaos.add_argument(
        "--steps", type=int, default=8, help="number of streamed batches"
    )
    p_chaos.add_argument(
        "--seed",
        type=int,
        default=1234,
        help="fault-schedule seed: picks the crashing rank, the crash "
        "step, and the injection RNG (same seed = same faults)",
    )
    p_chaos.add_argument(
        "--max-restarts",
        type=int,
        default=2,
        help="RestartPolicy.max_restarts for the recovery run",
    )
    p_chaos.add_argument(
        "--qr-variant", choices=("gather", "tree"), default="gather"
    )
    p_chaos.add_argument(
        "--prefetch",
        type=int,
        default=2,
        metavar="DEPTH",
        help="background prefetch depth for the synthetic stream (0 = off)",
    )
    p_chaos.add_argument(
        "--tol",
        type=float,
        default=1e-12,
        help="max allowed |recovered - fault-free| deviation in singular "
        "values and modes",
    )
    p_chaos.add_argument(
        "--live",
        action="store_true",
        help="recover with RestartPolicy(mode='live'): the crash triggers "
        "an in-place elastic shrink (in-memory snapshot, no stream "
        "replay) instead of restart-and-replay",
    )
    _add_backend_option(p_chaos)
    _add_obs_options(p_chaos)
    _add_config_option(p_chaos)

    p_verify = sub.add_parser(
        "verify",
        help="SPMD collective-correctness analyzer: static lint over "
        "driver code, plus --schedule for a dynamic cross-rank trace "
        "conformance and leak check",
    )
    from repro.verify.cli import add_verify_arguments

    add_verify_arguments(p_verify)

    p_config = sub.add_parser(
        "config",
        help="inspect / validate typed run configs (repro.api.RunConfig)",
    )
    config_sub = p_config.add_subparsers(dest="config_command", required=True)
    p_dump = config_sub.add_parser(
        "dump",
        help="print the fully-resolved RunConfig for the given flags as JSON",
    )
    p_dump.add_argument("--ranks", type=int, default=1)
    p_dump.add_argument("--modes", type=int, default=10)
    p_dump.add_argument("--ff", type=float, default=0.95)
    p_dump.add_argument("--batch", type=int, default=None)
    p_dump.add_argument("--source", default=None, help="snapshot container path")
    p_dump.add_argument(
        "--qr-variant", choices=("gather", "tree"), default="gather"
    )
    p_dump.add_argument(
        "--gather", choices=("bcast", "root", "none"), default="bcast"
    )
    p_dump.add_argument("--low-rank", action="store_true")
    p_dump.add_argument("--seed", type=int, default=None)
    _add_backend_option(p_dump)
    _add_pipeline_options(p_dump)
    p_validate = config_sub.add_parser(
        "validate",
        help="load a RunConfig JSON file; exit nonzero with the specific "
        "ConfigurationError if it does not validate",
    )
    p_validate.add_argument("file", help="path to a RunConfig JSON file")

    sub.add_parser("info", help="version and configuration summary")
    parser._repro_subparsers = {
        "burgers": p_burgers,
        "era5": p_era5,
        "serve-query": p_serve,
        "serve": p_net,
        "profile": p_profile,
        "chaos": p_chaos,
    }
    return parser


def _cmd_info() -> int:
    import repro
    from repro.api import RunConfig

    cfg = RunConfig()
    print(f"repro {repro.__version__} — PyParSVD reproduction (SC 2021)")
    print(
        f"defaults: K={cfg.solver.K} ff={cfg.solver.ff} r1={cfg.solver.r1} "
        f"low_rank={cfg.solver.low_rank} backend={cfg.backend.name}"
    )
    print("entry point: repro.api.Session / RunConfig ('repro config dump')")
    print("subpackages: api, core, smpi, data, serving, analysis, postprocessing, perf")
    return 0


def _cmd_burgers(args: argparse.Namespace) -> int:
    from repro import ParSVDSerial, compare_modes
    from repro.api import RunConfig, Session, SolverConfig, StreamConfig
    from repro.data.burgers import BurgersProblem

    if args.config:
        cfg = _config_from_file(args, "burgers")
    else:
        cfg = RunConfig(
            solver=SolverConfig(
                K=args.modes, ff=args.ff, r1=50,
                low_rank=True, oversampling=10, power_iters=2, seed=0,
            ),
            backend=_backend_config(args),
            stream=StreamConfig(batch=args.batch, prefetch=args.prefetch),
        )
    cfg = _apply_obs_flags(cfg, args)
    print(
        f"Burgers validation: {args.nx} points, {args.nt} snapshots, "
        f"K={cfg.solver.K}, {cfg.backend.size} ranks, backend={cfg.backend.name}"
    )
    data = BurgersProblem(nx=args.nx, nt=args.nt).snapshot_matrix()

    batch = cfg.stream.batch or args.batch
    serial = ParSVDSerial(K=cfg.solver.K, ff=cfg.solver.ff)
    serial.initialize(data[:, :batch])
    for start in range(batch, args.nt, batch):
        serial.incorporate_data(data[:, start : start + batch])

    def job(session: Session):
        res = session.fit_stream(data).result()
        return res.modes, res.singular_values

    modes, values = Session.run(cfg, job)[0]
    comparison = compare_modes(
        serial.modes, serial.singular_values, modes, values, n_modes=2
    )
    print(f"mode errors (leading 2): {comparison.mode_rel_errors}")
    print(f"spectrum errors        : {comparison.spectrum_rel_errors}")
    _write_obs_outputs(args)
    ok = comparison.worst_mode_error < 1e-2
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_era5(args: argparse.Namespace) -> int:
    from repro.analysis.coherent import extract_coherent_structures
    from repro.api import RunConfig, Session, SolverConfig, StreamConfig
    from repro.data.era5_like import Era5LikeField

    field = Era5LikeField(
        nlat=args.nlat, nlon=args.nlon, nt=args.nt, noise_amp=0.4, seed=11
    )
    data = field.anomaly_snapshots()
    if args.config:
        cfg = _config_from_file(args, "era5")
    else:
        cfg = RunConfig(
            solver=SolverConfig(K=args.modes, ff=1.0, r1=50),
            backend=_backend_config(args),
            stream=StreamConfig(
                batch=max(args.nt // 6, 1), prefetch=args.prefetch
            ),
        )
    cfg = _apply_obs_flags(cfg, args)

    def job(session: Session):
        res = session.fit_stream(data).result()
        return res.modes, res.singular_values

    modes, values = Session.run(cfg, job)[0]
    cos_map, sin_map = field.wave_patterns()[0]
    report = extract_coherent_structures(
        modes,
        values,
        ground_truth={
            "seasonal": field.seasonal_pattern().ravel(),
            "wave": np.column_stack([cos_map.ravel(), sin_map.ravel()]),
        },
        n_modes=min(3, cfg.solver.K),
    )
    for line in report.summary_lines():
        print(line)
    _write_obs_outputs(args)
    ok = (
        report.dominant_structure(0) is not None
        and report.dominant_structure(0)[1] > 0.9
    )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_serve_query(args: argparse.Namespace) -> int:
    import contextlib
    import tempfile

    from repro.data.burgers import BurgersProblem
    from repro.serving import ModeBaseStore

    ranks = _resolve_ranks(args)
    with contextlib.ExitStack() as stack:
        if args.store is None:
            # Ephemeral demo store, removed on exit; pass --store to keep.
            store_root = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-store-")
            )
        else:
            store_root = args.store
        print(
            f"Serving demo: Burgers {args.nx}x{args.nt}, K={args.modes}, "
            f"{ranks} shards, backend={args.backend}, "
            f"{args.queries} queries, window={args.window}"
        )
        print(
            f"store: {store_root}"
            + (" (temporary, removed on exit)" if args.store is None else "")
        )
        data = BurgersProblem(nx=args.nx, nt=args.nt).snapshot_matrix()
        store = ModeBaseStore(store_root)
        return _run_serve_query(args, data, store)


def _run_serve_query(args, data, store) -> int:
    import time

    from repro.analysis.reconstruction import (
        project_coefficients,
        reconstruction_error_curve,
    )
    from repro.api import RunConfig, Session, SolverConfig, StreamConfig
    from repro.postprocessing.report import format_table

    if args.config:
        cfg = _config_from_file(args, "serve-query")
    else:
        cfg = RunConfig(
            solver=SolverConfig(K=args.modes, ff=1.0, r1=50),
            backend=_backend_config(args),
            stream=StreamConfig(batch=args.batch),
        )
    cfg = _apply_obs_flags(cfg, args)

    def build(session: Session):
        session.fit_stream(data)
        return session.export_to_store(store, "burgers")

    version = Session.run(cfg, build)[0]
    base = store.get("burgers", version)
    print(f"published 'burgers' v{version} ({base.n_dof} dof, {base.n_modes} modes)")

    rng = np.random.default_rng(0)
    queries = [
        data[:, rng.integers(0, args.nt, size=3)] for _ in range(args.queries)
    ]

    def serve(session: Session):
        engine = session.query_engine(
            store, flush_threshold=max(args.window, 1)
        )
        t0 = time.perf_counter()
        tickets = [
            (
                engine.submit_project("burgers", q),
                engine.submit_error("burgers", q),
            )
            for q in queries
        ]
        engine.flush()
        elapsed = time.perf_counter() - t0
        answers = [(tp.result(), te.result()) for tp, te in tickets]
        return answers, engine.stats(), elapsed

    answers, stats, elapsed = Session.run(cfg, serve)[0]

    worst = 0.0
    for q, (coeffs, err) in zip(queries, answers):
        ref_c = project_coefficients(base.modes, q)
        ref_e = reconstruction_error_curve(q, base.modes)[-1]
        worst = max(
            worst,
            float(np.max(np.abs(coeffs - ref_c))),
            abs(err - ref_e),
        )
    n_queries = stats["queries"]
    print(
        format_table(
            ["queries", "flushes", "gemms", "collectives", "queries_per_s"],
            [[
                n_queries,
                stats["flushes"],
                stats["gemms"],
                stats["collectives"],
                f"{n_queries / max(elapsed, 1e-9):.0f}",
            ]],
        )
    )
    print(f"worst deviation vs serial reference: {worst:.3e}")
    _write_obs_outputs(args)
    ok = worst < 1e-8
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _parse_tenants(specs):
    from repro.config import TenantSpec
    from repro.exceptions import ConfigurationError

    tenants = []
    for spec in specs:
        name, sep, key = spec.partition(":")
        if not sep or not name or not key:
            raise ConfigurationError(
                f"--tenant expects NAME:KEY, got {spec!r}"
            )
        tenants.append(TenantSpec(name=name, key=key))
    return tuple(tenants)


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.api import (
        BackendConfig,
        ObservabilityConfig,
        RunConfig,
        Session,
        SolverConfig,
        StreamConfig,
    )
    from repro.config import ServingConfig
    from repro.net import serve_forever
    from repro.serving import ModeBaseStore

    if args.config:
        cfg = _config_from_file(args, "serve")
        if cfg.backend.size > 1:
            # The frontend owns a single-rank session; queries batch into
            # GEMMs, they do not fan out across ranks.
            cfg = cfg.replace(
                backend=dataclasses.replace(cfg.backend, size=1)
            )
    else:
        cfg = RunConfig(
            backend=BackendConfig(name="self"),
            serving=ServingConfig(
                host=args.host,
                port=args.port,
                flush_deadline_ms=args.deadline_ms,
                max_batch=args.max_batch,
                result_cache_entries=args.cache_entries,
            ),
            # /metrics serves the repro.obs registry: metering on by
            # default (override through --config).
            obs=ObservabilityConfig(metrics=True),
        )
    if args.tenant:
        cfg = cfg.replace(
            serving=dataclasses.replace(
                cfg.serving, tenants=_parse_tenants(args.tenant)
            )
        )
    cfg = _apply_obs_flags(cfg, args)

    store = ModeBaseStore(args.store)
    if args.seed_demo:
        from repro.data.burgers import BurgersProblem

        data = BurgersProblem(nx=512, nt=120).snapshot_matrix()
        seed_cfg = RunConfig(
            solver=SolverConfig(K=8, ff=1.0, r1=50),
            stream=StreamConfig(batch=30),
        )
        with Session(seed_cfg) as session:
            version = session.fit_stream(data).export_to_store(
                store, "burgers"
            )
        print(f"seeded demo basis 'burgers' v{version} into {args.store}")

    scfg = cfg.serving
    print(
        f"serving {args.store} on {scfg.host}:{scfg.port} "
        f"(deadline={scfg.flush_deadline_ms:g}ms, max_batch={scfg.max_batch}, "
        f"cache={scfg.result_cache_entries}, "
        f"tenants={len(scfg.tenants) or 'open'})"
    )
    serve_forever(store, cfg)
    _write_obs_outputs(args)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.api import (
        ObservabilityConfig,
        RunConfig,
        Session,
        SolverConfig,
        StreamConfig,
    )
    from repro.obs import runtime as obs_runtime

    if args.config:
        cfg = _config_from_file(args, "profile")
        # Profiling is the whole point of the subcommand: metrics and
        # trace are always on, whatever the file says.
        cfg = cfg.replace(
            stream=dataclasses.replace(
                cfg.stream,
                batch=cfg.stream.batch or args.batch,
                source=None,
            ),
            obs=ObservabilityConfig(metrics=True, trace=True),
        )
    else:
        cfg = RunConfig(
            solver=SolverConfig(K=args.modes, ff=0.95),
            backend=_backend_config(args),
            stream=StreamConfig(batch=args.batch, prefetch=args.prefetch),
            obs=ObservabilityConfig(metrics=True, trace=True),
        )
    ranks = cfg.backend.size
    nt = cfg.stream.batch * args.steps
    # Synthetic low-rank stream: a few smooth spatial modes modulated in
    # time, plus noise — enough structure for the solver to do real work
    # in every phase without needing a PDE solve.
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 1.0, args.ndof)
    t = np.linspace(0.0, 1.0, nt)
    rank = min(5, cfg.solver.K)
    basis = np.column_stack(
        [np.sin((i + 1) * np.pi * x) for i in range(rank)]
    )
    weights = np.column_stack(
        [np.cos((i + 1) * 2.0 * np.pi * t) / (i + 1.0) for i in range(rank)]
    )
    data = basis @ weights.T
    data += 0.01 * rng.standard_normal(data.shape)
    obs_runtime.reset()
    print(
        f"profile: {args.ndof}x{nt} synthetic stream, K={cfg.solver.K}, "
        f"{ranks} ranks, backend={cfg.backend.name}, "
        f"prefetch={cfg.stream.prefetch}"
    )

    def job(session: Session):
        return session.fit_stream(data).result().singular_values

    Session.run(cfg, job)

    tracer = obs_runtime.default_tracer()
    lines = tracer.summary_lines()
    if not lines:
        print("error: no spans recorded", file=sys.stderr)
        return 1
    print()
    for line in lines:
        print(line)
    snapshot = obs_runtime.default_registry().snapshot()
    comm_counters = {
        name: meter["value"]
        for name, meter in snapshot["counters"].items()
        if name.startswith("repro.smpi.") and name.endswith(".calls")
    }
    if comm_counters:
        total_calls = int(sum(comm_counters.values()))
        print(f"communicator ops metered: {total_calls}")
    _write_obs_outputs(args)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.api import (
        FaultConfig,
        FaultSpec,
        ObservabilityConfig,
        RestartPolicy,
        RunConfig,
        Session,
        SolverConfig,
        StreamConfig,
    )
    from repro.obs import runtime as obs_runtime
    from repro.smpi import provenance

    if args.config:
        base = _config_from_file(args, "chaos")
        if not base.obs.metrics:
            # The recovery report reads repro.recovery.* counters.
            base = base.replace(
                obs=dataclasses.replace(base.obs, metrics=True)
            )
        if base.stream.batch is None:
            base = base.replace(
                stream=dataclasses.replace(base.stream, batch=args.batch)
            )
    else:
        base = RunConfig(
            solver=SolverConfig(
                K=args.modes,
                ff=0.95,
                qr_variant=args.qr_variant,
            ),
            backend=_backend_config(args),
            stream=StreamConfig(batch=args.batch, prefetch=args.prefetch),
            obs=ObservabilityConfig(metrics=True),
        )
    ranks = base.backend.size
    batch = base.stream.batch
    nt = batch * args.steps
    # Same synthetic low-rank stream as `repro profile`: smooth spatial
    # modes modulated in time plus noise.
    rng = np.random.default_rng(7)
    x = np.linspace(0.0, 1.0, args.ndof)
    t = np.linspace(0.0, 1.0, nt)
    rank = min(5, base.solver.K)
    basis = np.column_stack(
        [np.sin((i + 1) * np.pi * x) for i in range(rank)]
    )
    weights = np.column_stack(
        [np.cos((i + 1) * 2.0 * np.pi * t) / (i + 1.0) for i in range(rank)]
    )
    data = basis @ weights.T
    data += 0.01 * rng.standard_normal(data.shape)

    def job(session: Session):
        result = session.fit_stream(data).result()
        return result.singular_values, result.modes

    print(
        f"chaos: {args.ndof}x{nt} synthetic stream, K={base.solver.K}, "
        f"{ranks} ranks, backend={base.backend.name}, "
        f"qr_variant={base.solver.qr_variant}, seed={args.seed}"
    )
    print("fault-free reference run ...")
    clean = Session.run(base, job)

    # Seeded schedule: one rank dies at a random (but reproducible) op,
    # another gets a few injected delays so slow-and-dead coexist.
    frng = np.random.default_rng(args.seed)
    crash_rank = int(frng.integers(0, ranks))
    # Both recovery modes capture a snapshot (one gatherv_rows + barrier
    # per rank) after every batch, so they share one op census and one
    # crash-ordinal window.
    crash_at = int(frng.integers(5, 30))
    delay_rank = int(frng.integers(0, ranks))
    schedule = (
        FaultSpec(kind="crash", rank=crash_rank, op="*", at=crash_at),
        FaultSpec(
            kind="delay",
            rank=delay_rank,
            op="bcast",
            at=0,
            count=3,
            delay_s=0.002,
        ),
    )
    for spec in schedule:
        print(
            f"injecting: {spec.kind}(rank={spec.rank}, op={spec.op!r}, "
            f"at={spec.at}, count={spec.count})"
        )
    cfg = base.replace(
        faults=FaultConfig(enabled=True, seed=args.seed, schedule=schedule)
    )
    if args.live:
        # Live elasticity needs a heartbeat-monitored world.
        from repro.config import HealthConfig

        cfg = cfg.replace(
            health=HealthConfig(
                enabled=True, heartbeat_interval=0.01, suspect_after=0.1
            )
        )
    policy = RestartPolicy(
        mode="live" if args.live else "restart",
        max_restarts=args.max_restarts,
        backoff_s=0.05,
        checkpoint_every=1,
    )
    print(
        f"chaos run with "
        f"{'live elasticity' if args.live else 'restart policy'} "
        f"(max_restarts={policy.max_restarts}) ..."
    )
    obs_runtime.reset()
    with provenance.track() as scope:
        recovered = Session.run(cfg, job, restart_policy=policy)
    leaked = scope.pending_requests()

    counters = obs_runtime.default_registry().snapshot()["counters"]

    def count(name: str) -> int:
        meter = counters.get(name)
        return int(meter["value"]) if meter else 0

    restarts = count("repro.recovery.restarts")
    replayed = count("repro.recovery.replayed_batches")
    live_rescales = count("repro.recovery.live_rescales")
    injected = {
        kind: count(f"repro.faults.injected.{kind}")
        for kind in ("crash", "delay", "jitter", "drop")
    }
    dsv = max(
        float(np.abs(c[0] - r[0]).max()) for c, r in zip(clean, recovered)
    )
    dmodes = max(
        float(np.abs(np.abs(c[1]) - np.abs(r[1])).max())
        for c, r in zip(clean, recovered)
        if c[1] is not None and r[1] is not None
    )

    print()
    print("recovery report")
    print(f"  restarts:         {restarts}")
    print(f"  replayed batches: {replayed}")
    print(f"  live rescales:    {live_rescales}")
    print(
        "  injected:         "
        + " ".join(f"{kind}={n}" for kind, n in injected.items())
    )
    print(f"  leaked requests:  {len(leaked)}")
    for leak in leaked[:8]:
        print(f"    - {leak.describe()}")
    print(f"  max |dsigma| vs fault-free: {dsv:.3e}")
    print(f"  max |dmodes| vs fault-free: {dmodes:.3e}")

    failed = []
    if args.live:
        if injected["crash"] > 0 and live_rescales < 1:
            failed.append(
                "a crash was injected but no live rescale happened"
            )
        if replayed > 0:
            failed.append(
                f"live recovery must not replay the stream "
                f"({replayed} batch(es) replayed)"
            )
    elif injected["crash"] > 0 and restarts < 1:
        failed.append("a crash was injected but no restart happened")
    if dsv > args.tol or dmodes > args.tol:
        failed.append(
            f"recovered run deviates from the fault-free run (tol {args.tol})"
        )
    if leaked:
        failed.append(f"{len(leaked)} request(s) leaked across recovery")
    _write_obs_outputs(args)
    if failed:
        for reason in failed:
            print(f"error: {reason}", file=sys.stderr)
        return 1
    print("recovery OK: recovered run matches the fault-free run")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.perf.machine import THETA_KNL
    from repro.perf.scaling import StrongScalingStudy, WeakScalingStudy
    from repro.postprocessing.report import scaling_report

    calibrate = not args.no_calibrate
    if args.mode == "weak":
        study = WeakScalingStudy(machine=THETA_KNL, calibrate=calibrate)
        counts = study.paper_rank_counts(max_nodes=args.max_nodes)
        result = study.run(counts, group_size=args.group_size)
        label = "weak scaling"
        if args.group_size:
            label += f" (two-level, groups of {args.group_size})"
        print(scaling_report(list(result.ranks), list(result.times), label=label))
        return 0
    study = StrongScalingStudy(machine=THETA_KNL, calibrate=calibrate)
    counts = [1 << i for i in range(15) if (1 << i) <= args.max_nodes * 64]
    result = study.run(counts)
    print(scaling_report(list(result.ranks), list(result.times), label="strong scaling"))
    print(f"speedups: {np.round(study.speedups(result), 2)}")
    print(f"turnover at ~{study.turnover_ranks()} ranks")
    return 0


def _cmd_config(args: argparse.Namespace) -> int:
    from repro.api import RunConfig, SolverConfig, StreamConfig, load_run_config

    if args.config_command == "validate":
        cfg = load_run_config(args.file)
        print(f"{args.file}: valid RunConfig")
        print(cfg.to_json(indent=2))
        return 0
    cfg = RunConfig(
        solver=SolverConfig(
            K=args.modes,
            ff=args.ff,
            low_rank=args.low_rank,
            seed=args.seed,
            qr_variant=args.qr_variant,
            gather=args.gather,
        ),
        backend=_backend_config(args),
        stream=StreamConfig(
            source=args.source, batch=args.batch, prefetch=args.prefetch
        ),
    )
    print(cfg.to_json(indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.exceptions import ConfigurationError
    from repro.smpi import ParallelFailure, SmpiError

    parser = build_parser()
    args = parser.parse_args(argv)
    raw = list(sys.argv[1:] if argv is None else argv)
    args._explicit = _explicit_dests(parser, args.command, raw)
    try:
        if args.command == "info":
            return _cmd_info()
        if args.command == "burgers":
            return _cmd_burgers(args)
        if args.command == "era5":
            return _cmd_era5(args)
        if args.command == "scaling":
            return _cmd_scaling(args)
        if args.command == "serve-query":
            return _cmd_serve_query(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "verify":
            from repro.verify.cli import run_verify

            return run_verify(args)
        if args.command == "config":
            return _cmd_config(args)
    except ParallelFailure:
        # A rank crashed inside the job: that is a bug, not a user error —
        # let the wrapped per-rank traceback propagate.
        raise
    except (ConfigurationError, SmpiError) as exc:
        # Misconfiguration (e.g. an unusable backend or an invalid run
        # config file) is a user error, not a crash: print the message,
        # not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
