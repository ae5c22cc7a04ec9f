"""Implementation of the ``repro verify`` CLI subcommand.

Static mode (default) lints the given paths (files or directory trees)
with :func:`repro.verify.static.lint_paths` and prints one finding per
violation with its fix-it.  ``--schedule`` additionally runs a small
built-in streaming-SVD workload on every streaming lane (one per
``qr_variant``) under
:func:`repro.verify.schedule.checked_run` and reports each lane's
cross-rank schedule conformance and resource leaks.  Exit status is
nonzero when anything is found.
"""

from __future__ import annotations

import argparse
import json
from typing import List

__all__ = ["add_verify_arguments", "run_verify"]

#: Paths linted when the user names none.
DEFAULT_PATHS = ("src", "examples", "benchmarks")


def add_verify_arguments(parser: argparse.ArgumentParser) -> None:
    """Register ``repro verify``'s arguments on its subparser."""
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to report (default: all); "
        "e.g. --select SPMD001,SPMD002",
    )
    parser.add_argument(
        "--schedule",
        action="store_true",
        help="also run a built-in streaming workload under cross-rank "
        "trace conformance checking and leak detection",
    )
    parser.add_argument(
        "--ranks",
        type=int,
        default=2,
        help="rank count for the --schedule workload (threads backend)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="output format",
    )


def _schedule_smoke(ranks: int):
    """A tiny deterministic streaming-SVD run per streaming lane for the
    dynamic check: ``[(lane label, CheckedRun), ...]``."""
    import numpy as np

    from repro.api import (
        BackendConfig,
        RunConfig,
        Session,
        SolverConfig,
        StreamConfig,
    )
    from repro.config import QR_VARIANTS
    from repro.verify.schedule import checked_run

    rng = np.random.default_rng(7)
    data = rng.standard_normal((64, 48))

    def job(session: Session):
        return session.fit_stream(data).result().singular_values

    runs = []
    for qr_variant in QR_VARIANTS:
        config = RunConfig(
            solver=SolverConfig(K=4, ff=1.0, r1=20, qr_variant=qr_variant),
            backend=BackendConfig(name="threads", size=ranks),
            stream=StreamConfig(batch=16),
        )
        runs.append((f"qr_variant={qr_variant}", checked_run(config, job)))
    return runs


def run_verify(args: argparse.Namespace) -> int:
    from repro.verify.static import lint_paths

    paths = list(args.paths) or list(DEFAULT_PATHS)
    findings = lint_paths(paths)
    if args.select:
        selected = {
            code.strip().upper()
            for code in args.select.split(",")
            if code.strip()
        }
        findings = [f for f in findings if f.code in selected]

    runs = _schedule_smoke(args.ranks) if args.schedule else []

    failed = bool(findings) or any(not run.ok for _, run in runs)
    if args.output_format == "json":
        payload = {"findings": [f.to_dict() for f in findings]}
        if runs:
            divergences = [
                f"{lane}: {run.schedule.divergence.describe()}"
                for lane, run in runs
                if not run.schedule.ok
            ]
            payload["schedule"] = {
                "ok": all(run.ok for _, run in runs),
                "divergence": divergences[0] if divergences else None,
                "leaks": [
                    f"{lane}: {leak.describe()}"
                    for lane, run in runs
                    for leak in run.leaks
                ],
                "unawaited": [
                    f"{lane}: {message}"
                    for lane, run in runs
                    for message in run.unawaited
                ],
                "lanes": {lane: run.ok for lane, run in runs},
            }
        print(json.dumps(payload, indent=2))
        return 1 if failed else 0

    lines: List[str] = []
    for finding in findings:
        lines.append(finding.format())
    if findings:
        lines.append(f"{len(findings)} finding(s)")
    else:
        lines.append(f"static: no findings in {' '.join(paths)}")
    for lane, run in runs:
        lines.append(
            f"dynamic: [{lane}] " + run.describe().replace("\n", "\n  ")
        )
    print("\n".join(lines))
    return 1 if failed else 0
