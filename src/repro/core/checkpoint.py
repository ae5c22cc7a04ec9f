"""Checkpoint/restart for streaming SVD state.

The paper targets in-situ analysis alongside long-running simulations; in
that setting the analysis must survive job restarts.  ``save_results``
(:class:`~repro.core.base.ParSVDBase`) stores only the *outputs*; a
checkpoint stores the full *resumable state* — modes, values, counters and
the configuration — so ingestion can continue exactly where it stopped:

>>> svd.save_checkpoint("state.ckpt.npz")         # before the job ends
>>> svd = ParSVDSerial.from_checkpoint("state.ckpt.npz")
>>> svd.incorporate_data(next_batch)              # stream continues

For the parallel class each rank checkpoints its own shard
(``<stem>.rank<i>.npz``); on restart the rank count must match, which is
validated.  Alternatively ``save_checkpoint(..., gathered=True)`` writes one
single file at rank 0 holding the *assembled* global modes
(``kind="gathered"``); such a checkpoint can be restarted at **any** rank
count — each restarting rank re-partitions the global rows with the
canonical :func:`~repro.utils.partition.block_partition`.

The gathered state itself is a :class:`Snapshot`: what
``ParSVDParallel.snapshot()`` captures in memory and ``from_snapshot()``
restores at any rank count, and what a gathered checkpoint file holds.

Format: a single ``.npz`` with a format-version field; loading a newer or
unknown version fails loudly rather than mis-restoring.  Files are
replaced atomically, so a write that fails part-way leaves the previous
checkpoint intact.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import uuid
import warnings
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from ..config import SVDConfig

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..config import RunConfig
from ..exceptions import DataFormatError, NotInitializedError

__all__ = [
    "CHECKPOINT_VERSION",
    "CHECKPOINT_KINDS",
    "Snapshot",
    "normalize_checkpoint_path",
    "write_checkpoint",
    "read_checkpoint",
]

CHECKPOINT_VERSION = 1

#: Valid values of the ``kind`` identity field.  ``"serial"`` and
#: ``"parallel"`` hold one (rank's) state; ``"gathered"`` holds the fully
#: assembled global modes in a single rank-0 file.
CHECKPOINT_KINDS = ("serial", "parallel", "gathered")

PathLike = Union[str, pathlib.Path]


@dataclasses.dataclass(frozen=True)
class Snapshot:
    """The gathered, resumable streaming state: global modes stacked in
    rank order, singular values and counters.  Owns its arrays (they never
    alias a driver's workspace), so one snapshot restores any number of
    worlds at any rank count."""

    modes: np.ndarray
    singular_values: np.ndarray
    iteration: int
    n_seen: int


def normalize_checkpoint_path(path: PathLike) -> pathlib.Path:
    """The on-disk path a checkpoint lands at for a user-supplied ``path``.

    Appends ``.npz`` rather than substituting it: ``"results.v2"`` must
    become ``"results.v2.npz"``, not clobber the stem into
    ``"results.npz"``.  Exposed so collective writers (only rank 0 touches
    the file) can agree on the destination without writing.
    """
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def write_checkpoint(
    path: PathLike,
    config: SVDConfig,
    modes: np.ndarray,
    singular_values: np.ndarray,
    iteration: int,
    n_seen: int,
    kind: str,
    rank: int = 0,
    nranks: int = 1,
    qr_variant: str = "gather",
    gather: str = "bcast",
    apmos_group_size: Optional[int] = None,
    run_config: Optional["RunConfig"] = None,
) -> pathlib.Path:
    """Serialise one (rank's) resumable streaming state.

    ``qr_variant``/``gather``/``apmos_group_size`` record the parallel
    driver's run options so a restart continues with the saved
    configuration; the serial driver leaves them at their defaults.

    ``run_config`` (when given, e.g. by :class:`~repro.api.Session`)
    embeds the full typed :class:`~repro.config.RunConfig` as a JSON
    payload, so a resume can restore solver *and* backend settings —
    including knobs the flat fields don't carry (backend name/size,
    stream batching).
    """
    if modes is None or singular_values is None:
        raise NotInitializedError("cannot checkpoint an uninitialised SVD")
    if kind not in CHECKPOINT_KINDS:
        raise DataFormatError(
            f"checkpoint kind must be one of {CHECKPOINT_KINDS}, got {kind!r}"
        )
    path = normalize_checkpoint_path(path)
    arrays = dict(
        format_version=np.asarray(CHECKPOINT_VERSION),
        kind=np.asarray(kind),
        modes=modes,
        singular_values=singular_values,
        iteration=np.asarray(int(iteration)),
        n_seen=np.asarray(int(n_seen)),
        rank=np.asarray(int(rank)),
        nranks=np.asarray(int(nranks)),
        config_K=np.asarray(config.K),
        config_ff=np.asarray(config.ff),
        config_low_rank=np.asarray(config.low_rank),
        config_r1=np.asarray(config.r1),
        config_oversampling=np.asarray(config.oversampling),
        config_power_iters=np.asarray(config.power_iters),
        config_seed=np.asarray(-1 if config.seed is None else config.seed),
        par_qr_variant=np.asarray(qr_variant),
        par_gather=np.asarray(gather),
        par_apmos_group_size=np.asarray(
            -1 if apmos_group_size is None else int(apmos_group_size)
        ),
    )
    if run_config is not None:
        arrays["run_config_json"] = np.asarray(run_config.to_json())
    # Write beside the destination and rename over it: a write that fails
    # part-way must not destroy the previous (possibly only) recovery point.
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


#: ``(section, key)`` pairs of an embedded run config that this build
#: retired.  A checkpoint written before the retirement keeps the rest of
#: its config; the key is dropped with one warning naming it.
RETIRED_RUN_CONFIG_KEYS = (
    ("solver", "workspace"),
    ("solver", "overlap"),
    ("obs", "window_s"),
    ("solver", "r2"),
)


def _embedded_run_config(path: pathlib.Path, text: str) -> Optional["RunConfig"]:
    """The embedded run config minus retired keys, or ``None`` with a
    warning when anything else in it does not parse."""
    from ..config import RunConfig

    retired = []
    try:
        payload = json.loads(text)
        for section, key in RETIRED_RUN_CONFIG_KEYS:
            fields = payload.get(section) if isinstance(payload, dict) else None
            if isinstance(fields, dict) and key in fields:
                del fields[key]
                retired.append(f"{section}.{key}")
        run_config = RunConfig.from_dict(payload)
    except ValueError as exc:  # bad JSON, or a ConfigurationError
        warnings.warn(
            f"{path}: ignoring embedded run config this build cannot parse "
            f"({exc}); restoring from the flat checkpoint fields instead",
            stacklevel=3,
        )
        return None
    if retired:
        warnings.warn(
            f"{path}: dropped retired key(s) {', '.join(retired)} from the "
            f"embedded run config; the rest of it is restored",
            stacklevel=3,
        )
    return run_config


def read_checkpoint(
    path: PathLike, load_arrays: bool = True, load_run_config: bool = True
) -> dict:
    """Load and validate a checkpoint written by :func:`write_checkpoint`.

    Returns a dict with ``config`` (an :class:`SVDConfig`), the state
    arrays, counters, the ``kind``/``rank``/``nranks`` identity fields,
    and ``run_config`` — the embedded :class:`~repro.config.RunConfig`
    when the checkpoint was written through the :mod:`repro.api` layer,
    else ``None``.  A key in :data:`RETIRED_RUN_CONFIG_KEYS` is dropped
    from it with a warning.  An embedded config this build cannot parse
    otherwise (e.g. a newer format) degrades to ``None`` with a warning
    rather than making the whole checkpoint unreadable — the flat fields
    still restore it.

    ``load_arrays=False`` skips materialising the ``modes`` /
    ``singular_values`` arrays (both ``None`` in the result) — for
    callers that only need configuration/identity, e.g.
    :func:`repro.api.checkpoint_run_config`, which would otherwise pay
    the full mode-matrix read twice per resume.  ``load_run_config=False``
    skips the embedded config (``run_config`` is ``None``, and nothing is
    warned about it) — for restarts that take their solver settings from
    the caller, so that a resume warns about its config once.
    """
    path = pathlib.Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            if "format_version" not in data:
                raise DataFormatError(f"{path}: not a streaming checkpoint")
            version = int(data["format_version"])
            if version != CHECKPOINT_VERSION:
                raise DataFormatError(
                    f"{path}: checkpoint format v{version} is not supported "
                    f"by this build (expected v{CHECKPOINT_VERSION})"
                )
            seed = int(data["config_seed"])
            config = SVDConfig(
                K=int(data["config_K"]),
                ff=float(data["config_ff"]),
                low_rank=bool(data["config_low_rank"]),
                r1=int(data["config_r1"]),
                oversampling=int(data["config_oversampling"]),
                power_iters=int(data["config_power_iters"]),
                seed=None if seed < 0 else seed,
            )
            # Parallel run options were added within format v1; older v1
            # files fall back to the historical defaults.
            group = (
                int(data["par_apmos_group_size"])
                if "par_apmos_group_size" in data
                else -1
            )
            run_config: Optional["RunConfig"] = None
            if load_run_config and "run_config_json" in data:
                run_config = _embedded_run_config(
                    path, str(data["run_config_json"])
                )
            return {
                "run_config": run_config,
                "config": config,
                "kind": str(data["kind"]),
                "modes": np.array(data["modes"]) if load_arrays else None,
                "singular_values": (
                    np.array(data["singular_values"]) if load_arrays else None
                ),
                "iteration": int(data["iteration"]),
                "n_seen": int(data["n_seen"]),
                "rank": int(data["rank"]),
                "nranks": int(data["nranks"]),
                "qr_variant": (
                    str(data["par_qr_variant"])
                    if "par_qr_variant" in data
                    else "gather"
                ),
                "gather": (
                    str(data["par_gather"]) if "par_gather" in data else "bcast"
                ),
                "apmos_group_size": None if group < 0 else group,
            }
    except (OSError, ValueError, KeyError) as exc:
        raise DataFormatError(f"{path}: unreadable checkpoint: {exc}") from exc


def rank_checkpoint_path(path: PathLike, rank: int) -> pathlib.Path:
    """Per-rank shard path: ``state.npz`` -> ``state.rank3.npz``."""
    path = pathlib.Path(path)
    stem = path.stem if path.suffix == ".npz" else path.name
    return path.with_name(f"{stem}.rank{rank}.npz")
