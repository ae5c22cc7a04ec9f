"""``ModeBaseStore`` — versioned on-disk registry of named mode bases.

The paper's end product is a set of computed POD/SVD mode bases; everything
downstream (projection, reconstruction, compression, DMD) is a *query*
against a basis.  The store is the catalogue those queries resolve names
through: a directory of single-file **gathered checkpoints** (the
``kind="gathered"`` format of :mod:`repro.core.checkpoint`) plus a JSON
manifest mapping ``name -> monotonically increasing versions``.

Layout::

    <root>/
        manifest.json          {"format": 1, "bases": {name: {...}}}
        <name>.v<version>.npz  one gathered checkpoint per published version

Publishing never mutates an existing version file — a version, once
assigned, is immutable — so readers holding an open version are unaffected
by later publishes and the manifest can be rewritten atomically
(``os.replace``).

>>> store = ModeBaseStore(tmpdir)
>>> v = store.publish("burgers", modes, singular_values)
>>> base = store.get("burgers")          # latest version
>>> base.modes.shape
(2048, 10)
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import re
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..config import SVDConfig
from ..exceptions import BasisNotFoundError, ServingError, ShapeError
from ..core.checkpoint import read_checkpoint, write_checkpoint

__all__ = ["ModeBase", "ModeBaseStore", "MANIFEST_NAME"]

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1

#: Basis names become file stems; keep them shell- and filesystem-safe.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

PathLike = Union[str, pathlib.Path]


@dataclasses.dataclass(frozen=True)
class ModeBase:
    """One immutable published version of a named basis.

    ``modes`` are the gathered ``(n_dof, K)`` global left singular vectors;
    ``config``/``iteration``/``n_seen`` carry the streaming-SVD provenance
    recorded at publish time.
    """

    name: str
    version: int
    modes: np.ndarray
    singular_values: np.ndarray
    config: SVDConfig
    iteration: int
    n_seen: int
    path: pathlib.Path

    @property
    def n_dof(self) -> int:
        """Rows (grid degrees of freedom) of the basis."""
        return int(self.modes.shape[0])

    @property
    def n_modes(self) -> int:
        """Columns (retained modes) of the basis."""
        return int(self.modes.shape[1])


class ModeBaseStore:
    """Directory-backed registry of named, versioned mode bases.

    Parameters
    ----------
    root:
        Store directory; created (with parents) if missing.

    Notes
    -----
    The store is a plain directory — safe to rsync, inspect with
    ``np.load``, or rebuild from the version files alone.  One process
    publishes; many may read (the serving pattern).
    """

    def __init__(self, root: PathLike) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.root / MANIFEST_NAME
        # ((st_mtime_ns, st_size, st_ino), parsed manifest) of the last
        # read, or None: one attribute, so a reader on another thread
        # sees a key and the dict it was read with, never a mix.
        self._manifest_cache: Optional[Tuple[Tuple[int, int, int], dict]] = None
        if not self._manifest_path.exists():
            # A missing manifest over existing version files means a
            # damaged catalogue (partial rsync, crash) — initialising an
            # empty manifest would let publish() reassign "immutable"
            # version numbers over live data.
            strays = sorted(self.root.glob("*.v*.npz"))
            if strays:
                raise ServingError(
                    f"{self.root} holds {len(strays)} version file(s) "
                    f"(e.g. {strays[0].name}) but no {MANIFEST_NAME}; "
                    f"refusing to initialise an empty catalogue over them "
                    f"— restore the manifest or move the files away"
                )
            self._write_manifest({"format": MANIFEST_FORMAT, "bases": {}})

    # -- manifest ----------------------------------------------------------
    def _read_manifest(self) -> dict:
        try:
            manifest = json.loads(self._manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ServingError(
                f"{self._manifest_path}: unreadable store manifest: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise ServingError(
                f"{self._manifest_path}: store manifest is a JSON "
                f"{type(manifest).__name__}, not an object"
            )
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ServingError(
                f"{self._manifest_path}: manifest format "
                f"{manifest.get('format')!r} is not {MANIFEST_FORMAT}"
            )
        return manifest

    def _cached_manifest(self) -> dict:
        """The manifest for read-only lookups, re-read only when one
        ``stat`` shows the file changed.  A publish, by this or any other
        process, adds a record, so the file's size changes.  Stat first,
        then read: a file replaced between the two leaves a stale key,
        which costs one extra re-read, never stale content."""
        try:
            st = os.stat(self._manifest_path)
        except OSError as exc:
            raise ServingError(
                f"{self._manifest_path}: unreadable store manifest: {exc}"
            ) from exc
        key = (st.st_mtime_ns, st.st_size, st.st_ino)
        cached = self._manifest_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        manifest = self._read_manifest()
        self._manifest_cache = (key, manifest)
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        tmp = self._manifest_path.with_name(MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self._manifest_path)

    # -- catalogue queries -------------------------------------------------
    def names(self) -> List[str]:
        """Registered basis names, sorted."""
        return sorted(self._cached_manifest()["bases"])

    def __contains__(self, name: str) -> bool:
        return name in self._cached_manifest()["bases"]

    def versions(self, name: str) -> List[int]:
        """Published versions of ``name``, ascending."""
        entry = self._entry(name)
        return sorted(int(v) for v in entry["versions"])

    def latest_version(self, name: str) -> int:
        """The most recently published version of ``name``."""
        return int(self._entry(name)["latest"])

    def _version_record(
        self, name: str, version: Optional[int]
    ) -> Tuple[int, dict]:
        """Resolve ``version`` (``None`` = latest) to its manifest record
        with a single manifest lookup."""
        entry = self._entry(name)
        if version is None:
            version = int(entry["latest"])
        record = entry["versions"].get(str(int(version)))
        if record is None:
            raise BasisNotFoundError(
                f"basis {name!r} has no version {version} "
                f"(published: {sorted(int(v) for v in entry['versions'])})"
            )
        return int(version), record

    def version_info(
        self, name: str, version: Optional[int] = None
    ) -> Tuple[int, int, int]:
        """``(version, n_dof, n_modes)`` of ``name``/``version`` (default:
        latest) from the manifest alone — one ``stat`` while the manifest
        is unchanged, no array IO.

        The serving engine's per-query resolution/validation path.
        """
        version, record = self._version_record(name, version)
        return version, int(record["n_dof"]), int(record["n_modes"])

    def path_for(self, name: str, version: Optional[int] = None) -> pathlib.Path:
        """On-disk checkpoint file of ``name``/``version`` (default latest)."""
        version, record = self._version_record(name, version)
        return self.root / record["file"]

    def _entry(self, name: str) -> dict:
        entry = self._cached_manifest()["bases"].get(name)
        if entry is None:
            raise BasisNotFoundError(
                f"no basis named {name!r} in store {self.root} "
                f"(registered: {self.names()})"
            )
        return entry

    # -- publish -----------------------------------------------------------
    def publish(
        self,
        name: str,
        modes: np.ndarray,
        singular_values: np.ndarray,
        *,
        config: Optional[SVDConfig] = None,
        iteration: int = 0,
        n_seen: int = 0,
    ) -> int:
        """Publish a new immutable version of ``name``; returns the version.

        ``modes`` is the gathered ``(n_dof, K)`` matrix.  ``config``
        defaults to an :class:`SVDConfig` with ``K`` matching the basis
        width, so raw arrays (e.g. from :func:`numpy.linalg.svd`) publish
        without ceremony.
        """
        if not _NAME_RE.match(name):
            raise ServingError(
                f"basis name {name!r} is not filesystem-safe "
                f"(use letters, digits, '_', '-', '.')"
            )
        modes = np.asarray(modes)
        singular_values = np.asarray(singular_values)
        if modes.ndim != 2:
            raise ShapeError(f"modes must be 2-D, got ndim={modes.ndim}")
        if singular_values.ndim != 1 or singular_values.shape[0] != modes.shape[1]:
            raise ShapeError(
                f"singular_values must be 1-D with {modes.shape[1]} entries, "
                f"got shape {singular_values.shape}"
            )
        if config is None:
            config = SVDConfig(K=modes.shape[1], ff=1.0)
        # Read fresh and edit that copy: the cached dict is never mutated.
        manifest = self._read_manifest()
        entry = manifest["bases"].setdefault(
            name, {"latest": 0, "versions": {}}
        )
        version = int(entry["latest"]) + 1
        filename = f"{name}.v{version}.npz"
        target = self.root / filename
        if target.exists():
            raise ServingError(
                f"{target} already exists but is not in the manifest; "
                f"versions are immutable — refusing to overwrite"
            )
        write_checkpoint(
            target,
            config,
            modes,
            singular_values,
            iteration=iteration,
            n_seen=n_seen,
            kind="gathered",
        )
        entry["versions"][str(version)] = {
            "file": filename,
            "n_dof": int(modes.shape[0]),
            "n_modes": int(modes.shape[1]),
        }
        entry["latest"] = version
        self._write_manifest(manifest)
        return version

    def publish_checkpoint(self, name: str, checkpoint_path: PathLike) -> int:
        """Ingest an existing single-file gathered checkpoint as a new
        version of ``name`` (the ``save_checkpoint(..., gathered=True)``
        export path)."""
        state = read_checkpoint(checkpoint_path)
        if state["kind"] != "gathered":
            raise ServingError(
                f"{checkpoint_path}: kind {state['kind']!r} is not "
                f"'gathered'; per-rank shards cannot be served directly — "
                f"re-save with save_checkpoint(..., gathered=True)"
            )
        return self.publish(
            name,
            state["modes"],
            state["singular_values"],
            config=state["config"],
            iteration=state["iteration"],
            n_seen=state["n_seen"],
        )

    # -- read --------------------------------------------------------------
    def get(self, name: str, version: Optional[int] = None) -> ModeBase:
        """Load ``name``/``version`` (default: latest) into a
        :class:`ModeBase`."""
        version, record = self._version_record(name, version)
        path = self.root / record["file"]
        state = read_checkpoint(path)
        return ModeBase(
            name=name,
            version=int(version),
            modes=state["modes"],
            singular_values=state["singular_values"],
            config=state["config"],
            iteration=state["iteration"],
            n_seen=state["n_seen"],
            path=path,
        )

    def describe(self) -> Dict[str, List[int]]:
        """``{name: [versions...]}`` summary of the catalogue."""
        return {name: self.versions(name) for name in self.names()}
