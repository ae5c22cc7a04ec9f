"""Registry of the SPMD static-analysis rules.

Each rule has a stable code (referenced by findings, suppressions, the
protocol docstring in :mod:`repro.smpi.factory` and the README table), a
one-line summary of the defect, and a fix-it.  The detection logic lives
in :mod:`repro.verify.static`; this module is pure data so docs and
tooling can enumerate the rules without importing the analyzer.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

__all__ = ["Rule", "RULES"]


@dataclasses.dataclass(frozen=True)
class Rule:
    """One static rule: stable code, slug, defect summary, fix-it."""

    code: str
    name: str
    summary: str
    fixit: str


_RULES = (
    Rule(
        code="SPMD000",
        name="parse-error",
        summary="file could not be parsed",
        fixit="fix the syntax error; unparseable files are never verified",
    ),
    Rule(
        code="SPMD001",
        name="rank-dependent-collective",
        summary=(
            "collective issued inside a rank-dependent branch without a "
            "matching call in the other arm"
        ),
        fixit=(
            "issue the matching collective on every rank (every arm of "
            "the branch), or hoist the call out of the branch — ranks "
            "that skip it deadlock the others"
        ),
    ),
    Rule(
        code="SPMD002",
        name="unawaited-request",
        summary=(
            "nonblocking request is discarded or never reaches "
            "wait()/test()"
        ),
        fixit=(
            "keep the returned request and complete it with "
            "wait()/test() (or cancel() a deliberately abandoned "
            "receive) — a dropped receive loses its message"
        ),
    ),
    Rule(
        code="SPMD003",
        name="reserved-tag",
        summary=(
            "hardcoded tag inside the reserved band "
            "(tags >= NB_TAG_BASE = 1 << 24)"
        ),
        fixit=(
            "use an application tag below NB_TAG_BASE; the band at and "
            "above it is reserved for library-internal traffic on "
            "backends without a private tag space"
        ),
    ),
    Rule(
        code="SPMD004",
        name="aliased-out-buffer",
        summary="out= buffer aliases the collective's own input",
        fixit=(
            "pass a distinct preallocated buffer as out=, or drop out= "
            "and let the collective allocate its result — the "
            "rank-ordered fold reads contributions while writing the "
            "output"
        ),
    ),
    Rule(
        code="SPMD005",
        name="snapshot-write",
        summary=(
            "write to an array received from a broadcast/snapshot fast "
            "lane (shared read-only across receivers)"
        ),
        fixit=(
            "copy before mutating (arr = arr.copy()) — bcast payloads "
            "may be one zero-copy snapshot shared by every receiver, "
            "and mutating it either raises (read-only) or corrupts "
            "other ranks"
        ),
    ),
)

#: Rule registry keyed by code.
RULES: Dict[str, Rule] = {rule.code: rule for rule in _RULES}
