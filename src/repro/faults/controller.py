"""The shared, seeded decision engine behind every fault wrapper.

One :class:`FaultController` serves all ranks of a run (and *all
attempts* of a retrying ``Session.run`` — that is the point: a ``crash``
spec fires exactly once per controller, so the restarted attempt replays
clean, like a real node that died and was replaced).  All state is
guarded by one lock; the per-rank random streams are derived from the
configured seed so a schedule replays identically for a fixed
``(seed, schedule, rank count)``.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, Optional, Tuple

from ..config import FaultConfig, FaultSpec
from ..smpi.exceptions import SmpiError
from ..smpi.intercept import OPS

__all__ = ["FaultController", "InjectedCrash"]

#: Ops whose payload can be dropped (a swallowed send: the message is
#: simply never delivered, the receiver times out or fails over).
SEND_OPS = frozenset(name for name, op in OPS.items() if op.droppable)


class InjectedCrash(SmpiError):
    """The fault injector killed this rank (``crash`` spec fired).

    Raised inside a communicator op on the victim rank; the SPMD executor
    then records the rank as failed (``World.fail_rank``) so peers
    unblock with :class:`~repro.smpi.exceptions.FailedRankError`.
    """

    def __init__(self, rank: int, op: str, nth: int) -> None:
        super().__init__(
            f"injected crash: rank {rank} killed at {op} call #{nth}"
        )
        self.rank = rank
        self.op = op
        self.nth = nth


class FaultController:
    """Schedule matcher + seeded randomness + injection bookkeeping.

    The wrapper calls :meth:`apply` before delegating an op; the
    controller sleeps (``delay``/``jitter``), raises
    (:class:`InjectedCrash`), or tells the wrapper to swallow the op
    (``drop`` — returns ``True``).
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self._lock = threading.Lock()
        # (spec index, rank) -> how many calls matched this spec so far.
        self._matches: Dict[Tuple[int, int], int] = {}
        # spec index -> True once a crash spec has fired (fire-once).
        self._crash_fired: Dict[int, bool] = {}
        self._rngs: Dict[int, random.Random] = {}
        #: kind -> injections performed (the chaos report reads this).
        self.injected: Dict[str, int] = {
            "delay": 0,
            "jitter": 0,
            "drop": 0,
            "crash": 0,
        }

    def _rng(self, rank: int) -> random.Random:
        rng = self._rngs.get(rank)
        if rng is None:
            rng = random.Random((self.config.seed + 1) * 1_000_003 + rank)
            self._rngs[rank] = rng
        return rng

    def _record(self, kind: str) -> None:
        self.injected[kind] += 1
        from ..obs.runtime import state as obs_state

        st = obs_state()
        if st is not None and st.registry is not None:
            st.registry.counter(f"repro.faults.injected.{kind}").inc()

    def snapshot(self) -> Dict[str, int]:
        """Copy of the per-kind injection counts."""
        with self._lock:
            return dict(self.injected)

    def _firing(
        self, index: int, spec: FaultSpec, rank: int, op: str
    ) -> Optional[int]:
        """Match ``spec`` against this call; return the match ordinal when
        the spec fires, ``None`` otherwise.  Caller holds the lock."""
        if spec.rank != -1 and spec.rank != rank:
            return None
        if spec.op != "*" and spec.op != op:
            return None
        key = (index, rank)
        nth = self._matches.get(key, 0)
        self._matches[key] = nth + 1
        if nth < spec.at:
            return None
        if spec.count != -1 and nth >= spec.at + spec.count:
            return None
        if spec.kind == "crash" and self._crash_fired.get(index):
            return None
        if spec.probability < 1.0:
            if self._rng(rank).random() >= spec.probability:
                return None
        if spec.kind == "crash":
            self._crash_fired[index] = True
        return nth

    def apply(self, rank: int, op: str) -> bool:
        """Run the schedule against one op call on ``rank``.

        Returns ``True`` when the op must be *dropped* (swallowed send).
        Sleeps for delay/jitter faults; raises :class:`InjectedCrash` for
        a crash fault (after marking it fired, so the next attempt runs
        clean).
        """
        sleep_s = 0.0
        drop = False
        crash: Optional[InjectedCrash] = None
        with self._lock:
            for index, spec in enumerate(self.config.schedule):
                nth = self._firing(index, spec, rank, op)
                if nth is None:
                    continue
                if spec.kind == "delay":
                    sleep_s += spec.delay_s
                    self._record("delay")
                elif spec.kind == "jitter":
                    sleep_s += self._rng(rank).uniform(0.0, spec.delay_s)
                    self._record("jitter")
                elif spec.kind == "drop":
                    if op in SEND_OPS:
                        drop = True
                        self._record("drop")
                elif spec.kind == "crash" and crash is None:
                    crash = InjectedCrash(rank, op, nth)
                    self._record("crash")
        if sleep_s > 0.0:
            time.sleep(sleep_s)
        if crash is not None:
            raise crash
        return drop

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultController(seed={self.config.seed}, "
            f"specs={len(self.config.schedule)}, injected={self.injected})"
        )
