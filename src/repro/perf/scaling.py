"""Weak-scaling study (reproduction of paper Figure 1c).

The paper: "Preliminary weak scaling results ... with 1024 grid-points per
rank of Theta ... upto 256 nodes" (= 16384 ranks at 64 ranks/node), for the
"parallelized and randomized SVD without the utilization of the streaming
operation", i.e. one APMOS factorization per measurement.

The study combines:

1. a **measured** per-rank compute time — the actual local kernels
   (:func:`measure_local_compute`) run on this machine at the weak-scaling
   local problem size, which is constant in ``p`` by construction;
2. a **modelled** rank-0 SVD time from flop counts and a **measured**
   effective flop rate (:func:`measure_effective_flops`), because the
   gathered ``W`` grows with ``p`` and cannot be run at 16384 ranks here;
3. a **modelled** communication time from the exact APMOS traffic formulas
   and the machine's α-β parameters.

For runnable rank counts, :meth:`WeakScalingStudy.validate_traffic` executes
the real algorithm under :class:`repro.smpi.CommTracer` and asserts the
modelled byte counts equal the recorded ones — the part of the model that
*can* be checked exactly, is.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Sequence

import numpy as np

from ..core.apmos import apmos_svd, generate_right_vectors, grouped
from ..exceptions import ConfigurationError
from ..smpi import run_spmd
from ..utils.rng import resolve_rng
from .costs import (
    apmos_local_flops,
    apmos_root_svd_flops,
    apmos_traffic,
    flops_gemm,
)
from .machine import MachineModel, THETA_KNL

__all__ = [
    "ScalingPoint",
    "ScalingResult",
    "WeakScalingStudy",
    "StrongScalingStudy",
    "measure_local_compute",
    "measure_effective_flops",
]

#: Paper's weak-scaling local problem size: 1024 grid points per rank.
PAPER_POINTS_PER_RANK = 1024


def measure_effective_flops(
    size: int = 256, repeats: int = 3, rng=None
) -> float:
    """Measure an effective dense-kernel flop rate via a square GEMM.

    Used to convert modelled flop counts into seconds on *this* machine so
    the simulated curve and any locally measured points share units.
    """
    if size <= 0 or repeats <= 0:
        raise ConfigurationError("size and repeats must be positive")
    gen = resolve_rng(rng)
    a = gen.standard_normal((size, size))
    b = gen.standard_normal((size, size))
    a @ b  # warm-up (BLAS thread spin-up, page faults)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return flops_gemm(size, size, size) / best


def measure_local_compute(
    m_local: int,
    n: int,
    r1: int,
    k: int,
    repeats: int = 3,
    rng=None,
) -> float:
    """Time one rank's local APMOS work at the weak-scaling problem size.

    Runs the real kernels (right-vector generation + mode assembly) on
    synthetic data; returns the best-of-``repeats`` wall time in seconds.
    """
    if repeats <= 0:
        raise ConfigurationError("repeats must be positive")
    gen = resolve_rng(rng)
    a_local = gen.standard_normal((m_local, n))
    x = gen.standard_normal((n, min(k, n)))
    lam = np.abs(gen.standard_normal(min(k, n))) + 1.0
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        generate_right_vectors(a_local, r1)
        (a_local @ x) / lam[np.newaxis, :]
        best = min(best, time.perf_counter() - start)
    return best


@dataclasses.dataclass(frozen=True)
class ScalingPoint:
    """One point of a scaling curve, with its cost breakdown (seconds)."""

    ranks: int
    nodes: float
    compute_s: float
    root_svd_s: float
    gather_s: float
    bcast_s: float

    @property
    def total_s(self) -> float:
        return self.compute_s + self.root_svd_s + self.gather_s + self.bcast_s


@dataclasses.dataclass(frozen=True)
class ScalingResult:
    """A full scaling curve plus the ideal trend."""

    points: List[ScalingPoint]

    @property
    def ranks(self) -> np.ndarray:
        return np.array([p.ranks for p in self.points])

    @property
    def times(self) -> np.ndarray:
        return np.array([p.total_s for p in self.points])

    @property
    def ideal(self) -> np.ndarray:
        """Flat ideal weak-scaling trend anchored at the smallest rank count."""
        return np.full(len(self.points), self.points[0].total_s)

    @property
    def efficiency(self) -> np.ndarray:
        """Per-point weak-scaling efficiency ``t_1 / t_p``."""
        return self.ideal / self.times


class WeakScalingStudy:
    """Reproduce the Figure 1(c) weak-scaling study.

    Parameters
    ----------
    points_per_rank:
        Grid points per rank (paper: 1024).
    n_snapshots:
        Snapshot count (paper's Burgers case: 800).
    k:
        Global modes retained.
    r1:
        APMOS local truncation.
    machine:
        Machine model; defaults to the Theta-KNL preset.
    calibrate:
        Measure the local compute term and effective flop rate on this
        machine (True, default) or derive both from the machine model's
        nominal flop rate (False — fully analytic, deterministic).
    """

    def __init__(
        self,
        points_per_rank: int = PAPER_POINTS_PER_RANK,
        n_snapshots: int = 800,
        k: int = 10,
        r1: int = 50,
        machine: MachineModel = THETA_KNL,
        calibrate: bool = True,
        seed: Optional[int] = 0,
    ) -> None:
        if points_per_rank <= 0 or n_snapshots <= 0:
            raise ConfigurationError(
                "points_per_rank and n_snapshots must be positive"
            )
        self.points_per_rank = points_per_rank
        self.n_snapshots = n_snapshots
        self.k = k
        self.r1 = r1
        self.machine = machine
        self.seed = seed
        if calibrate:
            self._flops_rate = measure_effective_flops(rng=seed)
            self._compute_s = measure_local_compute(
                points_per_rank, n_snapshots, r1, k, rng=seed
            )
        else:
            self._flops_rate = machine.flops_per_second
            self._compute_s = (
                apmos_local_flops(points_per_rank, n_snapshots, r1, k)
                / machine.flops_per_second
            )

    # -- model ------------------------------------------------------------
    def point(
        self, ranks: int, group_size: Optional[int] = None
    ) -> ScalingPoint:
        """Modelled cost breakdown of one APMOS step at ``ranks`` ranks.

        ``group_size`` models APMOS's grouped gather
        (:func:`repro.core.apmos.apmos_svd` with ``group_size``) where
        :func:`~repro.core.apmos.grouped` says the run is grouped: the
        ``W`` gather happens in two stages (members -> leader, leaders ->
        root) and the root SVD width shrinks from ``r1 * p`` to
        ``r1 * ceil(p / g)``; each leader additionally pays a group-SVD of
        width ``r1 * group_size``.  Any other group size is the single
        gather, as in the algorithm.
        """
        traffic = apmos_traffic(ranks, self.n_snapshots, self.r1, self.k)
        if not grouped(ranks, group_size):
            root_flops = apmos_root_svd_flops(
                ranks, self.n_snapshots, self.r1, self.k, randomized=True
            )
            gather_s = self.machine.gather_seconds(
                ranks, traffic.gather_bytes_per_rank
            )
            svd_s = root_flops / self._flops_rate
        else:
            n_groups = -(-ranks // group_size)  # ceil division
            # stage 1 (concurrent across groups): member->leader gather and
            # the leader's group SVD of an N x (r1 * g) stack
            stage1_gather = self.machine.gather_seconds(
                group_size, traffic.gather_bytes_per_rank
            )
            group_flops = apmos_root_svd_flops(
                group_size, self.n_snapshots, self.r1, self.k, randomized=True
            )
            # stage 2: leaders -> root gather and the narrower root SVD
            stage2_gather = self.machine.gather_seconds(
                n_groups, traffic.gather_bytes_per_rank
            )
            root_flops = apmos_root_svd_flops(
                n_groups, self.n_snapshots, self.r1, self.k, randomized=True
            )
            gather_s = stage1_gather + stage2_gather
            svd_s = (group_flops + root_flops) / self._flops_rate
        return ScalingPoint(
            ranks=ranks,
            nodes=self.machine.nodes_for(ranks),
            compute_s=self._compute_s,
            root_svd_s=svd_s,
            gather_s=gather_s,
            bcast_s=self.machine.bcast_seconds(ranks, traffic.bcast_bytes),
        )

    def run(
        self, rank_counts: Sequence[int], group_size: Optional[int] = None
    ) -> ScalingResult:
        """Evaluate the model over ``rank_counts`` (ascending)."""
        counts = [int(c) for c in rank_counts]
        if not counts or any(c <= 0 for c in counts):
            raise ConfigurationError("rank_counts must be positive and non-empty")
        if sorted(counts) != counts:
            raise ConfigurationError("rank_counts must be ascending")
        return ScalingResult(
            points=[self.point(c, group_size=group_size) for c in counts]
        )

    def paper_rank_counts(self, max_nodes: int = 256) -> List[int]:
        """Powers-of-two rank counts up to ``max_nodes`` full nodes."""
        if max_nodes <= 0:
            raise ConfigurationError("max_nodes must be positive")
        limit = max_nodes * self.machine.ranks_per_node
        counts = []
        c = 1
        while c <= limit:
            counts.append(c)
            c *= 2
        return counts

    # -- validation against the real runtime --------------------------------
    def validate_traffic(self, ranks: int) -> dict:
        """Run real APMOS at ``ranks`` ranks under the tracer and compare
        recorded byte counts with the model's formulas.

        Returns a dict with modelled and measured gather/bcast bytes; the
        tests assert they agree exactly.
        """
        m_local, n, r1, k, seed = (
            self.points_per_rank,
            self.n_snapshots,
            self.r1,
            self.k,
            self.seed,
        )

        def job(comm):
            gen = resolve_rng(None if seed is None else seed + comm.rank)
            a_local = gen.standard_normal((m_local, n))
            apmos_svd(comm, a_local, r1=r1, r2=k)
            return None

        _, tracers = run_spmd(ranks, job, trace=True)
        measured_gather_root = tracers[0].bytes_for("gather")
        measured_bcast_nonroot = (
            tracers[1].bytes_for("bcast") if ranks > 1 else 0
        )
        traffic = apmos_traffic(ranks, n, r1, k)
        return {
            "model_gather_root": traffic.gather_bytes_root_total,
            "measured_gather_root": measured_gather_root,
            # a single rank broadcasts nothing; the per-receiver payload
            # formula only applies at p > 1
            "model_bcast": traffic.bcast_bytes if ranks > 1 else 0,
            "measured_bcast": measured_bcast_nonroot,
        }


class StrongScalingStudy:
    """Strong scaling: a *fixed* global problem split over growing ranks.

    Complements the paper's weak-scaling study (Figure 1c).  Under strong
    scaling the per-rank block shrinks as ``M / p``, so the local compute
    term falls like ``1/p`` while the gathered ``W`` and rank-0 SVD still
    grow with ``p`` — the classic strong-scaling wall.  Expected shape:
    near-linear speedup while local work dominates, then a turnover where
    adding ranks makes the step *slower*.

    Parameters mirror :class:`WeakScalingStudy` except the problem size is
    global (``n_dof`` total grid points).
    """

    def __init__(
        self,
        n_dof: int = 262144,
        n_snapshots: int = 800,
        k: int = 10,
        r1: int = 50,
        machine: MachineModel = THETA_KNL,
        calibrate: bool = True,
        seed: Optional[int] = 0,
    ) -> None:
        if n_dof <= 0 or n_snapshots <= 0:
            raise ConfigurationError("n_dof and n_snapshots must be positive")
        self.n_dof = n_dof
        self.n_snapshots = n_snapshots
        self.k = k
        self.r1 = r1
        self.machine = machine
        self.seed = seed
        if calibrate:
            self._flops_rate = measure_effective_flops(rng=seed)
            # measure at a moderate block size and scale by the flop model;
            # measuring every p directly would defeat the point of a model
            probe_rows = max(min(n_dof, 4096), 1)
            probe_time = measure_local_compute(
                probe_rows, n_snapshots, r1, k, rng=seed
            )
            probe_flops = apmos_local_flops(probe_rows, n_snapshots, r1, k)
            self._local_rate = probe_flops / probe_time
        else:
            self._flops_rate = machine.flops_per_second
            self._local_rate = machine.flops_per_second

    def point(self, ranks: int) -> ScalingPoint:
        """Modelled cost of one APMOS step with ``n_dof / ranks`` local rows."""
        if ranks <= 0:
            raise ConfigurationError(f"ranks must be positive, got {ranks}")
        m_local = max(self.n_dof // ranks, 1)
        local_flops = apmos_local_flops(
            m_local, self.n_snapshots, self.r1, self.k
        )
        traffic = apmos_traffic(ranks, self.n_snapshots, self.r1, self.k)
        root_flops = apmos_root_svd_flops(
            ranks, self.n_snapshots, self.r1, self.k, randomized=True
        )
        return ScalingPoint(
            ranks=ranks,
            nodes=self.machine.nodes_for(ranks),
            compute_s=local_flops / self._local_rate,
            root_svd_s=root_flops / self._flops_rate,
            gather_s=self.machine.gather_seconds(
                ranks, traffic.gather_bytes_per_rank
            ),
            bcast_s=self.machine.bcast_seconds(ranks, traffic.bcast_bytes),
        )

    def run(self, rank_counts: Sequence[int]) -> ScalingResult:
        """Evaluate the model over ``rank_counts`` (ascending)."""
        counts = [int(c) for c in rank_counts]
        if not counts or any(c <= 0 for c in counts):
            raise ConfigurationError(
                "rank_counts must be positive and non-empty"
            )
        if sorted(counts) != counts:
            raise ConfigurationError("rank_counts must be ascending")
        return ScalingResult(points=[self.point(c) for c in counts])

    def speedups(self, result: ScalingResult) -> np.ndarray:
        """Speedup over the smallest rank count, ``t_base / t_p``."""
        return result.points[0].total_s / result.times

    def turnover_ranks(self, max_ranks: int = 1 << 20) -> int:
        """Smallest power-of-two rank count at which adding ranks stops
        helping (the strong-scaling wall)."""
        prev = self.point(1).total_s
        ranks = 2
        while ranks <= max_ranks:
            cur = self.point(ranks).total_s
            if cur >= prev:
                return ranks // 2
            prev = cur
            ranks *= 2
        return max_ranks
