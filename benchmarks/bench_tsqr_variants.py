"""Ablation A5: gather-based (paper Listing 4) vs tree TSQR.

Both variants are one TSQR step over a reduction tree and produce
identical factors (canonical signs); only the tree's fan-in differs, and
with it the communication.  The gather variant is the flat tree: every
rank ships its R to rank 0 (volume linear in p at the root).  The tree
variant is the binary tree: ranks reduce pairwise (log2(p) rounds,
constant per-rank volume).  On the way down a leaf of either tree gets
its correction block with the combine factor already folded in; only a
tree rank that forwards to ranks it absorbed still receives the combine
factor.  This bench verifies numerical agreement and reports the
measured per-rank traffic of each variant.
"""

import numpy as np

from conftest import emit
from repro.core.tsqr import tsqr_gather, tsqr_tree
from repro.postprocessing.plots import save_series_csv
from repro.postprocessing.report import format_table
from repro.smpi import run_spmd
from repro.utils.partition import block_partition

M, N = 4096, 30
RANK_COUNTS = [2, 4, 8]


def run_variant(data, nranks, variant):
    fn = tsqr_gather if variant == "gather" else tsqr_tree

    def job(comm):
        part = block_partition(M, comm.size)
        return fn(comm, data[part.slice_of(comm.rank), :])

    results, tracers = run_spmd(nranks, job, trace=True)
    q = np.concatenate([r[0] for r in results], axis=0)
    root_bytes = tracers[0].summary().total_bytes
    max_nonroot = max(
        (t.summary().total_bytes for t in tracers[1:]), default=0
    )
    return q, results[0][1], root_bytes, max_nonroot


def test_tsqr_variants(benchmark, artifacts_dir):
    rng = np.random.default_rng(3)
    data = rng.standard_normal((M, N))

    benchmark(run_variant, data, 4, "gather")

    rows = []
    root_gather, root_tree = [], []
    for p in RANK_COUNTS:
        qg, rg, g_root, g_nonroot = run_variant(data, p, "gather")
        qt, rt, t_root, t_nonroot = run_variant(data, p, "tree")
        agreement = float(np.max(np.abs(qg - qt)))
        assert np.allclose(rg, rt, atol=1e-9)
        assert agreement < 1e-7
        rows.append([p, g_root, t_root, g_nonroot, t_nonroot, agreement])
        root_gather.append(g_root)
        root_tree.append(t_root)

    save_series_csv(
        artifacts_dir / "tsqr_variants.csv",
        {
            "ranks": np.array(RANK_COUNTS, dtype=float),
            "gather_root_bytes": np.array(root_gather, dtype=float),
            "tree_root_bytes": np.array(root_tree, dtype=float),
        },
    )
    emit(
        artifacts_dir,
        "tsqr_variants.txt",
        f"Ablation A5: TSQR variants ({M}x{N} matrix)\n"
        + format_table(
            [
                "ranks",
                "gather:root_bytes",
                "tree:root_bytes",
                "gather:max_nonroot",
                "tree:max_nonroot",
                "max|Q_g - Q_t|",
            ],
            rows,
        ),
    )

    # shape: the gather variant's root traffic grows linearly with p; the
    # tree variant's root traffic grows much slower (log2 p rounds)
    assert root_gather[-1] > root_gather[0] * 3  # ~linear 2->8
    assert root_tree[-1] < root_gather[-1]
