"""Reproduce the ROADMAP baseline lines with the benchmark's tracer.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py

Runs ``compute_perron(delta=1e-3)`` traced on the first ``DENSE_COUNT``
criterion-01 dense instances (seeds 0, 1, ...) and on one ring-plus-random
sparse digraph with ``SPARSE_N`` nodes, and prints wall time, scans, phase
factorizations, SuperLU count, the share of time spent in SuperLU and the
largest fill ratio.  Times are raw wall seconds on this host (no
calibration); counts are exact.
"""

from __future__ import annotations

import json
import sys
import time

import run  # pins BLAS threads and locates the checkout's sources

DENSE_COUNT = 40
SPARSE_N = 1000


def _traced(tr, fn):
    tr.install()
    tr.begin_op()
    t0 = time.perf_counter()
    try:
        fn()
    finally:
        elapsed = time.perf_counter() - t0
        values = tr.end_op()
        tr.uninstall()
    return elapsed, values


def main() -> int:
    run._import_perronkit()

    import numpy as np
    import scipy.sparse as sp

    import perronkit
    import tracer
    import workloads

    tr = tracer.Tracer()
    dense = []
    for seed in range(DENSE_COUNT):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 41))
        A = perronkit.SparseMatrix.from_dense(workloads.dense_irreducible(rng, n))
        dense.append(_traced(tr, lambda: perronkit.compute_perron(A, workloads.PERRON_DELTA)))
    times = [t for t, _ in dense]
    lines = [{
        "case": f"criterion-01 dense, first {DENSE_COUNT} instances",
        "median_s": float(np.median(times)),
        "scans_per_instance": float(np.mean([v.get("scaling.scans", 0) for _, v in dense])),
        "factorizations_per_instance": float(np.mean([v.get("scaling.factor_count", 0) for _, v in dense])),
        "superlu_per_instance": float(np.mean([v.get("scaling.splu_count", 0) for _, v in dense])),
    }]

    A = workloads.ring_graph(np.random.default_rng([SPARSE_N, 1]), SPARSE_N)
    A = perronkit.SparseMatrix.from_scipy(sp.csr_matrix(A))
    elapsed, values = _traced(tr, lambda: perronkit.compute_perron(A, workloads.PERRON_DELTA))
    lines.append({
        "case": f"ring-plus-random sparse n={SPARSE_N} nnz={A.nnz}",
        "wall_s": elapsed,
        "scans": values.get("scaling.scans", 0),
        "factorizations": values.get("scaling.factor_count", 0),
        "superlu": values.get("scaling.splu_count", 0),
        "superlu_s": values.get("scaling.factor_s", 0.0),
        "superlu_share": values.get("scaling.factor_s", 0.0) / elapsed,
        "fill_ratio_max": values.get("scaling.fill_ratio_max", 0.0),
    })
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
