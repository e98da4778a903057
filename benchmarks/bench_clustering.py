#!/usr/bin/env python3
"""Benchmark balanced k-means at corpus scale: one fit iteration (k-means++
seeding plus one balanced assignment and update) and one histogram over the
same points, K=64, d=384. Each size runs in a fresh subprocess, so that its
peak RSS (`resource.getrusage`, which includes the points themselves) is its
own; times are the median of the repeats.

    PYTHONPATH=src python3 benchmarks/bench_clustering.py [--sizes 20000 200000]

Results go under `--label` (default "after") in BENCH_clustering.json at
the repository root, keeping the other labels already there; point
PYTHONPATH at another checkout's `src` and pass `--label before` to record
a baseline.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

K = 64
DIM = 384
REPEATS = 3
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_clustering.json")


def run_size(n: int) -> dict:
    from corpusfilter.clustering import fit_balanced_kmeans, histogram_over_clusters

    X = np.random.default_rng(n).standard_normal((n, DIM))
    X /= np.sqrt(np.einsum("ij,ij->i", X, X))[:, None]
    fit_s, hist_s = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        model = fit_balanced_kmeans(X, K, seed=0, max_iters=1)
        fit_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        hist = histogram_over_clusters(model, X, "fit")
        hist_s.append(time.perf_counter() - start)
        assert hist.total == n
    return {
        "n": n,
        "K": K,
        "d": DIM,
        "repeats": REPEATS,
        "fit_1iter_s": statistics.median(fit_s),
        "histogram_s": statistics.median(hist_s),
        "fit_1iter_runs_s": fit_s,
        "histogram_runs_s": hist_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[20_000, 200_000])
    parser.add_argument("--label", default="after")
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker is not None:
        print(json.dumps(run_size(args.worker)))
        return

    results = []
    for n in args.sizes:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--worker", str(n)],
            capture_output=True, text=True, check=True,
        )
        row = json.loads(proc.stdout)
        print(f"n={n:>7}: fit 1 iter {row['fit_1iter_s']:7.2f} s, "
              f"histogram {row['histogram_s']:6.2f} s, peak RSS {row['peak_rss_mb']:7.0f} MB")
        results.append(row)

    record = {}
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as fh:
            record = json.load(fh)
    record[args.label] = {
        "cores": os.cpu_count(),
        "numpy": np.__version__,
        "sizes": results,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
