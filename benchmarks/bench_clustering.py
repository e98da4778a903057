#!/usr/bin/env python3
"""Benchmark balanced k-means at corpus scale, K=64, d=384: one fit
iteration split into its stages, a fit of up to 10 iterations, and one
histogram over the same points. Each size runs in a fresh subprocess, so
that its peak RSS (`resource.getrusage`, which includes the points
themselves) is its own; times are the median of the repeats.

    PYTHONPATH=src python3 benchmarks/bench_clustering.py [--sizes 20000 200000]

The stages of the one-iteration fit are timed by wrapping the module's
`_kmeans_pp_init` (seeding), `_sq_distances` (the distance GEMM) and
`_balanced_assign` (the capacity-constrained assignment) for the length of
the fit; `update_s` is the rest of the fit: the centroid means and the WCSS.

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
LONG_ITERS = 10
STAGES = {"_kmeans_pp_init": "seed_s", "_sq_distances": "distances_s",
          "_balanced_assign": "assign_s"}
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_clustering.json")


def staged_fit(clustering, X) -> dict:
    """One-iteration fit with the seconds spent in each stage."""
    spent = dict.fromkeys(STAGES.values(), 0.0)
    originals = {name: getattr(clustering, name) for name in STAGES}

    def timed(name, fn):
        def wrapper(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[STAGES[name]] += time.perf_counter() - start
        return wrapper

    for name, fn in originals.items():
        setattr(clustering, name, timed(name, fn))
    try:
        start = time.perf_counter()
        clustering.fit_balanced_kmeans(X, K, seed=0, max_iters=1)
        total = time.perf_counter() - start
    finally:
        for name, fn in originals.items():
            setattr(clustering, name, fn)
    return {"fit_1iter_s": total, **spent, "update_s": total - sum(spent.values())}


def run_size(n: int) -> dict:
    from corpusfilter import clustering

    X = np.random.default_rng(n).standard_normal((n, DIM))
    X /= np.sqrt(np.einsum("ij,ij->i", X, X))[:, None]
    runs: dict[str, list[float]] = {}
    iters = None
    for _ in range(REPEATS):
        for key, value in staged_fit(clustering, X).items():
            runs.setdefault(key, []).append(value)
        start = time.perf_counter()
        model = clustering.fit_balanced_kmeans(X, K, seed=0, max_iters=LONG_ITERS)
        runs.setdefault(f"fit_{LONG_ITERS}iter_s", []).append(time.perf_counter() - start)
        iters = len(model.wcss_history_)
        start = time.perf_counter()
        hist = clustering.histogram_over_clusters(model, X, "fit")
        runs.setdefault("histogram_s", []).append(time.perf_counter() - start)
        assert hist.total == n
    row = {"n": n, "K": K, "d": DIM, "repeats": REPEATS, f"fit_{LONG_ITERS}iter_iters": iters}
    for key, values in runs.items():
        row[key] = statistics.median(values)
        row[key[:-2] + "_runs_s"] = values
    row["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return row


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
        print(f"n={n:>7}: fit 1 iter {row['fit_1iter_s']:6.2f} s (seed {row['seed_s']:6.2f}, "
              f"distances {row['distances_s']:5.2f}, assign {row['assign_s']:5.2f}, "
              f"update {row['update_s']:5.2f}), fit {row[f'fit_{LONG_ITERS}iter_iters']} iters "
              f"{row[f'fit_{LONG_ITERS}iter_s']:6.2f} s, histogram {row['histogram_s']:5.2f} s, "
              f"peak RSS {row['peak_rss_mb']:5.0f} MB")
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
