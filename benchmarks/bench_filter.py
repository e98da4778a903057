#!/usr/bin/env python3
"""Benchmark the filter step: `apply_filter` at the 90th-percentile
threshold, and `load_scores` (what `report` reads), on the
`tests/conftest.py` `make_corpus` corpus in shards of 2500 documents, with
one score record per document in manifest order, as `score` writes them.
Each size runs in a fresh subprocess. Times are the median of the repeats;
the traced peak (`tracemalloc`) comes from one more `apply_filter` call,
and the peak RSS covers the whole subprocess.

    PYTHONPATH=src python3 benchmarks/bench_filter.py [--sizes 20000 80000]

Results go under `--label` (default "after") in BENCH_filter.json at the
repository root, keeping the other labels already there; point PYTHONPATH
at another checkout's `src` and pass `--label before` to record a baseline.
"""

import argparse
import json
import os
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
OUT = os.path.join(ROOT, "BENCH_filter.json")
DOCS_PER_SHARD = 2500
PERCENTILE = 90.0
REPEATS = 3


def run_size(n: int, work: str) -> dict:
    from corpusfilter.corpus_io import read_shard
    from corpusfilter.thresholds import apply_filter, estimate_percentile_threshold, load_scores

    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from conftest import make_corpus

    manifest = make_corpus(pathlib.Path(work), n // DOCS_PER_SHARD, DOCS_PER_SHARD)
    rng = random.Random(n)
    scores_path = os.path.join(work, "scores.jsonl")
    values = []
    with open(scores_path, "w", encoding="utf-8") as fh:
        for path in manifest.shard_paths:
            shard = os.path.basename(path)
            for doc in read_shard(path):
                score = rng.random()
                values.append(score)
                fh.write(json.dumps({"doc_id": doc.id, "score": score, "shard": shard},
                                    sort_keys=True) + "\n")
    tau = estimate_percentile_threshold(values, PERCENTILE)
    out_dir = os.path.join(work, "filtered")

    filter_s, load_s = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        stats = apply_filter(manifest, scores_path, tau, out_dir)
        filter_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        assert len(load_scores(scores_path)) == n
        load_s.append(time.perf_counter() - start)
        assert stats.docs_in == n
    tracemalloc.start()
    apply_filter(manifest, scores_path, tau, out_dir)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "n": n,
        "shards": len(manifest.shard_paths),
        "docs_out": stats.docs_out,
        "repeats": REPEATS,
        "apply_filter_s": statistics.median(filter_s),
        "load_scores_s": statistics.median(load_s),
        "filter_docs_per_s": n / statistics.median(filter_s),
        "apply_filter_runs_s": filter_s,
        "load_scores_runs_s": load_s,
        "apply_filter_traced_peak_mb": peak / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[20_000, 80_000])
    parser.add_argument("--label", default="after")
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.worker is not None:
        with tempfile.TemporaryDirectory() as work:
            print(json.dumps(run_size(args.worker, work)))
        return

    results = []
    for n in args.sizes:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--worker", str(n)],
            capture_output=True, text=True, check=True,
        )
        row = json.loads(proc.stdout)
        print(f"n={n:>6}: apply_filter {row['apply_filter_s']:6.3f} s "
              f"({row['filter_docs_per_s']:8.0f} docs/s), load_scores "
              f"{row['load_scores_s']:6.3f} s, traced peak "
              f"{row['apply_filter_traced_peak_mb']:6.2f} MB, peak RSS {row['peak_rss_mb']:5.0f} MB")
        results.append(row)

    record = {}
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as fh:
            record = json.load(fh)
    record[args.label] = {"cores": os.cpu_count(), "sizes": results}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
