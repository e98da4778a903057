#!/usr/bin/env python3
"""Benchmarks of corpusfilter, one subcommand each:

    PYTHONPATH=src python3 benchmarks/bench.py {startup,kernel,filter,clustering} [options]

startup     `import corpusfilter.cli` in a fresh interpreter, which every
            command pays first: the import time and the peak RSS after it,
            median and quartiles of `--runs` runs after one untimed run that
            writes the bytecode caches, and the HTTP-stack modules loaded.
kernel      the n-gram kernel on two batches: `tests/conftest.py` `make_text`
            prose (ASCII) and random text with 2- and 3-byte characters.
            Per batch: the traced peak (`tracemalloc`) of one untimed call,
            whose first `--spec-docs` rows must equal the scalar spec's bit
            for bit, then Mchar/s, best of the repeats.
filter      `apply_filter` at the 90th-percentile threshold, and `load_scores`
            (what `report` reads), on the `tests/conftest.py` `make_corpus`
            corpus in shards of 2500 documents, with one score record per
            document in manifest order; the traced peak (`tracemalloc`) comes
            from one more `apply_filter` call.
clustering  balanced k-means at K=64, d=384: a one-iteration fit split into
            seeding (`_kmeans_pp_init`), the distance GEMM (`_sq_distances`)
            and the capacity-constrained assignment (`_balanced_assign`),
            each wrapped for the length of the fit, with `update_s` the rest
            (centroid means and WCSS); a fit of up to 10 iterations; and one
            histogram over the same points.

Each start-up run and each size runs in a fresh interpreter (for a size,
this script with a hidden `--child` flag), so that its peak RSS
(`ru_maxrss`, inputs included) is its own; filter and clustering times are the median of the
repeats. Results go under `--label` (default "after") in
BENCH_<subcommand>.json at the repository root, keeping the other labels;
point PYTHONPATH at another checkout's `src` and pass `--label before` to
record a baseline.
"""

import argparse
import json
import os
import pathlib
import random
import resource
import statistics
import string
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

SCRIPT = os.path.abspath(__file__)
ROOT = os.path.join(os.path.dirname(SCRIPT), "..")
TESTS = os.path.join(ROOT, "tests")
K = 64
DIM = 384
REPEATS = 3
LONG_ITERS = 10
STAGES = {"_kmeans_pp_init": "seed_s", "_sq_distances": "distances_s",
          "_balanced_assign": "assign_s"}
DOCS_PER_SHARD = 2500
PERCENTILE = 90.0
HTTP_STACK = ("requests", "urllib3", "charset_normalizer", "idna", "ssl", "http.client", "email")
# one start-up run, as `python -c`: compiling this script would add about 1 MB to its peak RSS
STARTUP_CHILD = f"""
import resource, sys, time
start = time.perf_counter()
import corpusfilter.cli
import_s = time.perf_counter() - start
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
http = [m for m in {HTTP_STACK!r} if m in sys.modules]
import json
print(json.dumps({{"import_s": import_s, "rss_mb": rss_mb, "http_modules": http,
                  "package": corpusfilter.__file__}}))
"""


def fresh(*argv: str) -> dict:
    """The one JSON row that a new interpreter, `python *argv`, prints."""
    proc = subprocess.run([sys.executable, *argv], stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def timed(fn, repeats: int) -> tuple[list[float], object]:
    """The seconds each of `repeats` calls of fn took, and the last call's result."""
    runs = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        runs.append(time.perf_counter() - start)
    return runs, result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def medians(runs: dict[str, list[float]]) -> dict:
    """`x_s`: the median of each list of runs, and `x_runs_s`: the runs."""
    row = {}
    for key, values in runs.items():
        row[key] = statistics.median(values)
        row[key[:-2] + "_runs_s"] = values
    return row


def show(rows: list[dict]) -> list[dict]:
    """Print the figures of each row, less its lists of runs, one line a row."""
    for row in rows:
        print(", ".join(f"{k} {v:.6g}" for k, v in row.items() if not isinstance(v, list)))
    return rows


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def record(name: str, label: str, result: dict) -> None:
    """Merge `result` and the core count under `label` into BENCH_<name>.json,
    keeping the other labels, and their bytes, as they are."""
    path = os.path.join(ROOT, f"BENCH_{name}.json")
    rows = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)
    rows[label] = {"cores": os.cpu_count(), **result}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
        fh.write("\n")


def startup_summary(rows: list[dict]) -> dict:
    import_s = [r["import_s"] for r in rows]
    http = sorted({m for r in rows for m in r["http_modules"]})
    return {"runs": len(rows), "import_s": summary(import_s),
            "rss_mb": summary([r["rss_mb"] for r in rows]),
            "http_modules_loaded": len(http), "http_modules": http, "import_runs_s": import_s}


def run_startup(args) -> dict:
    print(f"package: {fresh('-c', STARTUP_CHILD)['package']}")
    result = startup_summary([fresh("-c", STARTUP_CHILD) for _ in range(args.runs)])
    imp = result["import_s"]
    print(f"import corpusfilter.cli: median {imp['median']:.3f} s "
          f"(Q1-Q3 {imp['q1']:.3f}-{imp['q3']:.3f}), "
          f"RSS median {result['rss_mb']['median']:.1f} MB, "
          f"HTTP-stack modules loaded: {', '.join(result['http_modules']) or 'none'}")
    return result


def kernel_result(args) -> dict:
    from corpusfilter.kernels import hashed_ngram_matrix

    sys.path.insert(0, TESTS)
    from conftest import make_text
    from fnv_spec import spec_counts

    rng = random.Random(0)
    alphabet = string.ascii_lowercase + "     éàüö漢字"
    inputs = {
        "mixed": ["".join(rng.choice(alphabet) for _ in range(args.chars))
                  for _ in range(args.docs)],
        "ascii": [make_text(rng, rng.random(), args.chars)[: args.chars]
                  for _ in range(args.docs)],
    }
    shape = (args.dim, args.ngram_lo, args.ngram_hi, 0)
    result = {"docs": args.docs, "chars": args.chars, "dim": args.dim, "spec_docs": args.spec_docs,
              "ngram_lo": args.ngram_lo, "ngram_hi": args.ngram_hi, "repeats": args.repeats}
    for name, docs in inputs.items():
        spec = np.stack([spec_counts(d, *shape) for d in docs[: args.spec_docs]])
        tracemalloc.start()  # one untimed call: its peak, its rows against the spec, a warm-up
        batch = hashed_ngram_matrix(docs, *shape)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert np.array_equal(batch[: args.spec_docs], spec), f"{name}: kernel and spec disagree"
        runs, _ = timed(lambda: hashed_ngram_matrix(docs, *shape), args.repeats)
        n_chars = sum(map(len, docs))
        result[name] = {"s": min(runs), "runs_s": runs, "mchar_per_s": n_chars / min(runs) / 1e6,
                        "traced_peak_mb": peak / 1e6, "peak_bytes_per_char": peak / n_chars}
        print(f"{name:5s}: {min(runs):8.3f} s for {n_chars / 1e6:.2f}M chars "
              f"({result[name]['mchar_per_s']:6.2f} Mchar/s, best of {len(runs)}), "
              f"traced peak {peak / 1e6:.1f} MB ({peak / n_chars:.1f} B/char)")
    print("kernel agrees bit-exactly with the spec on both inputs")
    return result


def filter_row(n: int) -> dict:
    from corpusfilter.corpus_io import read_shard
    from corpusfilter.thresholds import apply_filter, estimate_percentile_threshold, load_scores

    sys.path.insert(0, TESTS)
    from conftest import make_corpus

    with tempfile.TemporaryDirectory() as work:
        manifest = make_corpus(pathlib.Path(work), n // DOCS_PER_SHARD, DOCS_PER_SHARD)
        rng = random.Random(n)
        scores_path = os.path.join(work, "scores.jsonl")
        values = []
        with open(scores_path, "w", encoding="utf-8") as fh:
            for path in manifest.shard_paths:
                for doc in read_shard(path):
                    values.append(rng.random())
                    fh.write(json.dumps({"doc_id": doc.id, "score": values[-1],
                                         "shard": os.path.basename(path)}, sort_keys=True) + "\n")
        tau = estimate_percentile_threshold(values, PERCENTILE)
        out_dir = os.path.join(work, "filtered")
        runs = {}
        runs["apply_filter_s"], stats = timed(
            lambda: apply_filter(manifest, scores_path, tau, out_dir), REPEATS)
        runs["load_scores_s"], loaded = timed(lambda: len(load_scores(scores_path)), REPEATS)
        assert loaded == n == stats.docs_in
        tracemalloc.start()
        apply_filter(manifest, scores_path, tau, out_dir)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    row = {"n": n, "shards": len(manifest.shard_paths), "docs_out": stats.docs_out,
           "repeats": REPEATS, **medians(runs), "apply_filter_traced_peak_mb": peak / 1e6}
    row["filter_docs_per_s"] = n / row["apply_filter_s"]
    return {**row, "peak_rss_mb": peak_rss_mb()}


def run_filter(args) -> dict:
    rows = [fresh(SCRIPT, "filter", "--sizes", str(n), "--child") for n in args.sizes]
    return {"sizes": show(rows)}


def staged_fit(clustering, X) -> dict:
    """One-iteration fit with the seconds spent in each stage."""
    spent = dict.fromkeys(STAGES.values(), 0.0)
    originals = {name: getattr(clustering, name) for name in STAGES}

    def stage(name, fn):
        def wrapper(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[STAGES[name]] += time.perf_counter() - start
        return wrapper

    for name, fn in originals.items():
        setattr(clustering, name, stage(name, fn))
    try:
        start = time.perf_counter()
        clustering.fit_balanced_kmeans(X, K, seed=0, max_iters=1)
        total = time.perf_counter() - start
    finally:
        for name, fn in originals.items():
            setattr(clustering, name, fn)
    return {"fit_1iter_s": total, **spent, "update_s": total - sum(spent.values())}


def clustering_row(n: int) -> dict:
    from corpusfilter import clustering

    X = np.random.default_rng(n).standard_normal((n, DIM))
    X /= np.sqrt(np.einsum("ij,ij->i", X, X))[:, None]
    runs: dict[str, list[float]] = {}
    for _ in range(REPEATS):
        for key, value in staged_fit(clustering, X).items():
            runs.setdefault(key, []).append(value)
    fit = f"fit_{LONG_ITERS}iter_s"
    runs[fit], model = timed(
        lambda: clustering.fit_balanced_kmeans(X, K, seed=0, max_iters=LONG_ITERS), REPEATS)
    runs["histogram_s"], hist = timed(
        lambda: clustering.histogram_over_clusters(model, X, "fit"), REPEATS)
    assert hist.total == n
    return {"n": n, "K": K, "d": DIM, "repeats": REPEATS,
            f"fit_{LONG_ITERS}iter_iters": len(model.wcss_history_), **medians(runs),
            "peak_rss_mb": peak_rss_mb()}


def run_clustering(args) -> dict:
    rows = [fresh(SCRIPT, "clustering", "--sizes", str(n), "--child") for n in args.sizes]
    return {"numpy": np.__version__, "sizes": show(rows)}


RUN = {"startup": run_startup, "kernel": kernel_result, "filter": run_filter,
       "clustering": run_clustering}
CHILD = {"filter": lambda args: filter_row(args.sizes[0]),
         "clustering": lambda args: clustering_row(args.sizes[0])}


def parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    top.set_defaults(child=False)
    commands = top.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--label", default="after")
    startup = commands.add_parser("startup", parents=[common])
    startup.add_argument("--runs", type=int, default=15, help="at least 9")
    kernel = commands.add_parser("kernel", parents=[common])
    for flag, default in {"--docs": 256, "--chars": 1500, "--dim": 384, "--ngram-lo": 2,
                          "--ngram-hi": 4, "--spec-docs": 16, "--repeats": 5}.items():
        kernel.add_argument(flag, type=int, default=default)
    for name, sizes in (("filter", [20_000, 80_000]), ("clustering", [20_000, 200_000])):
        sized = commands.add_parser(name, parents=[common])
        sized.add_argument("--sizes", type=int, nargs="+", default=sizes)
        sized.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return top


def main(argv: list[str] | None = None) -> None:
    top = parser()
    args = top.parse_args(argv)
    if args.command == "startup" and args.runs < 9:
        top.error("--runs must be at least 9")
    if args.child:
        print(json.dumps(CHILD[args.command](args)))
        return
    record(args.command, args.label, RUN[args.command](args))


if __name__ == "__main__":
    main()
