#!/usr/bin/env python3
"""Benchmark the cold start of the CLI: `import corpusfilter.cli` in a
fresh interpreter, which every `corpusfilter` command pays before it does
any work. Each run is a new subprocess that times the import, then records
its peak RSS (`ru_maxrss`) and how many HTTP-stack modules the import
loaded. One untimed run first writes the bytecode caches. Times and RSS are
reported as the median and quartiles of the runs.

    PYTHONPATH=src python3 benchmarks/bench_startup.py [--runs 15]

Results go under `--label` (default "after") in BENCH_startup.json at the
repository root, keeping the other labels already there; point PYTHONPATH
at another checkout's `src` and pass `--label before` to record a baseline.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
OUT = os.path.join(ROOT, "BENCH_startup.json")
HTTP_STACK = ("requests", "urllib3", "charset_normalizer", "idna", "ssl", "http.client", "email")

CHILD = f"""
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


def run_once() -> dict:
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(proc.stdout)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=15)
    parser.add_argument("--label", default="after")
    args = parser.parse_args()
    if args.runs < 9:
        parser.error("--runs must be at least 9")

    print(f"package: {run_once()['package']}")
    rows = [run_once() for _ in range(args.runs)]
    import_s = [r["import_s"] for r in rows]
    rss_mb = [r["rss_mb"] for r in rows]
    http = sorted({m for r in rows for m in r["http_modules"]})
    result = {
        "cores": os.cpu_count(),
        "runs": args.runs,
        "import_s": summary(import_s),
        "rss_mb": summary(rss_mb),
        "http_modules_loaded": len(http),
        "http_modules": http,
        "import_runs_s": import_s,
    }
    print(f"import corpusfilter.cli: median {result['import_s']['median']:.3f} s "
          f"(Q1-Q3 {result['import_s']['q1']:.3f}-{result['import_s']['q3']:.3f}), "
          f"RSS median {result['rss_mb']['median']:.1f} MB, "
          f"HTTP-stack modules loaded: {', '.join(http) or 'none'}")

    record = {}
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as fh:
            record = json.load(fh)
    record[args.label] = result
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
