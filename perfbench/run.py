#!/usr/bin/env python3
"""Benchmark of the corpusfilter pipeline.

    python3 perfbench/run.py --workload filter_multilingual --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. The seed makes the inputs. After set-up and one untimed warm-up
pass, the run repeats a fixed-input pass until `--seconds` have passed and
checks every pass's outputs. The last line of standard output is one JSON
object: `correct`, `attempted` and `failed` passes, and the metrics. With
`--trace 0` they are the end-to-end metrics; with `--trace 1` they are the
per-layer metrics of traced passes, which alternate with untraced ones to
give the tracing overhead, and the spans go to `perfbench/_results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_TRIALS = 3
CHILD_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", metavar="COMMANDS", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_child is None and args.workload is None:
        p.error("--workload is required")
    return args


def setup_child(commands: list[list[str]]) -> int:
    """Time the package import and the one-time CLI commands in a fresh
    interpreter; prints {"setup_s": ...}."""
    start = time.perf_counter()
    from corpusfilter import cli

    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            print(f"setup command {argv[0]} exited with {code}", file=sys.stderr)
            return 1
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def timed_setup(commands: list[list[str]]) -> float:
    """Median set-up time over SETUP_TRIALS fresh interpreters."""
    times = []
    for _ in range(SETUP_TRIALS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-child", json.dumps(commands)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def import_package():
    import corpusfilter
    import corpusfilter.cli  # loads every library module the tracer wraps

    where = os.path.dirname(os.path.abspath(corpusfilter.__file__))
    if where != os.path.join(SRC, "corpusfilter"):
        raise RuntimeError(f"corpusfilter imported from {where}, not from {SRC}")
    return corpusfilter


def one_pass(wl) -> tuple[bool, float]:
    """Run and check one pass; returns (ok, program seconds)."""
    wl.clean()
    start = time.perf_counter()
    try:
        wl.run_pass()
    except Exception as exc:  # a failing pass is counted, the run goes on
        print(f"pass raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return False, time.perf_counter() - start
    elapsed = time.perf_counter() - start
    try:
        wl.check()
    except Exception as exc:  # malformed output fails the pass as a check would
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False, elapsed
    return True, elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args) -> dict:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    work = os.path.join(HERE, "_work", f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        wl = workloads.WORKLOADS[args.workload](work, args.seed)
        wl.generate()
        if args.trace:
            return traced_run(wl, args)
        return untraced_run(wl, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def untraced_run(wl, args) -> dict:
    setup_s = timed_setup(wl.setup_commands())
    import_package()
    wl.prepare()
    one_pass(wl)  # warm-up
    times, failed_times = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        ok, elapsed = one_pass(wl)
        (times if ok else failed_times).append(elapsed)
        if time.perf_counter() >= deadline:
            break
    attempted, failed = len(times) + len(failed_times), len(failed_times)
    pass_s = statistics.median(times or failed_times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "docs_per_s": (wl.docs_per_pass / pass_s, "docs/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return result(attempted, failed, metrics, f"{len(times)} timed passes")


UNITS = {"mchar_per_s": "Mchar/s", "docs_embedded": "count", "embeds_per_doc": "ratio",
         "docs_read": "count", "docs_written": "count", "fit_iters": "count"}


def traced_run(wl, args) -> dict:
    import workloads
    from spans import Tracer, layer_metrics, self_by_layer, self_times

    pkg = import_package()
    tracer = Tracer()
    tracer.install()
    try:
        for argv in wl.setup_commands():
            workloads.run_cli(*argv)
    finally:
        tracer.uninstall()
    setup_spans = tracer.take()
    wl.prepare()
    one_pass(wl)  # warm-up

    traced, plain, per_pass, passes = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        on = attempted % 2 == 0
        if on:
            tracer.install()
        try:
            ok, elapsed = one_pass(wl)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        attempted += 1
        failed += not ok
        if ok and on:
            traced.append(elapsed)
            per_pass.append(layer_metrics(spans, wl.docs_per_pass))
            passes.append(spans)
        elif ok:
            plain.append(elapsed)
        if time.perf_counter() >= deadline and attempted % 2 == 0:
            break

    metrics = {}
    for name in per_pass[0] if per_pass else ():
        if name == "classifier.train_s":
            value = layer_metrics(setup_spans, wl.docs_per_pass)[name]
        else:
            value = statistics.median(m[name] for m in per_pass)
        metrics[name] = (value, UNITS.get(name.split(".", 1)[1], "s"))
    traced_s = statistics.median(traced) if traced else float("nan")
    plain_s = statistics.median(plain) if plain else float("nan")
    metrics["tracing.pass_s"] = (traced_s, "s")
    metrics["tracing.overhead_s"] = (traced_s - plain_s, "s")

    def dump(spans):
        own = self_times(spans)
        return {"self_s_by_layer": self_by_layer(spans),
                "spans": [s.as_dict(own[s.id]) for s in spans]}

    os.makedirs(os.path.join(HERE, "_results"), exist_ok=True)
    path = os.path.join(HERE, "_results", f"trace-{wl.name}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "nproc": os.cpu_count(), "hash_backend": pkg.HASH_BACKEND,
            "untraced_pass_s": plain, "traced_pass_s": traced,
            "not_traced": tracer.missing,
            "setup": dump(setup_spans),
            "passes": [{"metrics": m, **dump(sp)} for m, sp in zip(per_pass, passes)],
        }, fh)
    if tracer.missing:
        print(f"not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
    return result(attempted, failed, metrics,
                  f"{len(traced)} traced and {len(plain)} untraced passes; spans in {path}")


def result(attempted: int, failed: int, metrics: dict, note: str) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"{attempted} passes attempted, {failed} failed ({note})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "corpusfilter", "__init__.py")):
        print(f"no corpusfilter sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_child is not None:
        return setup_child(json.loads(args.setup_child))
    out = run(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
