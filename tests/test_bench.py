"""Smoke test of benchmarks/bench.py at tiny sizes: each bench's measurement
in this process, one fresh-interpreter round trip, and rows with the keys of
the latest committed rows of BENCH_*.json."""

import importlib.util
import json
import os
import shutil
import statistics

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
_spec = importlib.util.spec_from_file_location(
    "bench", os.path.join(ROOT, "benchmarks", "bench.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

# the latest committed row of each file
LATEST = {"clustering": "pr13-after", "filter": "pr11-after", "startup": "after"}


def assert_keys_of_latest(name, result):
    with open(os.path.join(ROOT, f"BENCH_{name}.json"), encoding="utf-8") as fh:
        want = json.load(fh)[LATEST[name]]
    assert sorted({"cores": 0, **result}) == sorted(want)
    for row in result.get("sizes", ()):
        assert sorted(row) == sorted(want["sizes"][0])


def in_process(script, *argv):
    """What `fresh(script, *argv)` returns, measured in this process."""
    args = bench.parser().parse_args(argv)
    return bench.CHILD[args.command](args)


def test_clustering_in_process_and_through_a_child(monkeypatch):
    monkeypatch.setattr(bench, "fresh", in_process)
    result = bench.run_clustering(bench.parser().parse_args(["clustering", "--sizes", "80"]))
    assert_keys_of_latest("clustering", result)
    [row] = result["sizes"]
    assert (row["n"], row["K"], row["d"]) == (80, 64, 384)
    assert len(row["fit_10iter_runs_s"]) == row["repeats"] == 3
    stages = zip(row["seed_runs_s"], row["distances_runs_s"], row["assign_runs_s"],
                 row["update_runs_s"])
    assert list(map(sum, stages)) == pytest.approx(row["fit_1iter_runs_s"], abs=1e-12)
    monkeypatch.undo()

    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    child = bench.fresh(bench.SCRIPT, "clustering", "--sizes", "80", "--child")
    assert sorted(child) == sorted(row) and child["n"] == 80


def test_filter_in_process(monkeypatch):
    monkeypatch.setattr(bench, "fresh", in_process)
    result = bench.run_filter(bench.parser().parse_args(["filter", "--sizes", "2500"]))
    assert_keys_of_latest("filter", result)
    [row] = result["sizes"]
    assert (row["n"], row["shards"]) == (2500, 1)
    # p90 of the random scores keeps about a tenth
    assert 150 <= row["docs_out"] <= 350
    assert row["filter_docs_per_s"] == 2500 / row["apply_filter_s"]


def test_kernel_in_process(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    bench.main(["kernel", "--docs", "6", "--chars", "120", "--spec-docs", "2", "--repeats", "2"])
    assert "kernel agrees bit-exactly with the spec on both inputs" in capsys.readouterr().out
    with open(tmp_path / "BENCH_kernel.json", encoding="utf-8") as fh:
        result = json.load(fh)["after"]
    assert (result["docs"], result["chars"], result["spec_docs"]) == (6, 120, 2)
    for name in ("ascii", "mixed"):
        row = result[name]
        assert row["s"] == min(row["runs_s"]) and len(row["runs_s"]) == 2
        assert row["mchar_per_s"] == 6 * 120 / row["s"] / 1e6
        assert row["traced_peak_mb"] * 1e6 == pytest.approx(row["peak_bytes_per_char"] * 6 * 120)
        assert row["peak_bytes_per_char"] > 0


def test_startup_summary_of_child_rows():
    rows = [{"import_s": 0.1 * i, "rss_mb": 30.0 + i, "package": "p",
             "http_modules": ["ssl"] if i == 4 else []} for i in range(9, 0, -1)]
    result = bench.startup_summary(rows)
    assert_keys_of_latest("startup", result)
    q1, median, q3 = statistics.quantiles([0.1 * i for i in range(1, 10)], n=4)
    assert result["import_s"] == {"median": median, "q1": q1, "q3": q3}
    assert result["rss_mb"]["median"] == 35.0
    assert result["runs"] == 9
    assert (result["http_modules"], result["http_modules_loaded"]) == (["ssl"], 1)
    assert result["import_runs_s"] == [r["import_s"] for r in rows]


def test_startup_child_round_trip(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    row = bench.fresh("-c", bench.STARTUP_CHILD)
    assert sorted(row) == ["http_modules", "import_s", "package", "rss_mb"]
    assert row["http_modules"] == [] and row["import_s"] > 0
    package = os.path.join(ROOT, "src", "corpusfilter", "__init__.py")
    assert os.path.samefile(row["package"], package)


def test_startup_needs_nine_runs():
    with pytest.raises(SystemExit):
        bench.main(["startup", "--runs", "8"])


@pytest.mark.parametrize("name", sorted(LATEST))
def test_record_keeps_the_other_labels_byte_for_byte(tmp_path, monkeypatch, name):
    committed = os.path.join(ROOT, f"BENCH_{name}.json")
    shutil.copy(committed, tmp_path)
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    bench.record(name, "smoke", {"sizes": []})
    with open(tmp_path / f"BENCH_{name}.json", encoding="utf-8") as fh:
        rows = json.load(fh)
    assert rows.pop("smoke") == {"cores": os.cpu_count(), "sizes": []}
    with open(committed, "rb") as fh:
        assert (json.dumps(rows, indent=2, sort_keys=True) + "\n").encode() == fh.read()
