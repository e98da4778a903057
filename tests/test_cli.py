import csv
import json
import math
import os
import socket
import subprocess
import sys

import pytest
import yaml

import corpusfilter

from corpusfilter import cli, corpus_io, embedding, thresholds
from corpusfilter.classifier import load_classifier
from corpusfilter.cli import check_config, load_config, main
from corpusfilter.corpus_io import (
    CorpusManifest,
    Document,
    read_shard,
    write_json,
    write_shard,
)
from corpusfilter.embedding import HashedNgramProvider
from corpusfilter.thresholds import compare_sampling_strategies

from conftest import hashed_config, make_corpus, make_docs, save_manifest
from test_embedding import MockEmbedHandler, mock_server  # noqa: F401


def build_workspace(tmp_path, n_shards=2, docs_per_shard=50, dim=64):
    """Seed shards, a corpus manifest, and a config file under tmp_path."""
    root = tmp_path
    pos = make_docs(80, seed=101, prefix="pos_", quality=0.95)
    neg = make_docs(80, seed=202, prefix="neg_", quality=0.05)
    write_shard(str(root / "pos.jsonl"), pos)
    write_shard(str(root / "neg.jsonl"), neg)

    corpus_dir = root / "corpus"
    corpus_dir.mkdir()
    manifest = make_corpus(corpus_dir, n_shards, docs_per_shard, seed=7)
    manifest_path = str(root / "manifest.json")
    save_manifest(manifest, manifest_path)

    cfg = {
        "seed": 0,
        "output_dir": str(root / "out"),
        "embedding": {"kind": "hashed_ngram", "dim": dim, "ngram_range": [2, 4], "seed": 0},
        "train": {
            "positives": [str(root / "pos.jsonl")],
            "negatives": [str(root / "neg.jsonl")],
            "max_epochs": 300,
        },
        "classifier": str(root / "out" / "classifier.json"),
        "corpus": {"manifest": manifest_path},
        "scores": str(root / "out" / "scores.jsonl"),
        "percentiles": [30, 60, 90],
        "threshold": {"strategy": "first_file", "max_docs": 10000},
        "filter": {"percentile": 90, "out_dir": str(root / "out" / "filtered")},
    }
    cfg_path = str(root / "config.yaml")
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return cfg, cfg_path, manifest


def run(cmd, cfg_path, *extra):
    return main([cmd, "-c", cfg_path, *extra])


def test_train_filter_writes_classifier(tmp_path):
    cfg, cfg_path, _ = build_workspace(tmp_path)
    assert run("train-filter", cfg_path) == 0
    assert os.path.exists(cfg["classifier"])
    report = json.load(open(os.path.join(cfg["output_dir"], "train_report.json")))
    assert report["eval"]["accuracy"] >= 0.95
    assert "positives:pos.jsonl" in report["trained_on"]
    assert report["seed"] == 0 and "config_hash" in report


def test_train_filter_single_class_exit_code(tmp_path, capsys):
    cfg, cfg_path, _ = build_workspace(tmp_path)
    cfg["train"].pop("negatives")
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    assert run("train-filter", cfg_path) == 3
    assert "single class" in capsys.readouterr().err


def test_train_filter_deterministic_bytes(tmp_path):
    cfg, cfg_path, _ = build_workspace(tmp_path)
    assert run("train-filter", cfg_path) == 0
    first = open(cfg["classifier"], "rb").read()
    assert run("train-filter", cfg_path) == 0
    assert open(cfg["classifier"], "rb").read() == first


def test_full_pipeline_and_retention_ordering(tmp_path):
    cfg, cfg_path, manifest = build_workspace(tmp_path, n_shards=2, docs_per_shard=500)
    assert run("train-filter", cfg_path) == 0
    assert run("score", cfg_path) == 0
    assert run("threshold", cfg_path) == 0
    report = json.load(
        open(os.path.join(cfg["output_dir"], "threshold_report.json"))
    )
    taus = {e["percentile"]: e["tau"] for e in report["estimates"]}
    assert taus[30] <= taus[60] <= taus[90]

    retentions = []
    for p in (30, 60, 90):
        cfg["filter"] = {"tau": taus[p], "out_dir": str(tmp_path / f"f{p}")}
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(cfg, fh)
        assert run("filter", cfg_path) == 0
        stats = json.load(open(os.path.join(cfg["output_dir"], "filter_stats.json")))
        retentions.append(stats["retention"])
        assert stats["docs_malformed"] == 0
    assert retentions == sorted(retentions, reverse=True)
    # headline setting keeps roughly a tenth of the corpus
    assert 0.05 <= retentions[-1] <= 0.15


def test_filter_missing_scores_fails_with_doc_named(tmp_path, capsys):
    cfg, cfg_path, manifest = build_workspace(tmp_path)
    assert run("train-filter", cfg_path) == 0
    assert run("score", cfg_path) == 0
    # drop one score record
    lines = open(cfg["scores"]).readlines()
    missing_id = json.loads(lines[3])["doc_id"]
    with open(cfg["scores"], "w") as fh:
        fh.writelines(lines[:3] + lines[4:])
    cfg["filter"] = {"tau": 0.5}
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    assert run("filter", cfg_path) == 3
    assert missing_id in capsys.readouterr().err


def score_and_filter_with_bad_line(tmp_path, bad_line: bytes):
    """Append bad_line to the first shard, then train, score and filter."""
    cfg, cfg_path, manifest = build_workspace(tmp_path)
    with open(manifest.shard_paths[0], "ab") as fh:
        fh.write(bad_line + b"\n")
    assert run("train-filter", cfg_path) == 0
    assert run("score", cfg_path) == 0
    ids = [json.loads(line)["doc_id"] for line in open(cfg["scores"])]
    assert len(ids) == 100 and "bad" not in ids
    cfg["filter"] = {"tau": 0.5}
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    assert run("filter", cfg_path) == 0
    stats = json.load(open(os.path.join(cfg["output_dir"], "filter_stats.json")))
    assert stats["docs_in"] == 100 and stats["docs_malformed"] == 1


def test_score_skips_a_lone_surrogate_line(tmp_path):
    line = rb'{"id":"bad","text":"lone \ud800","lang":"en","source":"s"}'
    score_and_filter_with_bad_line(tmp_path, line)


def test_score_and_filter_skip_an_invalid_utf8_line(tmp_path):
    line = b'{"id":"bad","text":"byte \xff","lang":"en","source":"s"}'
    score_and_filter_with_bad_line(tmp_path, line)


def test_score_names_a_text_shorter_than_the_shortest_gram(tmp_path, capsys):
    cfg, cfg_path, _ = build_workspace(tmp_path, docs_per_shard=5)
    assert run("train-filter", cfg_path) == 0
    shard = tmp_path / "short.jsonl"
    shard.write_text("".join(
        json.dumps({"id": i, "text": text, "lang": "en", "source": "s"}) + "\n"
        for i, text in (("a", "hello world"), ("b", "5"))))
    with open(cfg["corpus"]["manifest"], "w") as fh:
        json.dump({"corpus_name": "c", "lang": "en", "shards": [str(shard)]}, fh)
    assert run("score", cfg_path) == 3
    err = capsys.readouterr().err
    assert "text '5' has fewer than 2 characters, the shortest n-gram" in err
    assert "cancelled" not in err


def test_train_batch_size_is_rejected(tmp_path, capsys):
    cfg, cfg_path, _ = build_workspace(tmp_path)
    cfg["train"]["batch_size"] = 32
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    assert run("train-filter", cfg_path) == 2
    assert "train.batch_size" in capsys.readouterr().err
    assert not os.path.exists(cfg["classifier"])


REMOTE_FAULTS = {
    # MockEmbedHandler.mode: what the error names
    "not_json": "{endpoint}/embed",
    "no_vectors": "{endpoint}/embed",
    "nan": "service returned non-finite vectors",
}


@pytest.mark.parametrize("mode", list(REMOTE_FAULTS))
def test_bad_remote_body_exits_4(tmp_path, mock_server, mode, capsys):
    cfg, cfg_path, _ = build_workspace(tmp_path)
    cfg["embedding"] = {"kind": "remote", "dim": 384, "endpoint": mock_server}
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    MockEmbedHandler.mode = mode
    assert run("train-filter", cfg_path) == 4
    assert REMOTE_FAULTS[mode].format(endpoint=mock_server) in capsys.readouterr().err


def test_refused_remote_endpoint_exits_4_after_3_attempts(tmp_path, capsys, monkeypatch):
    import requests

    posts = []
    post = requests.Session.post
    monkeypatch.setattr(requests.Session, "post",
                        lambda self, url, **kw: posts.append(url) or post(self, url, **kw))
    monkeypatch.setattr(embedding, "RETRY_WAIT", 0.001)
    cfg, cfg_path, _ = build_workspace(tmp_path, docs_per_shard=5)
    with socket.socket() as closed:  # bound, never listening: it refuses connections
        closed.bind(("127.0.0.1", 0))
        endpoint = "http://127.0.0.1:%d" % closed.getsockname()[1]
        cfg["embedding"] = {"kind": "remote", "dim": 384, "endpoint": endpoint}
        write_config(cfg_path, cfg)
        assert run("train-filter", cfg_path) == 4
    assert "embedding service failed after 3 attempts" in capsys.readouterr().err
    assert posts == [f"{endpoint}/embed"] * 3


def test_embedding_env_overrides_the_endpoint_and_sends_the_token(tmp_path, mock_server,
                                                                    monkeypatch):
    cfg, cfg_path, _ = build_workspace(tmp_path)
    with socket.socket() as closed:  # bound, never listening: it refuses connections
        closed.bind(("127.0.0.1", 0))
        refused = "http://127.0.0.1:%d" % closed.getsockname()[1]
        cfg["embedding"] = {"kind": "remote", "dim": 384, "endpoint": refused}
        write_config(cfg_path, cfg)
        monkeypatch.setenv(cli.ENDPOINT_ENV, mock_server)
        monkeypatch.setenv(cli.TOKEN_ENV, "s3cret")
        assert run("train-filter", cfg_path) == 0
    assert MockEmbedHandler.auth and set(MockEmbedHandler.auth) == {"Bearer s3cret"}


# each of these slowed every command's start-up: scipy.stats by over a
# second, requests and the HTTP stack it loads by about 0.1 s
COLD_START_UNUSED = ("scipy", "requests", "urllib3", "ssl", "http.client", "concurrent.futures")


def test_cli_leaves_out_scipy_and_the_http_stack(tmp_path):
    # a fresh interpreter, because the remote tests load requests into this one
    cfg, cfg_path, _ = build_workspace(tmp_path, docs_per_shard=20)
    src = os.path.dirname(os.path.dirname(corpusfilter.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys\n"
        "def loaded():\n"
        f"    return [m for m in {COLD_START_UNUSED!r} if m in sys.modules]\n"
        "from corpusfilter import cli\n"
        "assert not loaded(), loaded()\n"
        "for cmd in ('train-filter', 'score', 'threshold', 'filter'):\n"
        f"    assert cli.main([cmd, '-c', {cfg_path!r}]) == 0\n"
        "assert not loaded(), loaded()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(cfg["filter"]["out_dir"])


def count_embedded(monkeypatch) -> list[int]:
    """The sizes of the batches the hashed provider embeds from now on."""
    embedded = []
    embed = HashedNgramProvider.embed_batch
    monkeypatch.setattr(HashedNgramProvider, "embed_batch",
                        lambda self, texts: embedded.append(len(texts)) or embed(self, texts))
    return embedded


@pytest.mark.parametrize("strategy", ["first_file", "random_files"])
def test_threshold_compare_embeds_each_sample_once(tmp_path, monkeypatch, strategy):
    cfg, cfg_path, manifest = build_workspace(tmp_path, n_shards=3, docs_per_shard=20)
    assert run("train-filter", cfg_path) == 0
    cfg["threshold"] = {"strategy": strategy, "n_random": 2, "compare": True, "percentile": 60}
    write_config(cfg_path, cfg)
    embedded = count_embedded(monkeypatch)
    assert run("threshold", cfg_path) == 0
    # the first shard (20 documents) and two random shards (40), once each
    assert sum(embedded) == 20 + 40
    report = json.load(open(os.path.join(cfg["output_dir"], "threshold_report.json")))
    assert report["estimates"][0]["sample_size"] == (20 if strategy == "first_file" else 40)
    clf = load_classifier(cfg["classifier"])
    assert report["strategy_comparison"] == compare_sampling_strategies(
        manifest, hashed_config(), clf, 60, n_random=2, seed=0
    )


def threshold_outcome(cfg, cfg_path, monkeypatch):
    """threshold's exit code, its report's bytes, and how many texts it embedded."""
    report = os.path.join(cfg["output_dir"], "threshold_report.json")
    if os.path.exists(report):
        os.remove(report)
    embedded = count_embedded(monkeypatch)
    code = run("threshold", cfg_path)
    blob = open(report, "rb").read() if os.path.exists(report) else None
    return code, blob, sum(embedded)


def scored_workspace(tmp_path, threshold):
    """A trained and scored workspace whose threshold section is `threshold`;
    its first shard holds a malformed and a blank line among its documents."""
    cfg, cfg_path, manifest = build_workspace(tmp_path, n_shards=3, docs_per_shard=20)
    with open(manifest.shard_paths[0], "ab") as fh:
        fh.write(b'{"id": "bad"}\n\n' + corpus_io.doc_to_line(make_docs(1, prefix="z")[0]).encode())
    cfg["threshold"] = threshold
    write_config(cfg_path, cfg)
    assert run("train-filter", cfg_path) == 0
    assert run("score", cfg_path) == 0
    return cfg, cfg_path


@pytest.mark.parametrize("threshold", [
    {"strategy": "first_file"},
    {"strategy": "random_files", "n_random": 2},
    {"strategy": "first_file", "compare": True, "n_random": 2, "percentile": 60},
    {"strategy": "random_files", "n_random": 3, "compare": True, "max_docs": 7},
])
def test_threshold_after_score_reads_the_scores_file(tmp_path, monkeypatch, threshold):
    cfg, cfg_path = scored_workspace(tmp_path, threshold)
    code, reused, embedded = threshold_outcome(cfg, cfg_path, monkeypatch)
    assert (code, embedded) == (0, 0)
    os.rename(cfg["scores"], cfg["scores"] + ".away")
    code, blob, embedded = threshold_outcome(cfg, cfg_path, monkeypatch)
    assert code == 0 and embedded > 0 and blob == reused


def retrain(cfg, cfg_path):
    cfg["train"]["max_epochs"] = 20
    write_config(cfg_path, cfg)
    assert run("train-filter", cfg_path) == 0


def edit_manifest(cfg, cfg_path):
    with open(cfg["corpus"]["manifest"]) as fh:
        manifest = json.load(fh)
    write_json(cfg["corpus"]["manifest"], {**manifest, "corpus_name": "renamed"})


def edit_scores(cfg, cfg_path):
    with open(cfg["scores"]) as fh:
        lines = fh.readlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "score": 0.5}) + "\n"
    with open(cfg["scores"], "w") as fh:
        fh.writelines(lines)


def set_embedding(key, value):
    def edit(cfg, cfg_path):
        cfg["embedding"][key] = value
        write_config(cfg_path, cfg)
    return edit


@pytest.mark.parametrize("edit", [
    retrain, edit_manifest, edit_scores,
    set_embedding("ngram_range", [1, 3]),
    set_embedding("seed", 5), set_embedding("truncate_chars", 60),
    lambda cfg, cfg_path: os.remove(os.path.join(cfg["output_dir"], "score_report.json")),
], ids=["classifier", "manifest", "scores", "ngram_range", "seed", "truncate_chars",
        "no_score_report"])
def test_threshold_embeds_when_the_scores_are_stale(tmp_path, monkeypatch, edit):
    threshold = {"strategy": "random_files", "n_random": 2, "compare": True}
    cfg, cfg_path = scored_workspace(tmp_path, threshold)
    edit(cfg, cfg_path)
    stale = threshold_outcome(cfg, cfg_path, monkeypatch)
    assert stale[2] > 0
    os.rename(cfg["scores"], cfg["scores"] + ".away")
    assert stale == threshold_outcome(cfg, cfg_path, monkeypatch)


def test_threshold_checks_the_dim_before_embedding(tmp_path, monkeypatch, capsys):
    cfg, cfg_path = scored_workspace(tmp_path, {"strategy": "random_files", "n_random": 2,
                                                "compare": True})
    set_embedding("dim", 32)(cfg, cfg_path)
    embedded = count_embedded(monkeypatch)
    assert run("threshold", cfg_path) == 3
    assert "provider dim 32 != classifier dim 64" in capsys.readouterr().err
    assert sum(embedded) == 0


def test_a_malformed_score_report_is_a_data_error(tmp_path, capsys):
    cfg, cfg_path = scored_workspace(tmp_path, {"strategy": "first_file"})
    path = os.path.join(cfg["output_dir"], "score_report.json")
    write_json(path, {"digests": {"scores": 5}})
    assert run("threshold", cfg_path) == 3
    err = capsys.readouterr().err
    assert path in err and "'digests'" in err


def test_score_and_reports_are_reproducible(tmp_path):
    cfg, cfg_path, _ = build_workspace(tmp_path)
    for cmd in ("train-filter", "score", "threshold"):
        assert run(cmd, cfg_path) == 0
    snapshots = {
        name: open(os.path.join(cfg["output_dir"], name), "rb").read()
        for name in ("classifier.json", "scores.jsonl", "score_report.json",
                     "threshold_report.json")
    }
    for cmd in ("train-filter", "score", "threshold"):
        assert run(cmd, cfg_path) == 0
    for name, blob in snapshots.items():
        assert open(os.path.join(cfg["output_dir"], name), "rb").read() == blob


def test_clusters_command(tmp_path):
    cfg, cfg_path, manifest = build_workspace(tmp_path, n_shards=2, docs_per_shard=100)
    other_dir = tmp_path / "other"
    other_dir.mkdir()
    other = make_corpus(other_dir, 1, 100, seed=55, name="other")
    other_path = str(tmp_path / "other_manifest.json")
    save_manifest(other, other_path)
    cfg["clusters"] = {
        "k": 8,
        "max_iters": 20,
        "fit": {"manifest": str(tmp_path / "manifest.json"), "max_docs": 200},
        "datasets": [
            {"name": "self", "manifest": str(tmp_path / "manifest.json"), "max_docs": 100},
            {"name": "other", "manifest": other_path, "max_docs": 100},
        ],
    }
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    assert run("clusters", cfg_path) == 0
    report = json.load(open(os.path.join(cfg["output_dir"], "cluster_report.json")))
    assert report["K"] == 8
    assert len(report["tv_matrix"]) == 2
    assert report["tv_matrix"][0][0] == 0.0
    csv_lines = open(os.path.join(cfg["output_dir"], "cluster_histograms.csv")).readlines()
    assert csv_lines[0].strip() == "cluster,self,other"
    assert len(csv_lines) == 9


def test_clusters_too_few_points(tmp_path, capsys):
    cfg, cfg_path, _ = build_workspace(tmp_path, n_shards=1, docs_per_shard=5)
    cfg["clusters"] = {
        "k": 64,
        "fit": {"manifest": str(tmp_path / "manifest.json"), "max_docs": 5},
        "datasets": [],
    }
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    assert run("clusters", cfg_path) == 3


def test_plan_command(tmp_path):
    cfg, cfg_path, _ = build_workspace(tmp_path)
    cfg["plan"] = {
        "steps": 200000,
        "batch_size": 1024,
        "context_len": 1024,
        "model_params": 1.3e9,
        "languages": [
            {"lang": "en", "weight": 0.5},
            {"lang": "fr", "weight": 0.5},
        ],
        "budgets": [
            {"dataset": "en_data", "lang": "en", "available_tokens": 125e9},
            {"dataset": "fw2_fr_p90", "lang": "fr", "available_tokens": 34e9},
        ],
    }
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    assert run("plan", cfg_path) == 0
    report = json.load(open(os.path.join(cfg["output_dir"], "plan_report.json")))
    assert report["total_tokens"] == 209_715_200_000
    assert len(report["rows"]) == 2
    fr = next(r for r in report["rows"] if r["lang"] == "fr")
    assert abs(fr["epochs"] - 3.08) < 0.01


def test_report_command_percentile_table(tmp_path):
    cfg, cfg_path, _ = build_workspace(tmp_path)
    for cmd in ("train-filter", "score"):
        assert run(cmd, cfg_path) == 0
    cfg["report"] = {"scores": [{"name": "syncorpus", "path": cfg["scores"]}]}
    cfg["percentiles"] = [10, 30, 60, 90, 95]
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    assert run("report", cfg_path) == 0
    lines = open(os.path.join(cfg["output_dir"], "percentile_table.csv")).read().splitlines()
    assert lines[0] == "percentile,syncorpus"
    # rows descend by percentile like the reference table layout
    ps = [float(line.split(",")[0]) for line in lines[1:]]
    assert ps == sorted(ps, reverse=True)
    taus = [float(line.split(",")[1]) for line in lines[1:]]
    assert taus == sorted(taus, reverse=True)


# column names that CSV must quote: a comma, a quote, a line break
QUOTED_NAMES = ["a,b", 'say "hi"', "two\nlines"]


def read_csv_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert all(len(row) == len(header) for row in rows)
    return header, rows


def test_report_csv_quotes_names(tmp_path):
    cfg, cfg_path, _ = build_workspace(tmp_path, docs_per_shard=20)
    for cmd in ("train-filter", "score"):
        assert run(cmd, cfg_path) == 0
    cfg["report"] = {"scores": [{"name": n, "path": cfg["scores"]} for n in QUOTED_NAMES]}
    write_config(cfg_path, cfg)
    assert run("report", cfg_path) == 0
    header, rows = read_csv_table(os.path.join(cfg["output_dir"], "percentile_table.csv"))
    assert header == ["percentile", *QUOTED_NAMES]
    assert [row[0] for row in rows] == ["90", "60", "30"]


def test_clusters_csv_quotes_names(tmp_path):
    cfg, cfg_path, _ = build_workspace(tmp_path, docs_per_shard=20)
    manifest = cfg["corpus"]["manifest"]
    cfg["clusters"] = {"k": 4, "fit": {"manifest": manifest},
                       "datasets": [{"name": n, "manifest": manifest} for n in QUOTED_NAMES]}
    write_config(cfg_path, cfg)
    assert run("clusters", cfg_path) == 0
    header, rows = read_csv_table(os.path.join(cfg["output_dir"], "cluster_histograms.csv"))
    assert header == ["cluster", *QUOTED_NAMES]
    assert [row[0] for row in rows] == ["0", "1", "2", "3"]


@pytest.mark.parametrize("name", ["nope/shard.jsonl", "a\ud800.jsonl"])  # a lone surrogate
@pytest.mark.parametrize("command", ["score", "filter"])
def test_missing_shard_names_the_path(tmp_path, capsys, command, name):
    cfg, cfg_path, _ = build_workspace(tmp_path, docs_per_shard=5)
    assert run("train-filter", cfg_path) == 0
    missing = str(tmp_path / name)
    with open(cfg["corpus"]["manifest"], "w") as fh:  # JSON escapes the surrogate
        json.dump({"corpus_name": "c", "lang": "en", "shards": [missing]}, fh)
    cfg["filter"] = {"tau": 0.5}
    write_config(cfg_path, cfg)
    open(cfg["scores"], "w").close()
    assert run(command, cfg_path) == 2
    err = capsys.readouterr().err
    assert "no such shard file" in err and repr(missing) in err


def test_missing_config_exit_code(tmp_path, capsys):
    assert main(["score", "-c", str(tmp_path / "nope.yaml")]) == 2


MALFORMED_INPUTS = {
    # name: (file the fault goes into, its new content, exit code, named key)
    "manifest_without_shards": ("manifest", '{"corpus_name": "c", "lang": "fr"}', 3, "'shards'"),
    "manifest_not_json": ("manifest", "corpus: c\n", 3, None),
    "classifier_without_b": ("classifier", '{"w": [0.5], "dim": 1, "normalize_inputs": true}', 3, "'b'"),
    "classifier_not_json": ("classifier", "w = [0.5]\n", 3, None),
    "manifest_shards_not_a_list": (
        "manifest", '{"corpus_name": "c", "lang": "fr", "shards": 5}', 3, "'shards'"),
    "classifier_w_not_numbers": (
        "classifier", '{"w": "abc", "b": 0.0, "dim": 1, "normalize_inputs": true}', 3, "'w'"),
    "classifier_b_not_a_number": (
        "classifier", '{"w": [0.5], "b": "0.1", "dim": 1, "normalize_inputs": true}', 3, "'b'"),
    "classifier_dim_not_an_integer": (
        "classifier", '{"w": [0.5], "b": 0.0, "dim": "1", "normalize_inputs": true}', 3, "'dim'"),
    "classifier_seed_not_an_integer": (
        "classifier", '{"w": [0.5], "b": 0.0, "dim": 1, "normalize_inputs": true, "seed": "abc"}',
        3, "'seed'"),
    "classifier_l2_lambda_a_list": (
        "classifier", '{"w": [0.5], "b": 0.0, "dim": 1, "normalize_inputs": true, "l2_lambda": [1]}',
        3, "'l2_lambda'"),
    "classifier_normalize_inputs_not_a_bool": (
        "classifier", '{"w": [0.5], "b": 0.0, "dim": 1, "normalize_inputs": "no"}', 3,
        "'normalize_inputs'"),
    "manifest_corpus_name_not_a_string": (
        "manifest", '{"corpus_name": 5, "lang": "fr", "shards": ["a.jsonl"]}', 3, "'corpus_name'"),
    "config_not_yaml": ("config", "seed: [0\nclassifier: {\n", 2, None),
}


INVALID_INPUTS = {
    # name: (file the fault goes into, its new content, the message)
    "classifier_weight_nan": (
        "classifier", '{"w": [NaN], "b": 0.0, "dim": 1, "normalize_inputs": true}',
        "classifier weights contain NaN/Inf"),
    "classifier_w_longer_than_dim": (
        "classifier", '{"w": [0.5, 0.5], "b": 0.0, "dim": 1, "normalize_inputs": true}',
        "weight length (2,) does not match dim 1"),
    "manifest_shards_empty": (
        "manifest", '{"corpus_name": "c", "lang": "fr", "shards": []}',
        "manifest 'c' has no shards"),
}


@pytest.mark.parametrize("fault", list(INVALID_INPUTS))
def test_invalid_input_file_exits_3_with_its_message(tmp_path, capsys, fault):
    target, content, message = INVALID_INPUTS[fault]
    cfg, cfg_path, _ = build_workspace(tmp_path, docs_per_shard=5)
    path = {"manifest": cfg["corpus"]["manifest"], "classifier": cfg["classifier"]}[target]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(content)
    assert run("score", cfg_path) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,fault",
    [("score", fault) for fault in MALFORMED_INPUTS]
    # filter reads no classifier
    + [("filter", fault) for fault in MALFORMED_INPUTS if not fault.startswith("classifier")],
)
def test_malformed_input_file_exits_with_its_code(tmp_path, capsys, command, fault):
    target, content, code, key = MALFORMED_INPUTS[fault]
    cfg, cfg_path, _ = build_workspace(tmp_path)
    cfg["filter"] = {"tau": 0.5}
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    path = {"manifest": cfg["corpus"]["manifest"], "classifier": cfg["classifier"],
            "config": cfg_path}[target]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(content)
    assert run(command, cfg_path) == code
    err = capsys.readouterr().err
    assert path in err
    if key:
        assert key in err


def test_filtered_output_matches_rescoring_oracle(tmp_path):
    """Brute-force check: re-embed and re-score every document."""
    from corpusfilter import classifier as clf_mod
    from corpusfilter.embedding import embed_batch, EmbeddingProviderConfig

    cfg, cfg_path, manifest = build_workspace(tmp_path, n_shards=2, docs_per_shard=100)
    for cmd in ("train-filter", "score", "threshold"):
        assert run(cmd, cfg_path) == 0
    report = json.load(open(os.path.join(cfg["output_dir"], "threshold_report.json")))
    tau = {e["percentile"]: e["tau"] for e in report["estimates"]}[90]
    cfg["filter"] = {"tau": tau, "out_dir": str(tmp_path / "fo")}
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    assert run("filter", cfg_path) == 0

    clf = clf_mod.load_classifier(cfg["classifier"])
    pcfg = EmbeddingProviderConfig(kind="hashed_ngram", dim=64, ngram_range=(2, 4), seed=0)
    kept_ids = set()
    for path in manifest.shard_paths:
        out_path = os.path.join(str(tmp_path / "fo"), os.path.basename(path))
        kept_ids |= {d.id for d in read_shard(out_path)}
    for path in manifest.shard_paths:
        for doc in read_shard(path):
            s = clf_mod.score(clf, embed_batch(pcfg, [doc.text])[0])
            assert (doc.id in kept_ids) == (s > tau), doc.id


def test_filter_rejects_two_shards_of_one_name_before_any_work(tmp_path, capsys):
    # each would be written to the same filtered shard, the second over the first
    cfg, cfg_path, _ = build_workspace(tmp_path, docs_per_shard=5)
    paths, runs = [], []
    for d in "ab":
        (tmp_path / d).mkdir()
        paths.append(str(tmp_path / d / "shard.jsonl"))
        docs = make_docs(5, seed=ord(d), prefix=d)
        write_shard(paths[-1], docs)
        runs.append(("shard.jsonl", [doc.id for doc in docs], [0.9] * len(docs)))
    write_json(cfg["corpus"]["manifest"], {"corpus_name": "c", "lang": "en", "shards": paths})
    corpus_io.write_score_records(cfg["scores"], runs)
    cfg["filter"] = {"tau": 0.5, "out_dir": str(tmp_path / "filtered")}
    write_config(cfg_path, cfg)
    assert run("filter", cfg_path) == 3
    err = capsys.readouterr().err
    assert paths[0] in err and paths[1] in err
    assert not os.path.exists(cfg["filter"]["out_dir"])


@pytest.mark.parametrize("n_shards", [2, 40])
@pytest.mark.parametrize("repeat_in", ["scores", "shards"])
def test_filter_rejects_duplicate_ids_naming_both_shards(tmp_path, capsys, n_shards, repeat_in):
    """An id in the first and the last shard fails the run with exit 3, both
    when two records repeat it and when two documents do."""
    cfg, cfg_path, manifest = build_workspace(tmp_path, n_shards=n_shards, docs_per_shard=5)
    os.makedirs(cfg["output_dir"], exist_ok=True)
    first, last = manifest.shard_paths[0], manifest.shard_paths[-1]
    a, b = os.path.basename(first), os.path.basename(last)
    if repeat_in == "scores":
        records = [("x", 0.9, a), ("x", 0.1, b)]
    else:
        repeated = next(iter(read_shard(first))).id
        docs = list(read_shard(last))
        docs[-1].id = repeated
        write_shard(last, docs)
        records = [(d.id, 0.9, os.path.basename(path))
                   for path in manifest.shard_paths for d in read_shard(path)]
    with open(cfg["scores"], "w") as fh:
        for doc_id, score, shard in records:
            fh.write(json.dumps({"doc_id": doc_id, "score": score, "shard": shard}) + "\n")
    cfg["filter"] = {"tau": 0.5}
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    assert run("filter", cfg_path) == 3
    err = capsys.readouterr().err
    assert a in err and b in err
    assert not os.path.exists(os.path.join(cfg["output_dir"], "filter_stats.json"))


def test_filter_confirms_colliding_id_hashes_once_per_run(tmp_path, monkeypatch):
    """Ids that only share a hash are read back once, after the last shard,
    and the run writes what it writes when no hash collides."""
    cfg, cfg_path, manifest = build_workspace(tmp_path, n_shards=50, docs_per_shard=4)
    assert run("train-filter", cfg_path) == 0
    assert run("score", cfg_path) == 0
    cfg["filter"] = {"tau": 0.5, "out_dir": cfg["filter"]["out_dir"]}
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    names = [os.path.basename(p) for p in manifest.shard_paths]
    artefacts = [os.path.join(cfg["filter"]["out_dir"], n) for n in names]
    artefacts.append(os.path.join(cfg["output_dir"], "filter_stats.json"))

    def written():
        out = {}
        for path in artefacts:
            with open(path, "rb") as fh:
                out[path] = fh.read()
        return out

    assert run("filter", cfg_path) == 0
    expected = written()
    calls = []
    load_scores = thresholds.load_scores
    monkeypatch.setattr(thresholds, "load_scores",
                        lambda path: calls.append(path) or load_scores(path))
    monkeypatch.setattr(thresholds, "hash", lambda _: 7, raising=False)
    for path in artefacts:
        os.remove(path)
    assert run("filter", cfg_path) == 0
    assert calls == [cfg["scores"]]
    assert written() == expected


def test_score_records_after_the_last_document_are_ignored(tmp_path):
    cfg, cfg_path, manifest = build_workspace(tmp_path, docs_per_shard=20)
    cfg["filter"] = {"tau": 0.5, "out_dir": str(tmp_path / "filtered")}
    write_config(cfg_path, cfg)
    artefacts = [os.path.join(cfg["filter"]["out_dir"], os.path.basename(path))
                 for path in manifest.shard_paths]
    artefacts.append(os.path.join(cfg["output_dir"], "filter_stats.json"))

    def filtered():
        assert run("filter", cfg_path) == 0
        return [open(path, "rb").read() for path in artefacts]

    for command in ("train-filter", "score"):
        assert run(command, cfg_path) == 0
    expected = filtered()
    with open(cfg["scores"], "ab") as fh:
        fh.write(b'{"doc_id": "extra", "score": 0.9, "shard": "shard_001.jsonl"}\n{not json\n')
    assert filtered() == expected


def test_score_makes_the_directory_of_the_scores(tmp_path):
    cfg, cfg_path, _ = build_workspace(tmp_path, docs_per_shard=5)
    assert run("train-filter", cfg_path) == 0
    cfg["scores"] = str(tmp_path / "new" / "dir" / "scores.jsonl")
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    assert run("score", cfg_path) == 0
    assert os.path.getsize(cfg["scores"]) > 0
    assert os.path.exists(str(tmp_path / "new" / "dir" / "score_report.json"))


BAD_SCORE_RECORDS = {
    # name: the first score record, as a JSON value or (for bytes) a raw line
    "negative": {"doc_id": "ID", "score": -0.3, "shard": "s"},
    "above_one": {"doc_id": "ID", "score": 1.5, "shard": "s"},
    "nan": {"doc_id": "ID", "score": float("nan"), "shard": "s"},
    "null": {"doc_id": "ID", "score": None, "shard": "s"},
    "bool": {"doc_id": "ID", "score": True, "shard": "s"},
    "numeric_string": {"doc_id": "ID", "score": "0.5", "shard": "s"},
    "no_score": {"doc_id": "ID", "shard": "s"},
    "doc_id_not_a_string": {"doc_id": 5, "score": 0.5, "shard": "s"},
    "not_an_object": ["ID", 0.5],
    "not_json": b"{not json",
}


@pytest.mark.parametrize("command", ["filter", "report"])
@pytest.mark.parametrize("fault", list(BAD_SCORE_RECORDS))
def test_bad_score_record_is_a_data_error(tmp_path, capsys, command, fault):
    cfg, cfg_path, manifest = build_workspace(tmp_path, docs_per_shard=5)
    cfg["filter"] = {"tau": 0.5}
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    ids = [d.id for path in manifest.shard_paths for d in read_shard(path)]
    bad = BAD_SCORE_RECORDS[fault]
    if not isinstance(bad, bytes):
        bad = json.dumps(bad).replace('"ID"', json.dumps(ids[0])).encode()
    os.makedirs(cfg["output_dir"], exist_ok=True)
    with open(cfg["scores"], "wb") as fh:
        fh.write(bad + b"\n")
        for doc_id in ids[1:]:
            fh.write(json.dumps({"doc_id": doc_id, "score": 0.5, "shard": "s"}).encode() + b"\n")
    assert run(command, cfg_path) == 3
    err = capsys.readouterr().err
    assert f"{cfg['scores']}:1:" in err
    if isinstance(BAD_SCORE_RECORDS[fault], dict) and BAD_SCORE_RECORDS[fault]["doc_id"] == "ID":
        assert ids[0] in err


def test_report_write_error_keeps_the_old_report(tmp_path):
    path = tmp_path / "report.json"
    write_json(str(path), {"docs": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(str(path), {"docs": 2, "zz": object()})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["report.json"]


def write_config(cfg_path, cfg):
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(cfg, fh)


PLAN = {"steps": 10, "batch_size": 4, "context_len": 8, "model_params": 100.0,
        "languages": [{"lang": "en", "weight": 1.0}],
        "budgets": [{"dataset": "d", "lang": "en", "available_tokens": 1000.0}]}

BAD_CONFIGS = {
    # name: (command, edit of the build_workspace config, dotted key named)
    "misspelt_top_level": ("score", lambda c: c.update(wokers=2), "wokers"),
    "misspelt_train": ("train-filter", lambda c: c["train"].update(l2_lamda=0.5), "train.l2_lamda"),
    "misspelt_threshold": ("threshold", lambda c: c["threshold"].update(max_doc=5),
                           "threshold.max_doc"),
    "max_docs_not_a_number": ("threshold", lambda c: c["threshold"].update(max_docs="abc"),
                              "threshold.max_docs"),
    "max_epochs_not_a_number": ("train-filter", lambda c: c["train"].update(max_epochs="abc"),
                                "train.max_epochs"),
    "tau_not_a_number": ("filter", lambda c: c["filter"].update(tau="abc"), "filter.tau"),
    "workers_not_a_number": ("score", lambda c: c.update(workers="two"), "workers"),
    "seed_a_fraction": ("score", lambda c: c.update(seed=1.5), "seed"),
    "workers_a_fraction": ("score", lambda c: c.update(workers=2.7), "workers"),
    "seed_a_bool": ("score", lambda c: c.update(seed=True), "seed"),
    "tau_a_bool": ("filter", lambda c: c["filter"].update(tau=False), "filter.tau"),
    "ngram_range_one_value": ("score", lambda c: c["embedding"].update(ngram_range=[2]),
                              "embedding.ngram_range"),
    "ngram_range_a_fraction": ("score", lambda c: c["embedding"].update(ngram_range=[2, 4.5]),
                               "embedding.ngram_range[1]"),
    "embedding_not_a_mapping": ("score", lambda c: c.update(embedding=5), "embedding"),
    "train_not_a_mapping": ("train-filter", lambda c: c.update(train=["x"]), "train"),
    "plan_without_steps": (
        "plan", lambda c: c.update(plan={k: v for k, v in PLAN.items() if k != "steps"}),
        "plan.steps"),
    "report_entry_without_path": ("report", lambda c: c.update(report={"scores": [{"name": "a"}]}),
                                  "report.scores[0].path"),
    "clusters_dataset_without_manifest": (
        "clusters",
        lambda c: c.update(clusters={"k": 2, "fit": {"manifest": c["corpus"]["manifest"]},
                                     "datasets": [{"name": "a"}]}),
        "clusters.datasets[0].manifest"),
    "clusters_k_zero": (
        "clusters",
        lambda c: c.update(clusters={"k": 0, "fit": {"manifest": c["corpus"]["manifest"]}}),
        "clusters.k must be at least 1, not 0"),
    "clusters_k_negative": (
        "clusters",
        lambda c: c.update(clusters={"k": -2, "fit": {"manifest": c["corpus"]["manifest"]}}),
        "clusters.k must be at least 1, not -2"),
    "clusters_max_iters_zero": (
        "clusters",
        lambda c: c.update(clusters={"k": 2, "max_iters": 0,
                                     "fit": {"manifest": c["corpus"]["manifest"]}}),
        "clusters.max_iters must be at least 1, not 0"),
    "n_random_zero": ("threshold", lambda c: c["threshold"].update(strategy="random_files",
                                                                   n_random=0),
                      "threshold.n_random must be at least 1, not 0"),
    "n_random_negative": ("threshold", lambda c: c["threshold"].update(strategy="random_files",
                                                                       n_random=-1),
                          "threshold.n_random must be at least 1, not -1"),
    "max_epochs_zero": ("train-filter", lambda c: c["train"].update(max_epochs=0),
                        "train.max_epochs must be at least 1, not 0"),
    "l2_lambda_negative": ("train-filter", lambda c: c["train"].update(l2_lambda=-1),
                           "train.l2_lambda must be at least 0, not -1.0"),
    "learning_rate_zero": ("train-filter", lambda c: c["train"].update(learning_rate=0),
                           "train.learning_rate must be positive, not 0.0"),
    "tolerance_zero": ("train-filter", lambda c: c["train"].update(tolerance=0),
                       "train.tolerance must be positive, not 0.0"),
    # with a NaN step the line search never ends
    "learning_rate_nan": ("train-filter", lambda c: c["train"].update(learning_rate=math.nan),
                          "train.learning_rate must be positive, not nan"),
    "threshold_max_docs_zero": ("threshold", lambda c: c["threshold"].update(max_docs=0),
                                "threshold.max_docs must be at least 1, not 0"),
    "clusters_fit_max_docs_zero": (
        "clusters",
        lambda c: c.update(clusters={"k": 2, "fit": {"manifest": c["corpus"]["manifest"],
                                                     "max_docs": 0}}),
        "clusters.fit.max_docs must be at least 1, not 0"),
    "clusters_dataset_max_docs_zero": (
        "clusters",
        lambda c: c.update(clusters={"k": 2, "fit": {"manifest": c["corpus"]["manifest"]},
                                     "datasets": [{"name": "a", "manifest": c["corpus"]["manifest"],
                                                   "max_docs": 0}]}),
        "clusters.datasets[0].max_docs must be at least 1, not 0"),
    "workers_zero": ("score", lambda c: c.update(workers=0), "workers must be at least 1, not 0"),
    "embedding_dim_below_8": ("score", lambda c: c["embedding"].update(dim=4),
                              "embedding.dim: hashed embedding dim must be at least 8, not 4"),
    "embedding_dim_zero": ("score", lambda c: c["embedding"].update(dim=0),
                           "embedding.dim must be at least 1, not 0"),
    "embedding_batch_size_zero": ("train-filter", lambda c: c["embedding"].update(batch_size=0),
                                  "embedding.batch_size must be at least 1, not 0"),
    "embedding_truncate_chars_zero": (
        "train-filter", lambda c: c["embedding"].update(truncate_chars=0),
        "embedding.truncate_chars must be at least 1, not 0"),
    "plan_steps_zero": ("plan", lambda c: c.update(plan={**PLAN, "steps": 0}),
                        "plan.steps must be at least 1, not 0"),
    "plan_batch_size_zero": ("plan", lambda c: c.update(plan={**PLAN, "batch_size": 0}),
                             "plan.batch_size must be at least 1, not 0"),
    "plan_context_len_zero": ("plan", lambda c: c.update(plan={**PLAN, "context_len": 0}),
                              "plan.context_len must be at least 1, not 0"),
    "plan_model_params_zero": ("plan", lambda c: c.update(plan={**PLAN, "model_params": 0}),
                               "plan.model_params must be positive, not 0.0"),
    "report_names_repeat": (
        "report", lambda c: c.update(report={"scores": [{"name": "x", "path": c["scores"]}] * 2}),
        "report.scores[1].name repeats 'x'"),
    "clusters_dataset_names_repeat": (
        "clusters",
        lambda c: c.update(clusters={"k": 2, "fit": {"manifest": c["corpus"]["manifest"]},
                                     "datasets": [{"name": "d",
                                                   "manifest": c["corpus"]["manifest"]}] * 2}),
        "clusters.datasets[1].name repeats 'd'"),
    "percentiles_not_a_list": ("threshold", lambda c: c.update(percentiles=5),
                               "percentiles must be a list"),
    "classifier_not_a_string": ("score", lambda c: c.update(classifier=5),
                                "classifier must be a str, not 5"),
    "compare_not_a_bool": ("threshold", lambda c: c["threshold"].update(compare="yes"),
                           "threshold.compare must be a bool, not 'yes'"),
    "plan_language_weight_zero": (
        "plan", lambda c: c.update(plan={**PLAN, "languages": [{"lang": "en", "weight": 0}]}),
        "plan.languages[0].weight must be positive, not 0.0"),
}


@pytest.mark.parametrize("name", list(BAD_CONFIGS))
def test_bad_config_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, name):
    command, edit, key = BAD_CONFIGS[name]
    cfg, cfg_path, _ = build_workspace(tmp_path, docs_per_shard=5)
    edit(cfg)
    write_config(cfg_path, cfg)
    embedded = []
    monkeypatch.setattr(HashedNgramProvider, "embed_batch",
                        lambda self, texts: embedded.append(len(texts)))
    assert run(command, cfg_path) == 2
    assert f"config key {key}" in capsys.readouterr().err
    assert not os.path.exists(cfg["output_dir"])
    assert embedded == []  # the config is checked before any work


CONFIG_ERRORS = {
    # name: (command, the build_workspace config as it is written, the message)
    "root_a_list": ("score", lambda c: [c], "root must be a mapping"),
    "unknown_strategy": ("threshold", lambda c: {**c, "threshold": {"strategy": "median"}},
                         "unknown sampling strategy 'median'"),
    "filter_without_tau_or_report": (
        "filter", lambda c: c,
        "no filter.tau given and no matching threshold_report.json estimate found"),
    "train_without_seed_documents": (
        "train-filter", lambda c: {**c, "train": {"positives": [], "negatives": []}},
        "train section provided no seed documents"),
    "unknown_embedding_kind": (
        "score", lambda c: {**c, "embedding": {**c["embedding"], "kind": "foo"}},
        "config key embedding.kind: unknown provider kind 'foo'"),
    "ngram_range_falling": (
        "score", lambda c: {**c, "embedding": {**c["embedding"], "ngram_range": [3, 2]}},
        "config key embedding.ngram_range [3, 2] is not 1 <= lo <= hi"),
}


@pytest.mark.parametrize("name", list(CONFIG_ERRORS))
def test_config_error_exits_2_with_its_message(tmp_path, capsys, name):
    command, edit, message = CONFIG_ERRORS[name]
    cfg, cfg_path, _ = build_workspace(tmp_path, docs_per_shard=5)
    del cfg["scores"]  # so that the default path under output_dir is used
    write_config(cfg_path, edit(cfg))
    assert run(command, cfg_path) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(cfg["output_dir"])


def clusters_over_a_blank_shard(cfg, tmp_path):
    blank = str(tmp_path / "blank.jsonl")
    with open(blank, "w") as fh:
        fh.write("\n")
    save_manifest(CorpusManifest(corpus_name="b", lang="en", shard_paths=[blank]),
                  str(tmp_path / "blank.json"))
    cfg["clusters"] = {"k": 2, "fit": {"manifest": cfg["corpus"]["manifest"]},
                       "datasets": [{"name": "b", "manifest": str(tmp_path / "blank.json")}]}


def a_corpus_of_one_short_text(cfg, tmp_path):
    shard = str(tmp_path / "short.jsonl")
    write_shard(shard, [Document(id="a", text="5", lang="en", source="s")])
    write_json(cfg["corpus"]["manifest"], {"corpus_name": "c", "lang": "en", "shards": [shard]})


def scores_without_the_first_document(cfg, tmp_path):
    manifest = corpus_io.load_manifest(cfg["corpus"]["manifest"])
    ids = [doc.id for path in manifest.shard_paths for doc in read_shard(path)]
    cfg["scores"] = str(tmp_path / "partial_scores.jsonl")
    corpus_io.write_score_records(cfg["scores"], [("any.jsonl", ids[1:], [0.9] * len(ids[1:]))])
    cfg["filter"] = {"tau": 0.5}  # its out_dir is output_dir/filtered, two new directories


FAILED_COMMANDS = {
    # name: (command, edit of a config whose classifier is trained, exit code, message)
    "score_of_a_text_too_short": ("score", a_corpus_of_one_short_text, 3,
                                  "text '5' has fewer than 2 characters"),
    "filter_of_a_document_without_a_score": ("filter", scores_without_the_first_document, 3,
                                             "no score for document"),
    "threshold_dim_not_the_classifiers": (
        "threshold", lambda c, _: c["embedding"].update(dim=32), 3,
        "provider dim 32 != classifier dim 64"),
    "report_without_scores": ("report", lambda c, _: c.update(report={}), 2, "scores.jsonl"),
    "clusters_dataset_without_documents": ("clusters", clusters_over_a_blank_shard, 3,
                                           "no documents in the shards of"),
}


@pytest.mark.parametrize("name", list(FAILED_COMMANDS))
def test_a_failed_command_makes_no_output_dir(tmp_path, capsys, name):
    command, edit, code, message = FAILED_COMMANDS[name]
    cfg, cfg_path, _ = build_workspace(tmp_path, docs_per_shard=5)
    assert run("train-filter", cfg_path) == 0
    cfg["output_dir"] = str(tmp_path / "new_out")
    del cfg["scores"]  # so that the default path under output_dir is used
    edit(cfg, tmp_path)
    write_config(cfg_path, cfg)
    assert run(command, cfg_path) == code
    assert message in capsys.readouterr().err
    assert not os.path.exists(cfg["output_dir"])


UNMAKEABLE_PATHS = {
    # name: (command, edit that puts an output path under the regular file f)
    "threshold_output_dir_a_file": ("threshold", lambda c, f: c.update(output_dir=f)),
    "report_output_dir_a_file": ("report", lambda c, f: c.update(output_dir=f)),
    "filter_out_dir_a_file": ("filter", lambda c, f: c["filter"].update(out_dir=f)),
    "scores_dir_a_file": ("score", lambda c, f: c.update(scores=f"{f}/scores.jsonl")),
    "scores_dir_under_a_file": ("score", lambda c, f: c.update(scores=f"{f}/sub/scores.jsonl")),
}


@pytest.mark.parametrize("name", list(UNMAKEABLE_PATHS))
def test_an_output_path_that_cannot_be_made_exits_2(tmp_path, capsys, name):
    command, edit = UNMAKEABLE_PATHS[name]
    cfg, cfg_path, _ = build_workspace(tmp_path, docs_per_shard=5)
    for step in ("train-filter", "score"):
        assert run(step, cfg_path) == 0
    blocker = tmp_path / "a_file"
    blocker.write_text("x")
    cfg["filter"]["tau"] = 0.5
    edit(cfg, str(blocker))
    write_config(cfg_path, cfg)
    capsys.readouterr()
    assert run(command, cfg_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err
    assert blocker.read_text() == "x"


def test_hashed_dim_below_8_stops_train_filter_before_any_shard_is_read(tmp_path, capsys,
                                                                      monkeypatch):
    cfg, cfg_path, _ = build_workspace(tmp_path, docs_per_shard=5)
    cfg["embedding"]["dim"] = 4
    write_config(cfg_path, cfg)
    opened = []
    monkeypatch.setattr(corpus_io.ShardStream, "__init__", lambda self, path: opened.append(path))
    assert run("train-filter", cfg_path) == 2
    assert "hashed embedding dim must be at least 8" in capsys.readouterr().err
    assert not os.path.exists(cfg["output_dir"])
    assert opened == []


def test_integral_values_pass_int_keys():
    for value in (3, 3.0, "3"):
        cfg = check_config({"seed": value, "embedding": {"ngram_range": [value, 4.0]}})
        assert cfg["seed"] == 3 and type(cfg["seed"]) is int
        assert cfg["embedding"]["ngram_range"] == (3, 4)


def test_ngram_range_message_gives_the_shape(tmp_path, capsys):
    cfg, cfg_path, _ = build_workspace(tmp_path, docs_per_shard=5)
    cfg["embedding"]["ngram_range"] = [2]
    write_config(cfg_path, cfg)
    assert run("score", cfg_path) == 2
    assert "config key embedding.ngram_range must be a list of 2 int values" in capsys.readouterr().err


def readme_config() -> str:
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    return readme.split("Example config:\n\n```yaml\n", 1)[1].split("```", 1)[0]


def test_readme_example_config_passes_the_checker():
    cfg = check_config(yaml.safe_load(readme_config()))
    # YAML 1.1 reads these as strings; the checker converts them
    assert cfg["plan"]["model_params"] == 1.3e9
    assert cfg["plan"]["budgets"][0]["available_tokens"] == 125e9
    assert cfg["embedding"]["ngram_range"] == (2, 4)
    assert cfg["report"] == {} and cfg["clusters"]["fit"] == {}


@pytest.mark.parametrize("source", ["readme", "build_workspace"])
def test_config_loaders_agree(tmp_path, source):
    if source == "readme":
        path = tmp_path / "config.yaml"
        path.write_text(readme_config())
    else:
        path = build_workspace(tmp_path)[1]
    text = open(path).read()
    assert cli._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert load_config(str(path)) == yaml.load(text, Loader=yaml.SafeLoader)


def test_config_hash_is_of_the_config_as_read(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.yaml").write_text(
        "seed: 0\noutput_dir: out\ntrain: {l2_lambda: 1e-4, max_epochs: 300}\n"
        "plan:\n  steps: 200000\n  batch_size: 1024\n  context_len: 1024\n"
        "  model_params: 1.3e9\n  languages: [{lang: en, weight: 1.0}]\n"
        "  budgets: [{dataset: en_data, lang: en, available_tokens: 125.0e9}]\n"
    )
    assert main(["plan", "-c", "config.yaml", "--workers", "2"]) == 0
    report = json.load(open(tmp_path / "out" / "plan_report.json"))
    assert report["config_hash"] == "0e87ec09d7c30a3a"


@pytest.mark.parametrize("second_shard_docs,code", [(30, 0), (0, 3)])
def test_clusters_sample_runs_on_past_an_empty_first_shard(tmp_path, capsys,
                                                           second_shard_docs, code):
    cfg, cfg_path, _ = build_workspace(tmp_path)
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    with open(a, "w") as fh:
        fh.write("{not json\n" * 3)
    write_shard(b, make_docs(second_shard_docs, seed=9))
    save_manifest(CorpusManifest(corpus_name="c", lang="en", shard_paths=[a, b]),
                  str(tmp_path / "two.json"))
    cfg["clusters"] = {"k": 2, "fit": {"manifest": str(tmp_path / "two.json")}}
    write_config(cfg_path, cfg)
    assert run("clusters", cfg_path) == code
    if code:
        assert "no documents" in capsys.readouterr().err
    else:
        model = json.load(open(os.path.join(cfg["output_dir"], "cluster_model.json")))
        assert model["K"] == 2


BAD_THRESHOLD_REPORTS = {
    "not_json": "{not json",
    "a_list": "[]",
    "estimate_without_percentile": '{"estimates": [{"tau": 0.5}]}',
    "tau_not_a_number": '{"estimates": [{"percentile": 90.0, "tau": "x"}]}',
    "estimates_not_a_list": '{"estimates": 5}',
}


@pytest.mark.parametrize("fault", list(BAD_THRESHOLD_REPORTS))
def test_bad_threshold_report_is_a_data_error(tmp_path, capsys, fault):
    cfg, cfg_path, _ = build_workspace(tmp_path)
    path = os.path.join(cfg["output_dir"], "threshold_report.json")
    os.makedirs(cfg["output_dir"])
    with open(path, "w") as fh:
        fh.write(BAD_THRESHOLD_REPORTS[fault])
    assert run("filter", cfg_path) == 3
    assert path in capsys.readouterr().err


BAD_ANNOTATIONS = {
    "not_json": b"{not json",
    "invalid_utf8": b'{"text": "byte \xff", "score": 3}',
    "not_an_object": b'["t", 3]',
    "no_score": b'{"text": "t"}',
    "no_text": b'{"score": 3}',
    "text_not_a_string": b'{"text": 5, "score": 3}',
    "lone_surrogate": b'{"text": "lone \\ud800", "score": 3}',
    "empty_text": b'{"text": "", "score": 3}',
    "blank_text": b'{"text": " \\t\\n\\u00a0", "score": 3}',
    "score_a_bool": b'{"text": "t", "score": true}',
    "score_out_of_range": b'{"text": "t", "score": 7}',
}


# a line of ASCII whitespace is blank; any other line is a record or a fault
LINE_RULE_CASES = {
    "ascii_whitespace": (b" \t\x0b\x0c\r", True),
    "no_break_space": ("\xa0".encode(), False),
    "line_separator": ("\u2028".encode(), False),
    "file_separator": (b"\x1c", False),
    "byte_order_mark": ("\ufeff".encode(), False),
}


@pytest.mark.parametrize("name", list(LINE_RULE_CASES))
def test_one_blank_line_rule_for_shards_scores_and_annotations(tmp_path, capsys, name):
    line, blank = LINE_RULE_CASES[name]
    cfg, cfg_path, _ = build_workspace(tmp_path, docs_per_shard=5)
    shard, scores, annotations = (str(tmp_path / n) for n in ("s.jsonl", "s.scores", "a.jsonl"))
    records = {
        shard: [json.dumps({"id": i, "text": "some text", "lang": "en", "source": "s"})
                for i in "ab"],
        scores: [json.dumps({"doc_id": i, "score": 0.5}) for i in "ab"],
        annotations: [json.dumps({"text": "some text", "score": s}) for s in (0, 5)],
    }
    for path, (first, last) in records.items():
        with open(path, "wb") as fh:
            fh.write(first.encode() + b"\n" + line + b"\n" + last.encode() + b"\n")

    stream = read_shard(shard)
    assert [d.id for d in stream] == ["a", "b"]
    first_line_no = stream.first_malformed and stream.first_malformed[0]
    assert (stream.malformed, first_line_no) == ((0, None) if blank else (1, 2))

    cfg["report"] = {"scores": [{"name": "s", "path": scores}]}
    cfg["train"]["annotations"] = annotations
    write_config(cfg_path, cfg)
    for command, path in (("report", scores), ("train-filter", annotations)):
        assert run(command, cfg_path) == (0 if blank else 3)
        assert (f"{path}:2:" in capsys.readouterr().err) is not blank


def test_gz_named_score_file_is_plain_jsonl(tmp_path):
    cfg, cfg_path, _ = build_workspace(tmp_path, docs_per_shard=20)
    cfg["scores"] = os.path.join(cfg["output_dir"], "scores.jsonl.gz")
    cfg["filter"] = {"tau": 0.5, "out_dir": str(tmp_path / "filtered")}
    write_config(cfg_path, cfg)
    for command in ("train-filter", "score", "filter", "report"):
        assert run(command, cfg_path) == 0, command
    with open(cfg["scores"], "rb") as fh:
        assert len(fh.read().splitlines()) == 40  # not gzipped
    table = json.load(open(os.path.join(cfg["output_dir"], "percentile_table.json")))
    assert list(table["table"]) == ["scores"]


@pytest.mark.parametrize("fault", list(BAD_ANNOTATIONS))
def test_bad_annotation_line_is_a_data_error(tmp_path, capsys, fault):
    cfg, cfg_path, _ = build_workspace(tmp_path)
    path = str(tmp_path / "ann.jsonl")
    with open(path, "wb") as fh:
        # the blank line is skipped, but still counted in the line numbers
        fh.write(b'{"text": "t", "score": 3}\n\n' + BAD_ANNOTATIONS[fault] + b"\n")
    cfg["train"]["annotations"] = path
    write_config(cfg_path, cfg)
    assert run("train-filter", cfg_path) == 3
    assert f"{path}:3:" in capsys.readouterr().err
