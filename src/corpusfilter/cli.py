"""Command-line pipeline driver.

Subcommands compose the library modules over a YAML config file:

    train-filter  train the quality classifier from labeled seed shards
    score         score a corpus, one record per document
    threshold     estimate percentile thresholds from a sample
    filter        write filtered shards given scores and a threshold
    clusters      balanced k-means diagnostics across datasets
    plan          token-budget table for a training mixture
    report        percentile/score table for one or more score files

Every artifact embeds the config hash, the seed, and the toolkit version,
so identical config and seed reproduce identical bytes (with the hashed
embedding provider).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np
import yaml

from . import __version__
from . import classifier as clf_mod
from . import clustering, planner, thresholds
from .corpus_io import FirstFile, RandomFiles, atomic_write, load_manifest, read_shard
from .embedding import EmbeddingProviderConfig, embed_texts, get_provider
from .errors import ConfigError, ToolkitError

ENDPOINT_ENV = "CORPUSFILTER_EMBED_ENDPOINT"
TOKEN_ENV = "CORPUSFILTER_EMBED_TOKEN"


def load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path}: root must be a mapping")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, ensure_ascii=False, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _stamp(cfg: dict) -> dict:
    return {
        "config_hash": config_hash(cfg),
        "seed": int(cfg.get("seed", 0)),
        "toolkit_version": __version__,
    }


def _write_report(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with atomic_write(path) as fh:
        json.dump(payload, fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")


def provider_config(cfg: dict) -> EmbeddingProviderConfig:
    emb = dict(cfg.get("embedding") or {})
    if ENDPOINT_ENV in os.environ:
        emb["endpoint"] = os.environ[ENDPOINT_ENV]
    headers = {}
    if TOKEN_ENV in os.environ:
        headers["Authorization"] = f"Bearer {os.environ[TOKEN_ENV]}"
    try:
        return EmbeddingProviderConfig(
            kind=emb.get("kind", "hashed_ngram"),
            dim=int(emb.get("dim", 384)),
            endpoint=emb.get("endpoint"),
            ngram_range=tuple(emb.get("ngram_range", (2, 4))),
            seed=int(emb.get("seed", cfg.get("seed", 0))),
            batch_size=int(emb.get("batch_size", 256)),
            truncate_chars=int(emb.get("truncate_chars", 2048)),
            headers=headers,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad embedding config: {exc}") from exc


def _out_dir(cfg: dict) -> str:
    out = cfg.get("output_dir", "out")
    os.makedirs(out, exist_ok=True)
    return out


def _load_seed_documents(train_cfg: dict) -> tuple[list[str], list[int], str]:
    texts: list[str] = []
    labels: list[int] = []
    origins: list[str] = []
    for label, key in ((1, "positives"), (0, "negatives")):
        for path in train_cfg.get(key, []) or []:
            for doc in read_shard(path):
                texts.append(doc.text)
                labels.append(label)
            origins.append(f"{key}:{os.path.basename(path)}")
    ann_path = train_cfg.get("annotations")
    if ann_path:
        with open(ann_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        for text, y in clf_mod.binarize_fwe_annotations(records):
            texts.append(text)
            labels.append(y)
        origins.append(f"annotations:{os.path.basename(ann_path)}")
    if not texts:
        raise ConfigError("train section provided no seed documents")
    return texts, labels, ",".join(origins)


def cmd_train_filter(cfg: dict) -> int:
    train_cfg = cfg.get("train") or {}
    if "batch_size" in train_cfg:
        raise ConfigError("train.batch_size is not supported: the classifier trains full-batch")
    texts, labels, provenance = _load_seed_documents(train_cfg)
    pcfg = provider_config(cfg)
    provider = get_provider(pcfg)
    X = embed_texts(provider, texts)
    tconf = clf_mod.TrainConfig(
        l2_lambda=float(train_cfg.get("l2_lambda", 1e-4)),
        max_epochs=int(train_cfg.get("max_epochs", 500)),
        learning_rate=float(train_cfg.get("learning_rate", 1.0)),
        tolerance=float(train_cfg.get("tolerance", 1e-6)),
        seed=int(cfg.get("seed", 0)),
    )
    clf = clf_mod.train_logistic(X, labels, tconf)
    clf.trained_on = provenance

    out = _out_dir(cfg)
    clf_path = cfg.get("classifier") or os.path.join(out, "classifier.json")
    clf_mod.save_classifier(clf, clf_path)
    report = {
        **_stamp(cfg),
        "classifier": clf_path,
        "trained_on": provenance,
        "train_loss": clf.train_loss,
        "eval": clf_mod.evaluate(clf, X, labels),
    }
    _write_report(os.path.join(out, "train_report.json"), report)
    print(f"classifier -> {clf_path} (train accuracy {report['eval']['accuracy']:.4f})")
    return 0


def _require(cfg: dict, key: str):
    if key not in cfg or cfg[key] is None:
        raise ConfigError(f"config key {key!r} is required for this command")
    return cfg[key]


def _scores_path(cfg: dict) -> str:
    return cfg.get("scores") or os.path.join(_out_dir(cfg), "scores.jsonl")


def cmd_score(cfg: dict) -> int:
    manifest = load_manifest(_require(cfg.get("corpus") or {}, "manifest"))
    clf = clf_mod.load_classifier(_require(cfg, "classifier"))
    pcfg = provider_config(cfg)
    out_path = _scores_path(cfg)
    count = thresholds.score_corpus(
        manifest, pcfg, clf, out_path, workers=int(cfg.get("workers", 1))
    )
    print(f"scored {count} documents -> {out_path}")
    return 0


def _strategy_from(th_cfg: dict, seed: int):
    name = th_cfg.get("strategy", "first_file")
    if name == "first_file":
        return FirstFile()
    if name == "random_files":
        return RandomFiles(n=int(th_cfg.get("n_random", 10)), seed=seed)
    raise ConfigError(f"unknown sampling strategy {name!r}")


def cmd_threshold(cfg: dict) -> int:
    manifest = load_manifest(_require(cfg.get("corpus") or {}, "manifest"))
    clf = clf_mod.load_classifier(_require(cfg, "classifier"))
    pcfg = provider_config(cfg)
    th_cfg = cfg.get("threshold") or {}
    seed = int(cfg.get("seed", 0))
    strategy = _strategy_from(th_cfg, seed)
    max_docs = int(th_cfg.get("max_docs", 100_000))
    percentiles = cfg.get("percentiles") or list(thresholds.PERCENTILE_PRESETS)

    estimates = thresholds.estimate_thresholds(
        manifest, pcfg, clf, [float(p) for p in percentiles], strategy, max_docs
    )
    report = {
        **_stamp(cfg),
        "corpus_name": manifest.corpus_name,
        "estimates": [vars(e) for e in estimates],
    }
    if th_cfg.get("compare"):
        report["strategy_comparison"] = thresholds.compare_sampling_strategies(
            manifest,
            pcfg,
            clf,
            float(th_cfg.get("percentile", 90)),
            n_random=int(th_cfg.get("n_random", 10)),
            seed=seed,
            max_docs=max_docs,
        )
    out = os.path.join(_out_dir(cfg), "threshold_report.json")
    _write_report(out, report)
    for e in estimates:
        print(f"p{e.percentile:g}: tau={e.tau:.6f} (n={e.sample_size}, {e.strategy})")
    return 0


def _resolve_tau(cfg: dict) -> float:
    f_cfg = cfg.get("filter") or {}
    if f_cfg.get("tau") is not None:
        return float(f_cfg["tau"])
    report_path = os.path.join(_out_dir(cfg), "threshold_report.json")
    percentile = float(f_cfg.get("percentile", 90))
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        for e in report.get("estimates", []):
            if abs(float(e["percentile"]) - percentile) < 1e-9:
                return float(e["tau"])
    raise ConfigError(
        "no filter.tau given and no matching threshold_report.json estimate found"
    )


def cmd_filter(cfg: dict) -> int:
    manifest = load_manifest(_require(cfg.get("corpus") or {}, "manifest"))
    tau = _resolve_tau(cfg)
    f_cfg = cfg.get("filter") or {}
    out_dir = f_cfg.get("out_dir") or os.path.join(_out_dir(cfg), "filtered")
    stats = thresholds.apply_filter(manifest, _scores_path(cfg), tau, out_dir)
    report = {**_stamp(cfg), "corpus_name": manifest.corpus_name, **vars(stats)}
    _write_report(os.path.join(_out_dir(cfg), "filter_stats.json"), report)
    print(
        f"kept {stats.docs_out}/{stats.docs_in} docs "
        f"(retention {stats.retention:.4f}) at tau={tau:.6f} -> {out_dir}"
    )
    return 0


def _embed_manifest_sample(manifest_path: str, pcfg, max_docs: int) -> np.ndarray:
    from .corpus_io import sample_documents

    manifest = load_manifest(manifest_path)
    docs = sample_documents(manifest, FirstFile(), max_docs=max_docs)
    # spill over into remaining shards when the first one is too small
    if len(docs) < max_docs and len(manifest.shard_paths) > 1:
        for path in manifest.shard_paths[1:]:
            for doc in read_shard(path):
                docs.append(doc)
                if len(docs) >= max_docs:
                    break
            if len(docs) >= max_docs:
                break
    provider = get_provider(pcfg)
    return embed_texts(provider, [d.text for d in docs])


def cmd_clusters(cfg: dict) -> int:
    cl_cfg = cfg.get("clusters") or {}
    pcfg = provider_config(cfg)
    fit_cfg = cl_cfg.get("fit") or {}
    K = int(cl_cfg.get("k", 64))
    X = _embed_manifest_sample(
        _require(fit_cfg, "manifest"), pcfg, int(fit_cfg.get("max_docs", 200_000))
    )
    model = clustering.fit_balanced_kmeans(
        X, K, seed=int(cfg.get("seed", 0)), max_iters=int(cl_cfg.get("max_iters", 50))
    )
    out = _out_dir(cfg)
    clustering.save_cluster_model(model, os.path.join(out, "cluster_model.json"))

    histograms = []
    for entry in cl_cfg.get("datasets", []) or []:
        Xd = _embed_manifest_sample(
            entry["manifest"], pcfg, int(entry.get("max_docs", 10_000))
        )
        histograms.append(
            clustering.histogram_over_clusters(model, Xd, entry["name"])
        )

    names = [h.dataset_name for h in histograms]
    tv = [
        [clustering.histogram_distance(a, b) for b in histograms] for a in histograms
    ]
    report = {
        **_stamp(cfg),
        "K": K,
        "wcss_history": model.wcss_history_,
        "datasets": names,
        "tv_matrix": tv,
        "histograms": {
            h.dataset_name: {"counts": h.counts.tolist(), "total": h.total}
            for h in histograms
        },
    }
    _write_report(os.path.join(out, "cluster_report.json"), report)

    # plot-ready CSV: one row per cluster, one column per dataset
    csv_path = os.path.join(out, "cluster_histograms.csv")
    with atomic_write(csv_path) as fh:
        fh.write("cluster," + ",".join(names) + "\n")
        for j in range(K):
            fh.write(
                f"{j}," + ",".join(str(int(h.counts[j])) for h in histograms) + "\n"
            )
    print(f"fitted K={K} clusters; histograms -> {csv_path}")
    return 0


def cmd_plan(cfg: dict) -> int:
    p_cfg = _require(cfg, "plan")
    plan = planner.TrainingPlan(
        steps=int(p_cfg["steps"]),
        batch_size=int(p_cfg["batch_size"]),
        context_len=int(p_cfg["context_len"]),
        languages=[
            planner.LanguageWeight(lang=e["lang"], weight=float(e["weight"]))
            for e in p_cfg["languages"]
        ],
        model_params=float(p_cfg["model_params"]),
    )
    rows = planner.plan_mix(plan, p_cfg.get("budgets", []))
    total = planner.tokens_for_steps(plan.steps, plan.batch_size, plan.context_len)
    report = {
        **_stamp(cfg),
        "total_tokens": total,
        "chinchilla_multiple": planner.chinchilla_multiple(total, plan.model_params),
        "rows": [vars(r) for r in rows],
    }
    _write_report(os.path.join(_out_dir(cfg), "plan_report.json"), report)
    print(f"total tokens: {total:,} ({report['chinchilla_multiple']:.2f}x chinchilla)")
    for r in rows:
        flag = " WARN>10ep" if r.warn else (" advisory>4ep" if r.advisory else "")
        print(
            f"  {r.dataset} [{r.lang}] requires {r.required_tokens/1e9:.2f}B "
            f"of {r.available_tokens/1e9:.2f}B available -> {r.epochs:.2f} epochs{flag}"
        )
    return 0


def cmd_report(cfg: dict) -> int:
    """Percentile/score table across score files, one column per corpus."""
    r_cfg = cfg.get("report") or {}
    entries = r_cfg.get("scores") or [{"name": "scores", "path": _scores_path(cfg)}]
    percentiles = cfg.get("percentiles") or [10, 30, 40, 60, 70, 90, 95]
    columns = {}
    for e in entries:
        values = list(thresholds.load_scores(e["path"]).values())
        columns[e["name"]] = {
            f"{float(p):g}": thresholds.estimate_percentile_threshold(values, float(p))
            for p in percentiles
        }
    report = {**_stamp(cfg), "percentiles": [float(p) for p in percentiles], "table": columns}
    out = os.path.join(_out_dir(cfg), "percentile_table.json")
    _write_report(out, report)

    csv_path = os.path.join(_out_dir(cfg), "percentile_table.csv")
    names = list(columns)
    with atomic_write(csv_path) as fh:
        fh.write("percentile," + ",".join(names) + "\n")
        for p in sorted((float(p) for p in percentiles), reverse=True):
            fh.write(
                f"{p:g},"
                + ",".join(f"{columns[n][f'{p:g}']:.6f}" for n in names)
                + "\n"
            )
    print(f"percentile table -> {csv_path}")
    return 0


COMMANDS = {
    "train-filter": cmd_train_filter,
    "score": cmd_score,
    "threshold": cmd_threshold,
    "filter": cmd_filter,
    "clusters": cmd_clusters,
    "plan": cmd_plan,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corpusfilter",
        description="Train a quality classifier and filter pretraining corpora.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=True, help="YAML config file")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--output-dir", help="override config output_dir")
        p.add_argument("--workers", type=int, help="override worker count")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        for key in ("seed", "output_dir", "workers"):
            val = getattr(args, key.replace("-", "_"), None)
            if val is not None:
                cfg[key] = val
        return COMMANDS[args.command](cfg)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
