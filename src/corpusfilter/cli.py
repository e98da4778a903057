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
import functools
import hashlib
import itertools
import json
import os
import re
import sys

import numpy as np
import yaml

from . import __version__
from . import classifier as clf_mod
from . import clustering, corpus_io, planner, thresholds
from .corpus_io import FirstFile, RandomFiles, load_manifest, read_shard, write_json
from .embedding import EmbeddingProviderConfig, embed_texts, get_provider
from .errors import ConfigError, DataError, ToolkitError

ENDPOINT_ENV = "CORPUSFILTER_EMBED_ENDPOINT"
TOKEN_ENV = "CORPUSFILTER_EMBED_TOKEN"

# The config format: a key maps to its type, to [type] for a list, to
# (type, type) for a list of exactly two, or to a sub-section, and [{...}] is
# a list of sub-sections. Defaults sit where a value is read; the embedding
# and train ones in their dataclasses.
CONFIG_KEYS = {
    "seed": int, "output_dir": str, "workers": int, "classifier": str, "scores": str,
    "percentiles": [float],
    "embedding": {"kind": str, "dim": int, "endpoint": str, "ngram_range": (int, int), "seed": int,
                  "batch_size": int, "truncate_chars": int},
    "train": {"positives": [str], "negatives": [str], "annotations": str, "l2_lambda": float,
              "max_epochs": int, "learning_rate": float, "tolerance": float},
    "corpus": {"manifest": str},
    "threshold": {"strategy": str, "n_random": int, "max_docs": int, "compare": bool,
                  "percentile": float},
    "filter": {"tau": float, "percentile": float, "out_dir": str},
    "clusters": {"k": int, "max_iters": int, "fit": {"manifest": str, "max_docs": int},
                 "datasets": [{"name": str, "manifest": str, "max_docs": int}]},
    "plan": {"steps": int, "batch_size": int, "context_len": int, "model_params": float,
             "languages": [{"lang": str, "weight": float}],
             "budgets": [{"dataset": str, "lang": str, "available_tokens": float}]},
    "report": {"scores": [{"name": str, "path": str}]},
}
# the least value of a number key (a list entry's without its index), and
# the keys that must be above 0
AT_LEAST = {"workers": 1, "embedding.dim": 1, "embedding.batch_size": 1,
            "embedding.truncate_chars": 1, "threshold.n_random": 1, "threshold.max_docs": 1,
            "clusters.k": 1, "clusters.max_iters": 1, "clusters.fit.max_docs": 1,
            "clusters.datasets.max_docs": 1, "train.max_epochs": 1, "train.l2_lambda": 0,
            "plan.steps": 1, "plan.batch_size": 1, "plan.context_len": 1}
POSITIVE = {"train.learning_rate", "train.tolerance", "plan.model_params",
            "plan.languages.weight"}
# list keys whose entries differ in the given key: each names a column or a histogram
UNIQUE = {"report.scores": "name", "clusters.datasets": "name"}
# the embedding settings that change a vector, and so a score
SCORE_EMBEDDING_KEYS = ("kind", "dim", "ngram_range", "seed", "truncate_chars", "endpoint")
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class Section(dict):
    """A checked config section; reading a key it lacks is a ConfigError."""
    prefix = ""  # the dotted name of the section, with its trailing dot

    def __missing__(self, key: str):
        raise ConfigError(f"config key {self.prefix}{key} is required for this command")


def check_config(value, kind=CONFIG_KEYS, key: str = ""):
    """`value` of the config key `key` checked against its `kind` in CONFIG_KEYS.
    Numbers are converted, not type-checked: YAML 1.1 reads `1e-4` as a string.
    But a bool is not a number, an int key takes no fraction, a key in
    AT_LEAST or POSITIVE takes nothing out of bounds, and no two entries of a
    UNIQUE list share a name. A null value is absent, an absent section is
    empty, a list becomes a tuple."""
    if isinstance(kind, dict):
        value = {} if value is None else value
        if not isinstance(value, dict):
            raise ConfigError(f"config key {key} must be a mapping")
        section = Section()
        section.prefix = f"{key}." if key else ""
        for name in value:
            if name not in kind:
                raise ConfigError(f"unknown config key {section.prefix}{name}")
        for name, sub in kind.items():
            if value.get(name) is not None or isinstance(sub, dict):
                section[name] = check_config(value.get(name), sub, section.prefix + name)
        return section
    if isinstance(kind, (list, tuple)):
        if not isinstance(value, list):
            raise ConfigError(f"config key {key} must be a list")
        if isinstance(kind, tuple) and len(value) != len(kind):
            raise ConfigError(f"config key {key} must be a list of {len(kind)} "
                              f"{kind[0].__name__} values, not {value!r}")
        items = tuple(check_config(v, kind[0], f"{key}[{i}]") for i, v in enumerate(value))
        names = [item.get(UNIQUE[key]) for item in items] if key in UNIQUE else []
        for i, name in enumerate(names):
            if name is not None and name in names[:i]:
                raise ConfigError(f"config key {key}[{i}].{UNIQUE[key]} repeats {name!r}, "
                                  f"the name of entry {names.index(name)}")
        return items
    if kind in (str, bool) and not isinstance(value, kind):
        raise ConfigError(f"config key {key} must be a {kind.__name__}, not {value!r}")
    if kind in (int, float) and isinstance(value, bool):
        raise ConfigError(f"config key {key} must be a number, not {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"config key {key} must be an integer, not {value!r}")
    try:
        value = kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key}: {exc}") from None
    bare = re.sub(r"\[\d+\]", "", key)
    # `not >=`, not `<`, so that NaN is out of bounds too
    if bare in AT_LEAST and not value >= AT_LEAST[bare]:
        raise ConfigError(f"config key {key} must be at least {AT_LEAST[bare]}, not {value}")
    if bare in POSITIVE and not value > 0:
        raise ConfigError(f"config key {key} must be positive, not {value}")
    return value


def load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = yaml.load(fh, Loader=_YAML_LOADER)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path}: root must be a mapping")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, ensure_ascii=False, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def provider_config(cfg: dict) -> EmbeddingProviderConfig:
    emb = {"seed": cfg.get("seed", 0), **cfg["embedding"]}
    if ENDPOINT_ENV in os.environ:
        emb["endpoint"] = os.environ[ENDPOINT_ENV]
    if TOKEN_ENV in os.environ:
        emb["headers"] = {"Authorization": f"Bearer {os.environ[TOKEN_ENV]}"}
    return EmbeddingProviderConfig(**emb)


def _out_dir(cfg: dict) -> str:
    return cfg.get("output_dir", "out")


def _load_seed_documents(train_cfg: dict) -> tuple[list[str], list[int], str]:
    """Texts, labels and provenance; pops the seed-document keys from `train_cfg`."""
    texts: list[str] = []
    labels: list[int] = []
    origins: list[str] = []
    for label, key in ((1, "positives"), (0, "negatives")):
        for path in train_cfg.pop(key, ()):
            for doc in read_shard(path):
                texts.append(doc.text)
                labels.append(label)
            origins.append(f"{key}:{os.path.basename(path)}")
    ann_path = train_cfg.pop("annotations", None)
    if ann_path:
        for text, y in clf_mod.binarize_fwe_annotations(corpus_io.read_annotations(ann_path)):
            texts.append(text)
            labels.append(y)
        origins.append(f"annotations:{os.path.basename(ann_path)}")
    if not texts:
        raise ConfigError("train section provided no seed documents")
    return texts, labels, ",".join(origins)


def cmd_train_filter(cfg: dict, stamp: dict) -> int:
    provider = get_provider(provider_config(cfg))  # its checks come before any shard is read
    train_cfg = dict(cfg["train"])
    texts, labels, provenance = _load_seed_documents(train_cfg)
    tconf = clf_mod.TrainConfig(**train_cfg, seed=cfg.get("seed", 0))
    X = embed_texts(provider, texts)
    clf = clf_mod.train_logistic(X, labels, tconf)
    clf.trained_on = provenance

    out = _out_dir(cfg)
    clf_path = cfg.get("classifier") or os.path.join(out, "classifier.json")
    clf_mod.save_classifier(clf, clf_path)
    report = {
        **stamp,
        "classifier": clf_path,
        "trained_on": provenance,
        "train_loss": clf.train_loss,
        "eval": clf_mod.evaluate(clf, X, labels),
    }
    write_json(os.path.join(out, "train_report.json"), report)
    print(f"classifier -> {clf_path} (train accuracy {report['eval']['accuracy']:.4f})")
    return 0


def _scores_path(cfg: dict) -> str:
    return cfg.get("scores") or os.path.join(_out_dir(cfg), "scores.jsonl")


def _score_digests(cfg: dict, pcfg, manifest, scores_path: str) -> dict[str, str]:
    """The sha256 digests that tie a score file to what its bits depend on:
    the classifier file, the embedding settings that change a vector, the
    corpus name and shard paths, and the score file's name and bytes."""
    settings = {"embedding": [getattr(pcfg, key) for key in SCORE_EMBEDDING_KEYS],
                "manifest": [manifest.corpus_name, manifest.shard_paths]}
    digests = {name: hashlib.sha256(json.dumps(value).encode()).hexdigest()
               for name, value in settings.items()}
    digests["classifier"] = corpus_io.file_sha256(cfg["classifier"])
    name = os.path.basename(scores_path).encode()
    digests["scores"] = corpus_io.file_sha256(scores_path, prefix=name + b"\0")
    return digests


def _score_report_path(scores_path: str) -> str:
    return os.path.join(os.path.dirname(scores_path), "score_report.json")


def cmd_score(cfg: dict, stamp: dict) -> int:
    pcfg = provider_config(cfg)  # its checks come before any file is read
    manifest = load_manifest(cfg["corpus"]["manifest"])
    clf = clf_mod.load_classifier(cfg["classifier"])
    out_path = _scores_path(cfg)
    count = thresholds.score_corpus(manifest, pcfg, clf, out_path, workers=cfg.get("workers", 1))
    write_json(_score_report_path(out_path),
               {**stamp, "digests": _score_digests(cfg, pcfg, manifest, out_path)})
    print(f"scored {count} documents -> {out_path}")
    return 0


def _scores_are_this_runs(cfg: dict, pcfg, manifest, scores_path: str) -> bool:
    """Whether the score file has a score report whose digests are this run's."""
    report_path = _score_report_path(scores_path)
    if not (os.path.exists(scores_path) and os.path.exists(report_path)):
        return False
    digests = _score_digests(cfg, pcfg, manifest, scores_path)
    report = corpus_io.load_json_object(report_path, "score report",
                                        {"digests": dict.fromkeys(digests, str)})
    return report["digests"] == digests


def _threshold_report_path(cfg: dict) -> str:
    return os.path.join(_out_dir(cfg), "threshold_report.json")


def cmd_threshold(cfg: dict, stamp: dict) -> int:
    pcfg = provider_config(cfg)  # its checks come before any file is read
    manifest = load_manifest(cfg["corpus"]["manifest"])
    th_cfg = cfg["threshold"]
    seed = cfg.get("seed", 0)
    first, rand = FirstFile(), RandomFiles(n=th_cfg.get("n_random", 10), seed=seed)
    name = th_cfg.get("strategy", "first_file")
    strategy = {"first_file": first, "random_files": rand}.get(name)
    if strategy is None:
        raise ConfigError(f"unknown sampling strategy {name!r}")
    percentiles = cfg.get("percentiles") or thresholds.PERCENTILE_PRESETS
    # the estimate's sample is one of the comparison's two, and is scored once
    samples = [strategy, first, rand] if th_cfg.get("compare") else [strategy]
    max_docs = th_cfg.get("max_docs", 100_000)
    scores_path = _scores_path(cfg)
    if _scores_are_this_runs(cfg, pcfg, manifest, scores_path):
        scores = thresholds.recorded_sample_scores(manifest, scores_path, samples, max_docs)
    else:
        clf = clf_mod.load_classifier(cfg["classifier"])
        scores = thresholds.sample_scores(manifest, pcfg, clf, samples, max_docs)
    estimates = thresholds.thresholds_from_scores(
        scores[strategy], list(percentiles), strategy, manifest.corpus_name
    )
    report = {
        **stamp,
        "corpus_name": manifest.corpus_name,
        "estimates": [vars(e) for e in estimates],
    }
    if th_cfg.get("compare"):
        report["strategy_comparison"] = thresholds.compare_scores(
            scores[first], scores[rand], th_cfg.get("percentile", 90.0)
        )
    write_json(_threshold_report_path(cfg), report)
    for e in estimates:
        print(f"p{e.percentile:g}: tau={e.tau:.6f} (n={e.sample_size}, {e.strategy})")
    return 0


def _resolve_tau(cfg: dict) -> float:
    f_cfg = cfg["filter"]
    if "tau" in f_cfg:
        return f_cfg["tau"]
    report_path = _threshold_report_path(cfg)
    percentile = f_cfg.get("percentile", 90.0)
    if os.path.exists(report_path):
        report = corpus_io.load_json_object(report_path, "threshold report",
                                            {"estimates": [{"percentile": float, "tau": float}]})
        for e in report["estimates"]:
            if abs(e["percentile"] - percentile) < 1e-9:
                return float(e["tau"])
    raise ConfigError(
        "no filter.tau given and no matching threshold_report.json estimate found"
    )


def cmd_filter(cfg: dict, stamp: dict) -> int:
    manifest = load_manifest(cfg["corpus"]["manifest"])
    tau = _resolve_tau(cfg)
    out_dir = cfg["filter"].get("out_dir") or os.path.join(_out_dir(cfg), "filtered")
    stats = thresholds.apply_filter(manifest, _scores_path(cfg), tau, out_dir)
    report = {**stamp, "corpus_name": manifest.corpus_name, **vars(stats)}
    write_json(os.path.join(_out_dir(cfg), "filter_stats.json"), report)
    print(
        f"kept {stats.docs_out}/{stats.docs_in} docs "
        f"(retention {stats.retention:.4f}) at tau={tau:.6f} -> {out_dir}"
    )
    return 0


def _embed_manifest_sample(manifest_path: str, pcfg, max_docs: int) -> np.ndarray:
    """Embeddings of the first `max_docs` documents of the manifest's shards."""
    shards = load_manifest(manifest_path).shard_paths
    docs = itertools.chain.from_iterable(read_shard(path) for path in shards)
    texts = [doc.text for doc in itertools.islice(docs, max_docs)]
    if not texts:
        raise DataError(f"no documents in the shards of {manifest_path}")
    return embed_texts(get_provider(pcfg), texts)


def cmd_clusters(cfg: dict, stamp: dict) -> int:
    cl_cfg = cfg["clusters"]
    pcfg = provider_config(cfg)
    fit_cfg = cl_cfg["fit"]
    K = cl_cfg.get("k", 64)
    # read every dataset entry before anything is embedded
    datasets = [(e["name"], e["manifest"], e.get("max_docs", 10_000))
                for e in cl_cfg.get("datasets", ())]
    X = _embed_manifest_sample(fit_cfg["manifest"], pcfg, fit_cfg.get("max_docs", 200_000))
    model = clustering.fit_balanced_kmeans(
        X, K, seed=cfg.get("seed", 0), max_iters=cl_cfg.get("max_iters", 50)
    )
    # every dataset is embedded before the first artefact is written
    histograms = [
        clustering.histogram_over_clusters(model, _embed_manifest_sample(path, pcfg, n), name)
        for name, path, n in datasets
    ]
    out = _out_dir(cfg)
    clustering.save_cluster_model(model, os.path.join(out, "cluster_model.json"))
    names = [h.dataset_name for h in histograms]
    tv = [
        [clustering.histogram_distance(a, b) for b in histograms] for a in histograms
    ]
    report = {
        **stamp,
        "K": K,
        "wcss_history": model.wcss_history_,
        "datasets": names,
        "tv_matrix": tv,
        "histograms": {
            h.dataset_name: {"counts": h.counts.tolist(), "total": h.total}
            for h in histograms
        },
    }
    write_json(os.path.join(out, "cluster_report.json"), report)

    # plot-ready CSV: one row per cluster, one column per dataset
    csv_path = os.path.join(out, "cluster_histograms.csv")
    corpus_io.write_csv(csv_path, [["cluster", *names]] + [
        [j, *(int(h.counts[j]) for h in histograms)] for j in range(K)])
    print(f"fitted K={K} clusters; histograms -> {csv_path}")
    return 0


def cmd_plan(cfg: dict, stamp: dict) -> int:
    p_cfg = cfg["plan"]
    plan = planner.TrainingPlan(
        steps=p_cfg["steps"],
        batch_size=p_cfg["batch_size"],
        context_len=p_cfg["context_len"],
        languages=[
            planner.LanguageWeight(lang=e["lang"], weight=e["weight"])
            for e in p_cfg["languages"]
        ],
        model_params=p_cfg["model_params"],
    )
    rows = planner.plan_mix(plan, p_cfg.get("budgets", ()))
    total = planner.tokens_for_steps(plan.steps, plan.batch_size, plan.context_len)
    report = {
        **stamp,
        "total_tokens": total,
        "chinchilla_multiple": planner.chinchilla_multiple(total, plan.model_params),
        "rows": [vars(r) for r in rows],
    }
    write_json(os.path.join(_out_dir(cfg), "plan_report.json"), report)
    print(f"total tokens: {total:,} ({report['chinchilla_multiple']:.2f}x chinchilla)")
    for r in rows:
        flag = " WARN>10ep" if r.warn else (" advisory>4ep" if r.advisory else "")
        print(
            f"  {r.dataset} [{r.lang}] requires {r.required_tokens/1e9:.2f}B "
            f"of {r.available_tokens/1e9:.2f}B available -> {r.epochs:.2f} epochs{flag}"
        )
    return 0


def cmd_report(cfg: dict, stamp: dict) -> int:
    """Percentile/score table across score files, one column per corpus."""
    entries = cfg["report"].get("scores") or [{"name": "scores", "path": _scores_path(cfg)}]
    percentiles = cfg.get("percentiles") or (10.0, 30.0, 40.0, 60.0, 70.0, 90.0, 95.0)
    columns = {}
    for e in entries:
        taus = thresholds.percentile_thresholds(thresholds.load_scores(e["path"]), percentiles)
        columns[e["name"]] = {f"{p:g}": tau for p, tau in zip(percentiles, taus)}
    report = {**stamp, "percentiles": list(percentiles), "table": columns}
    write_json(os.path.join(_out_dir(cfg), "percentile_table.json"), report)

    csv_path = os.path.join(_out_dir(cfg), "percentile_table.csv")
    corpus_io.write_csv(csv_path, [["percentile", *columns]] + [
        [f"{p:g}", *(f"{col[f'{p:g}']:.6f}" for col in columns.values())]
        for p in sorted(percentiles, reverse=True)])
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


@functools.cache
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
        raw = load_config(args.config)
        for key in ("seed", "output_dir", "workers"):
            val = getattr(args, key, None)
            if val is not None:
                raw[key] = val
        cfg = check_config(raw)
        # hashed as read, so that every report keeps its bytes
        stamp = {"config_hash": config_hash(raw), "seed": cfg.get("seed", 0),
                 "toolkit_version": __version__}
        return COMMANDS[args.command](cfg, stamp)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (FileNotFoundError, FileExistsError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
