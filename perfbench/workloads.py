"""The benchmark's workloads: seeded inputs, the program's one-time work, one
pass of the program, and the checks on that pass.

The seed picks the content of every input. The amount of work does not
depend on it: document counts, lengths and languages per shard, and the
number of points per dataset, are fixed, so passes cost the same on every
seed. The program is reached only through `corpusfilter.cli.main` and the
public functions of its library modules.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil

import numpy as np

import checks
from checks import require

LANGS = ("en", "fr", "de", "zh")
# high- and low-quality word pools per language; fr/de add 2-byte UTF-8,
# zh is 3-byte
WORDS = {
    "en": (
        "theory question answer explain evidence research method analysis result "
        "experiment measure observe compare conclude science detail",
        "click buy free cheap deal winner prize casino offer bonus sale subscribe "
        "discount promo limited jackpot luck win now urgent",
    ),
    "fr": (
        "théorie question réponse expliquer preuve recherche méthode analyse "
        "résultat expérience mesurer observer comparer conclure science détail",
        "cliquez acheter gratuit pas cher offre gagnant prix casino bonus soldes "
        "abonnez réduction promo limité jackpot chance gagnez maintenant urgent",
    ),
    "de": (
        "Theorie Frage Antwort erklären Beweis Forschung Methode Analyse Ergebnis "
        "Experiment messen beobachten vergleichen schließen Wissenschaft Einzelheit",
        "klicken kaufen gratis billig Angebot Gewinner Preis Kasino Bonus Rabatt "
        "abonnieren günstig Aktion begrenzt Jackpot Glück gewinnen jetzt dringend",
    ),
    "zh": (
        "理论 问题 答案 解释 证据 研究 方法 分析 结果 实验 测量 观察 比较 结论 科学 细节",
        "点击 购买 免费 便宜 优惠 中奖 奖品 赌场 红包 打折 订阅 折扣 促销 限时 大奖 运气 现在 紧急",
    ),
}
WORDS = {lang: (hq.split(), lq.split()) for lang, (hq, lq) in WORDS.items()}
HQ, LQ = 0.85, 0.15

EMBEDDING = {"kind": "hashed_ngram", "dim": 384, "ngram_range": [2, 4], "seed": 0,
             "truncate_chars": 2048}
PERCENTILES = (30, 60, 90, 95)


def make_text(rng: random.Random, lang: str, quality: float, n_chars: int) -> str:
    hq, lq = WORDS[lang]
    sep = "" if lang == "zh" else " "
    parts, length = [], 0
    while length < n_chars:
        word = rng.choice(hq) if rng.random() < quality else rng.choice(lq)
        if lang == "zh" and rng.random() < 0.12:
            word += "。"
        parts.append(word)
        length += len(word) + len(sep)
    return sep.join(parts)[:n_chars].strip()


def doc_line(doc_id: str, lang: str, text: str) -> str:
    """A shard line in the toolkit's canonical form, so a kept document's
    line must come back byte for byte."""
    rec = {"id": doc_id, "lang": lang, "source": "perfbench", "text": text}
    return json.dumps(rec, ensure_ascii=False, sort_keys=True, separators=(",", ":")) + "\n"


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def write_config(path: str, cfg: dict) -> str:
    # JSON is YAML; every float written here is in [1e-3, 1)
    write_text(path, json.dumps(cfg, ensure_ascii=False, indent=1) + "\n")
    return path


def run_cli(*argv: str) -> None:
    from corpusfilter import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"corpusfilter {' '.join(argv[:1])} exited with {code}")


class Corpus:
    """Sharded JSONL corpus written by the benchmark."""

    def __init__(self, root: str, name: str, shards: list[list[tuple[str, str, str]]]):
        """`shards` holds (doc_id, lang, text) triples per shard."""
        os.makedirs(root, exist_ok=True)
        self.names = [f"shard_{s:02d}.jsonl" for s in range(len(shards))]
        self.paths = [os.path.join(root, n) for n in self.names]
        self.ids = [[d[0] for d in docs] for docs in shards]
        self.lines = [[doc_line(*d) for d in docs] for docs in shards]
        self.texts = {d[0]: d[2] for docs in shards for d in docs}
        for path, lines in zip(self.paths, self.lines):
            write_text(path, "".join(lines))
        self.manifest = os.path.join(root, "manifest.json")
        write_text(self.manifest, json.dumps(
            {"corpus_name": name, "lang": "multi", "shards": self.paths}) + "\n")

    @property
    def n_docs(self) -> int:
        return sum(len(ids) for ids in self.ids)

    def records(self, scores: dict[str, float]) -> list[tuple[str, str, float]]:
        """(doc_id, shard, score) per document, in manifest order."""
        return [(i, name, scores[i]) for name, ids in zip(self.names, self.ids) for i in ids]

    def check_filtered(self, out_dir: str, scores: dict[str, float], tau: float) -> int:
        kept = 0
        for name, lines, ids in zip(self.names, self.lines, self.ids):
            got = read_text(os.path.join(out_dir, name))
            checks.check_filtered_shard(got, lines, ids, scores, tau, name)
            kept += got.count("\n")
        return kept


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = ""

    def __init__(self, work_dir: str, seed: int):
        self.work = work_dir
        self.seed = seed
        self.out = os.path.join(work_dir, "out")

    def generate(self) -> None:
        """Write the benchmark's inputs; not part of set-up time."""

    def setup_commands(self) -> list[list[str]]:
        """CLI commands of the program's one-time work before the first pass."""
        return []

    def prepare(self) -> None:
        """Compute the expected outputs once the one-time work is done."""

    def clean(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)

    def run_pass(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    @property
    def docs_per_pass(self) -> int:
        raise NotImplementedError


class FilterMultilingual(Workload):
    """Train on English seed shards, then score, threshold and filter a
    multilingual corpus through the CLI."""

    name = "filter_multilingual"
    SHARDS = 4
    # per shard: each language at each of these lengths, half of them
    # high quality, and one document over the 2048-char truncation
    LENGTHS = (60, 140, 320, 700)
    LONG = 2300
    SEED_DOCS = 40
    SEED_CHARS = 300
    AUC_MIN = 0.95

    def generate(self) -> None:
        rng = random.Random(self.seed)
        seed_dir = os.path.join(self.work, "seed")
        os.makedirs(seed_dir, exist_ok=True)
        seed_paths = {"positives": [], "negatives": []}
        for key, q in (("positives", 0.95), ("negatives", 0.05)):
            for s in range(2):
                path = os.path.join(seed_dir, f"{key}_{s}.jsonl")
                write_text(path, "".join(
                    doc_line(f"{key}-{s}-{i:03d}", "en",
                             make_text(rng, "en", q, self.SEED_CHARS))
                    for i in range(self.SEED_DOCS)))
                seed_paths[key].append(path)

        self.quality: dict[str, float] = {}
        shards = []
        for s in range(self.SHARDS):
            docs = []
            for lang in LANGS:
                qs = [HQ, HQ, LQ, LQ]
                rng.shuffle(qs)
                for n_chars, q in zip(self.LENGTHS, qs):
                    docs.append((lang, q, n_chars))
            docs.append((LANGS[s % len(LANGS)], rng.choice((HQ, LQ)), self.LONG))
            rng.shuffle(docs)
            triples = []
            for i, (lang, q, n_chars) in enumerate(docs):
                doc_id = f"s{s:02d}-{i:03d}-{lang}"
                self.quality[doc_id] = q
                triples.append((doc_id, lang, make_text(rng, lang, q, n_chars)))
            shards.append(triples)
        self.corpus = Corpus(os.path.join(self.work, "corpus"), "multilingual", shards)

        self.classifier = os.path.join(self.work, "classifier.json")
        self.train_cfg = write_config(os.path.join(self.work, "train.yaml"), {
            "seed": 0,
            "output_dir": os.path.join(self.work, "train_out"),
            "embedding": EMBEDDING,
            "classifier": self.classifier,
            "train": seed_paths,
        })
        self.cfg = write_config(os.path.join(self.work, "pipeline.yaml"), {
            "seed": 0,
            "output_dir": self.out,
            "embedding": EMBEDDING,
            "classifier": self.classifier,
            "corpus": {"manifest": self.corpus.manifest},
            "scores": os.path.join(self.out, "scores.jsonl"),
            "workers": 2,
            "percentiles": list(PERCENTILES),
            "threshold": {"strategy": "first_file", "compare": True,
                          "n_random": 2, "percentile": 90},
            "filter": {"percentile": 90, "out_dir": os.path.join(self.out, "filtered")},
        })

    def setup_commands(self) -> list[list[str]]:
        return [["train-filter", "-c", self.train_cfg]]

    def prepare(self) -> None:
        clf = read_json(self.classifier)
        self.reference = {
            i: checks.reference_score(text, EMBEDDING, clf)
            for i, text in self.corpus.texts.items()
        }

    def run_pass(self) -> None:
        for command in ("score", "threshold", "filter"):
            run_cli(command, "-c", self.cfg)

    def check(self) -> None:
        records = read_jsonl(os.path.join(self.out, "scores.jsonl"))
        checks.check_score_records(records, self.corpus.records(self.reference))
        scores = {r["doc_id"]: float(r["score"]) for r in records}
        shard_scores = [[scores[i] for i in ids] for ids in self.corpus.ids]

        report = read_json(os.path.join(self.out, "threshold_report.json"))
        estimates = {float(e["percentile"]): e for e in report["estimates"]}
        require(sorted(estimates) == [float(p) for p in PERCENTILES],
                f"threshold estimates for {sorted(estimates)}")
        for p, e in estimates.items():
            checks.check_tau(e["tau"], shard_scores[0], p, "first-file threshold")
            require(e["sample_size"] == len(shard_scores[0]),
                    f"first-file sample of {e['sample_size']} documents")
        cmp = report["strategy_comparison"]
        checks.check_tau(cmp["tau_first"], shard_scores[0], 90, "tau_first")
        pairs = [a + b for a, b in itertools.combinations(shard_scores, 2)]
        require(
            any(abs(cmp["tau_random"] - checks.nearest_rank(v, 90)) <= checks.TOL
                for v in pairs),
            f"tau_random {cmp['tau_random']!r} is the p90 of no two shards",
        )

        tau = float(estimates[90.0]["tau"])
        kept = self.corpus.check_filtered(os.path.join(self.out, "filtered"), scores, tau)
        stats = read_json(os.path.join(self.out, "filter_stats.json"))
        require(stats["docs_in"] == self.corpus.n_docs and stats["docs_out"] == kept,
                f"filter stats {stats['docs_out']}/{stats['docs_in']}, "
                f"files hold {kept}/{self.corpus.n_docs}")

        en = [i for i in scores if i.endswith("-en")]
        auc = checks.rank_auc([scores[i] for i in en if self.quality[i] == HQ],
                              [scores[i] for i in en if self.quality[i] == LQ])
        require(auc >= self.AUC_MIN,
                f"English high-quality documents rank above low-quality at AUC {auc:.3f}")

    @property
    def docs_per_pass(self) -> int:
        return self.corpus.n_docs


class RefilterSweep(Workload):
    """Re-filter a scored corpus at four percentiles: parsing, score lookup
    and shard writing, with no embedding."""

    name = "refilter_sweep"
    SHARDS = 8
    DOCS_PER_SHARD = 400
    # the same 400 lengths, 40 to 2600 chars, in every shard
    LENGTHS = tuple(round(40 * 65 ** (i / 399)) for i in range(DOCS_PER_SHARD))

    def generate(self) -> None:
        rng = random.Random(self.seed)
        shards = []
        for s in range(self.SHARDS):
            lengths = list(self.LENGTHS)
            rng.shuffle(lengths)
            triples = []
            for i, n_chars in enumerate(lengths):
                lang = LANGS[i % len(LANGS)]
                triples.append((f"s{s:02d}-{i:04d}-{lang}", lang,
                                make_text(rng, lang, rng.random(), n_chars)))
            shards.append(triples)
        self.corpus = Corpus(os.path.join(self.work, "corpus"), "refilter", shards)

        self.scores = {i: 0.001 + 0.998 * rng.random() for ids in self.corpus.ids for i in ids}
        self.scores_path = os.path.join(self.work, "scores.jsonl")
        write_text(self.scores_path, "".join(
            json.dumps({"doc_id": i, "score": s, "shard": shard},
                       ensure_ascii=False, sort_keys=True) + "\n"
            for i, shard, s in self.corpus.records(self.scores)))

        values = list(self.scores.values())
        self.taus = {p: checks.nearest_rank(values, p) for p in PERCENTILES}
        self.report_cfg = write_config(os.path.join(self.work, "report.yaml"), {
            "seed": 0,
            "output_dir": os.path.join(self.out, "report"),
            "percentiles": list(PERCENTILES),
            "report": {"scores": [{"name": "corpus", "path": self.scores_path}]},
        })
        self.filter_cfgs = {
            p: write_config(os.path.join(self.work, f"filter_p{p}.yaml"), {
                "seed": 0,
                "output_dir": os.path.join(self.out, f"p{p}"),
                "corpus": {"manifest": self.corpus.manifest},
                "scores": self.scores_path,
                "filter": {"tau": tau, "out_dir": os.path.join(self.out, f"p{p}", "filtered")},
            })
            for p, tau in self.taus.items()
        }

    def run_pass(self) -> None:
        run_cli("report", "-c", self.report_cfg)
        for p in PERCENTILES:
            run_cli("filter", "-c", self.filter_cfgs[p])

    def check(self) -> None:
        table = read_json(os.path.join(self.out, "report", "percentile_table.json"))["table"]
        for p, tau in self.taus.items():
            checks.check_tau(table["corpus"][f"{float(p):g}"], self.scores.values(), p,
                             "percentile table")
        for p, tau in self.taus.items():
            out = os.path.join(self.out, f"p{p}")
            kept = self.corpus.check_filtered(os.path.join(out, "filtered"), self.scores, tau)
            stats = read_json(os.path.join(out, "filter_stats.json"))
            require(stats["docs_in"] == self.corpus.n_docs and stats["docs_out"] == kept,
                    f"p{p} filter stats {stats['docs_out']}/{stats['docs_in']}, "
                    f"files hold {kept}/{self.corpus.n_docs}")

    @property
    def docs_per_pass(self) -> int:
        return self.corpus.n_docs


class ClustersK64(Workload):
    """Balanced K=64 k-means over a topic mixture, then cluster histograms
    of four datasets and their pairwise total variation."""

    name = "clusters_k64"
    K = 64
    DIM = 384
    TOPICS = 16
    N_FIT = 512
    N_DATASET = 512
    MAX_ITERS = 3
    NOISE = 0.6
    # same-mixture histograms differ by sampling noise only; the shifted
    # mixture moves half of the mass to half of the topics
    TV_SAME_MAX = 0.3
    TV_SHIFTED_MIN = 0.36

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        centers = rng.standard_normal((self.TOPICS, self.DIM))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)

        def draw(n: int, weights: np.ndarray) -> np.ndarray:
            topics = rng.choice(self.TOPICS, size=n, p=weights)
            X = centers[topics] + self.NOISE * rng.standard_normal((n, self.DIM)) / np.sqrt(self.DIM)
            return X / np.linalg.norm(X, axis=1, keepdims=True)

        base = np.full(self.TOPICS, 1.0 / self.TOPICS)
        shifted = np.zeros(self.TOPICS)
        shifted[: self.TOPICS // 2] = 2.0 / self.TOPICS
        self.X_fit = draw(self.N_FIT, base)
        self.datasets = [(f"same_{k}", draw(self.N_DATASET, base)) for k in range(3)]
        self.datasets.append(("shifted", draw(self.N_DATASET, shifted)))

    def clean(self) -> None:
        self.result = None

    def run_pass(self) -> None:
        from corpusfilter import clustering

        model = clustering.fit_balanced_kmeans(self.X_fit, self.K, seed=0,
                                               max_iters=self.MAX_ITERS)
        hists = [clustering.histogram_over_clusters(model, X, name)
                 for name, X in self.datasets]
        tv = {(a.dataset_name, b.dataset_name): clustering.histogram_distance(a, b)
              for a, b in itertools.combinations(hists, 2)}
        self.result = (model, hists, tv)

    def check(self) -> None:
        model, hists, tv = self.result
        checks.check_cluster_fit(model.labels_, self.K, model.wcss_history_)
        counts = {}
        for h, (name, X) in zip(hists, self.datasets):
            require(h.dataset_name == name, f"histogram {h.dataset_name!r} for {name!r}")
            checks.check_histogram(h.counts, X, model.centroids, name)
            counts[name] = h.counts
        require(len(tv) == 6, f"{len(tv)} distances for 4 datasets")
        for (a, b), d in tv.items():
            want = checks.total_variation(counts[a], counts[b])
            require(abs(d - want) <= checks.TOL, f"TV({a}, {b}) is {d!r}, recount {want!r}")
            if "shifted" in (a, b):
                require(d >= self.TV_SHIFTED_MIN, f"TV({a}, {b}) = {d:.3f} against the shift")
            else:
                require(d <= self.TV_SAME_MAX, f"TV({a}, {b}) = {d:.3f} within one mixture")

    @property
    def docs_per_pass(self) -> int:
        return self.N_FIT + len(self.datasets) * self.N_DATASET


WORKLOADS = {w.name: w for w in (FilterMultilingual, RefilterSweep, ClustersK64)}
