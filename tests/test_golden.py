"""Golden artefacts: `score`, `threshold` (with `compare`), `filter` and
`report`, run through `cli.main` on a fixed workspace, write the bytes whose
sha256 digests are in golden/digests.json.

The workspace is three shards of 200 `make_corpus` documents, the last one
gzipped, and the first holding a malformed line, a blank line and a document
of non-ASCII text; the classifier is golden/classifier.json. Two fields hash
the workspace's path and are left out: every report's `config_hash`, and
`score_report.json`'s `digests.manifest` (the absolute shard paths). A change
that means to alter an artefact rewrites both files with

    PYTHONPATH=src python tests/test_golden.py --write

and says in its record which artefacts changed and why.
"""

import gzip
import hashlib
import json
import os
import re
import sys

from corpusfilter.classifier import save_classifier
from corpusfilter.cli import main
from corpusfilter.corpus_io import Document, doc_to_line, write_json

from conftest import make_corpus, save_manifest, train_seed_classifier

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
CLASSIFIER = os.path.join(GOLDEN, "classifier.json")
DIGESTS = os.path.join(GOLDEN, "digests.json")
ARTEFACTS = (
    "scores.jsonl",
    "score_report.json",
    "threshold_report.json",
    "filter_stats.json",
    "filtered/shard_000.jsonl",
    "filtered/shard_001.jsonl",
    "filtered/shard_002.jsonl.gz",
    "percentile_table.json",
    "percentile_table.csv",
)
PATH_FIELDS = re.compile(rb'("config_hash": |"manifest": )"[0-9a-f]+"')
UNICODE_TEXT = ("Qualität der Daten: données multilingues, 数据质量评估, "
                "ελληνικά κείμενα και русский текст — évaluation 🙂")


def build_workspace(root) -> str:
    """The golden workspace under `root`; returns its config's path."""
    corpus_dir = root / "corpus"
    corpus_dir.mkdir()
    manifest = make_corpus(corpus_dir, 3, 200, seed=17)
    first = manifest.shard_paths[0]
    with open(first, "rb") as fh:
        lines = fh.readlines()
    unicode_doc = Document(id="s000_unicode", text=UNICODE_TEXT, lang="de", source="syn")
    lines[150:150] = [(doc_to_line(unicode_doc) + "\n").encode()]
    lines[100:100] = [b"\n"]
    lines[50:50] = [b'{"id": "s000_bad", "text": \n']
    with open(first, "wb") as fh:
        fh.writelines(lines)
    last = manifest.shard_paths[-1]
    with open(last, "rb") as fh:
        blob = gzip.compress(fh.read(), mtime=0)
    os.remove(last)
    manifest.shard_paths[-1] = last + ".gz"
    with open(last + ".gz", "wb") as fh:
        fh.write(blob)
    manifest_path = str(root / "manifest.json")
    save_manifest(manifest, manifest_path)

    out = root / "out"
    cfg_path = str(root / "config.json")  # YAML reads JSON
    write_json(cfg_path, {
        "seed": 0,
        "output_dir": str(out),
        "embedding": {"kind": "hashed_ngram", "dim": 64, "ngram_range": [2, 4], "seed": 0},
        "classifier": CLASSIFIER,
        "corpus": {"manifest": manifest_path},
        "scores": str(out / "scores.jsonl"),
        "percentiles": [30, 60, 90],
        "threshold": {"strategy": "random_files", "n_random": 2, "compare": True,
                      "percentile": 60},
        "filter": {"percentile": 90, "out_dir": str(out / "filtered")},
        "report": {},
    })
    return cfg_path


def artefact_digests(root) -> dict[str, str]:
    """Run the four commands in a new workspace under `root` and return the
    sha256 of each artefact, with the path fields blanked. A gzipped shard is
    hashed decompressed: its compressed bytes depend on the zlib build."""
    cfg_path = build_workspace(root)
    for cmd in ("score", "threshold", "filter", "report"):
        assert main([cmd, "-c", cfg_path]) == 0, cmd
    digests = {}
    for name in ARTEFACTS:
        path = os.path.join(root, "out", name)
        with gzip.open(path, "rb") if name.endswith(".gz") else open(path, "rb") as fh:
            blob = PATH_FIELDS.sub(rb'\1""', fh.read())
        digests[name] = hashlib.sha256(blob).hexdigest()
    return digests


def test_artefacts_match_the_golden_digests(tmp_path):
    with open(DIGESTS, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert artefact_digests(tmp_path) == golden


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import pathlib
    import tempfile

    save_classifier(train_seed_classifier(dim=64)[0], CLASSIFIER)
    with tempfile.TemporaryDirectory() as tmp:
        write_json(DIGESTS, artefact_digests(pathlib.Path(tmp)))
    print(f"wrote {CLASSIFIER} and {DIGESTS}")
