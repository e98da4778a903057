"""Streaming I/O for sharded newline-delimited text corpora.

Shards are JSONL files, one document per line, with fields `id`, `text`,
`lang`, `source` and an optional `meta` object. A manifest lists the
shards of one corpus; shard order is always lexicographic by path so that
"first file" means the same thing on every platform.

Every file format is read and written here: shards, manifests, score
records, annotations, JSON reports and CSV tables. The line reader takes a
file in blocks of whole lines of about `BLOCK_BYTES`, so memory holds one
block (or one longer line). A shard reader still hands out each document
with the raw bytes of its line (`ShardStream.line`).
"""

from __future__ import annotations

import contextlib
import csv
import errno
import gzip
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from .errors import DataError

REQUIRED_FIELDS = ("id", "text", "lang", "source")
BLOCK_BYTES = 1 << 16  # file buffer size, and the size hint of one `readlines` call


@dataclass(slots=True)
class Document:
    id: str
    text: str
    lang: str
    source: str
    meta: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        if not self.id:
            raise DataError("document id must be non-empty")
        if not self.text or self.text.isspace():  # as `not self.text.strip()`
            raise DataError(f"document {self.id!r}: text empty after trim")
        if not self.lang:
            raise DataError(f"document {self.id!r}: lang must be non-empty")


@dataclass
class CorpusManifest:
    corpus_name: str
    lang: str
    shard_paths: list[str]

    def __post_init__(self) -> None:
        if not self.shard_paths:
            raise DataError(f"manifest {self.corpus_name!r} has no shards")
        self.shard_paths = sorted(self.shard_paths)
        names: dict[str, str] = {}  # a name keys a shard's score records and filtered copy
        for path in self.shard_paths:
            if (name := os.path.basename(path)) in names:
                raise DataError(f"manifest {self.corpus_name!r} lists shards {names[name]} "
                                f"and {path}, both named {name!r}")
            names[name] = path


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w") -> Iterator[IO]:
    """Open a temporary file beside `path`, in a directory made if missing, for
    writing ("w" for UTF-8 text, "wb" for bytes). A clean exit moves it onto
    `path` with `os.replace`; an error removes it and the directories it made."""
    made, parent = [], os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):  # deepest first
        made.append(parent)
        parent = os.path.dirname(parent)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(tmp, mode, BLOCK_BYTES, None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        for directory in made:  # not os.removedirs: it would take empty parents made before
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise


@contextlib.contextmanager
def shard_writer(path: str) -> Iterator[IO[bytes]]:
    """Binary handle on a new shard at `path`, written atomically and
    gzip-compressed when the name ends in `.gz`."""
    with atomic_write(path, "wb") as fh:
        if not path.endswith(".gz"):
            yield fh
            return
        # the header names the shard, not the temporary file
        # and holds no write time, so that a rerun writes the same bytes
        with gzip.GzipFile(os.path.basename(path), "wb", fileobj=fh, mtime=0) as gz:
            yield gz


def file_sha256(path: str, prefix: bytes = b"") -> str:
    """Hex sha256 of `prefix` followed by the bytes of the file at `path`."""
    import hashlib  # only here: it loads OpenSSL, about 4 ms, which clustering never needs

    digest = hashlib.sha256(prefix)
    with open(path, "rb") as fh:
        while block := fh.read(BLOCK_BYTES):
            digest.update(block)
    return digest.hexdigest()


def write_json(path: str, obj, indent: int | None = 2) -> None:
    """Write `obj` to `path` atomically as UTF-8 JSON, keys sorted, newline-ended."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, ensure_ascii=False, sort_keys=True, indent=indent)
        fh.write("\n")


def write_csv(path: str, rows: Iterable[list]) -> None:
    """Write `rows` to `path` atomically as CSV, lines ended by `\n`; a cell is
    quoted only when it holds a comma, a quote or a line break."""
    with atomic_write(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_score_records(path: str, runs: Iterable[tuple[str, list[str], list[float]]]) -> int:
    """Write a `{"doc_id", "score", "shard"}` record per line for each run of
    (shard name, ids, scores), the bytes of `json.dumps(rec, ensure_ascii=False,
    sort_keys=True)` for a finite score; returns the count."""
    enc = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps(s, ensure_ascii=False)
    count = 0
    with atomic_write(path) as fh:
        for shard, ids, scores in runs:
            tail = ', "shard": ' + enc(shard) + "}\n"
            fh.writelines(['{"doc_id": ' + enc(doc_id) + ', "score": ' + repr(score) + tail
                           for doc_id, score in zip(ids, scores)])
            count += len(ids)
    return count


def doc_to_line(doc: Document) -> str:
    rec: dict = {"id": doc.id, "text": doc.text, "lang": doc.lang, "source": doc.source}
    if doc.meta:
        rec["meta"] = doc.meta
    return json.dumps(rec, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def _require_utf8(name: str, value: str, where: str = "") -> None:
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataError(f"{where}field {name!r} is not valid Unicode: {exc.reason}") from None


_scan_once = json.JSONDecoder().scan_once


def parse_json_line(line: str):
    """`json.loads(line)` without its Python-level wrappers, which cost
    about as much as the parse of a short line. A line that does not start
    with a JSON value, or has more than whitespace after it, goes to
    `json.loads` for the same error."""
    try:
        value, end = _scan_once(line, 0)
    except (StopIteration, ValueError):
        return json.loads(line)
    if end != len(line) and line[end:].strip(" \t\n\r"):
        return json.loads(line)
    return value


def read_json_lines(path: str, gzipped: bool = False) -> Iterator[tuple[int, bytes, object]]:
    """(line number from 1, raw line with its ending, JSON value) for each
    line but the blank ones, of ASCII whitespace only (`bytes.isspace`). The
    value is the ValueError of the line without its ending if that is not JSON."""
    line_no = 0
    with gzip.open(path, "rb") if gzipped else open(path, "rb", BLOCK_BYTES) as fh:
        while block := fh.readlines(BLOCK_BYTES):
            for line_no, raw in enumerate(block, line_no + 1):
                try:  # one decode and parse per line, line ending included
                    value = parse_json_line(raw.decode("utf-8"))
                except ValueError:  # JSONDecodeError or UnicodeDecodeError
                    if raw.isspace():
                        continue
                    try:  # again without the ending, for the error's position
                        value = parse_json_line(raw.rstrip(b"\n").decode("utf-8"))
                    except ValueError as exc:
                        value = exc
                yield line_no, raw, value


def _record_to_doc(rec, raw: bytes) -> Document:
    """The document in a shard line parsed by `read_json_lines`. A malformed
    line raises ValueError or DataError, whose message is the reason."""
    if type(rec) is not dict:  # raising rec itself would tie it in a cycle to this frame
        raise ValueError(rec if isinstance(rec, ValueError) else "record is not an object")
    for name in REQUIRED_FIELDS:  # `check_fields`' rule, inline as it runs once a line
        if type(rec.get(name)) is not str:
            raise ValueError(f"field {name!r} is not a string" if name in rec
                             else f"missing field {name!r}")
    meta = rec.get("meta")
    if meta is None:
        meta = {}
    elif type(meta) is not dict:
        raise ValueError("field 'meta' is not an object")
    # a lone surrogate, which no UTF-8 encoder (the n-gram kernel's, a shard
    # writer's) accepts, can only come from a \u escape in the line; `in`
    # looks for an int (a backslash) with memchr, for b"\\" far slower
    if 0x5C in raw:
        for name in REQUIRED_FIELDS:
            _require_utf8(name, rec[name])
        if meta:
            _require_utf8("meta", json.dumps(meta, ensure_ascii=False))
    doc = Document(rec["id"], rec["text"], rec["lang"], rec["source"], meta)
    doc.validate()
    return doc


class ShardStream:
    """Iterator over the valid documents of one shard file.

    Malformed lines never interrupt the stream; `.malformed` counts them and
    `.first_malformed` holds the (line number, reason) of the first, or None.
    Blank lines are skipped but counted in the line numbers. While a document
    is out, `.line` holds the raw bytes of its line, line ending included, so
    that a filter can copy it verbatim.
    """

    def __init__(self, path: str):
        if not os.path.exists(path):
            raise FileNotFoundError(errno.ENOENT, "no such shard file", path)
        self.path = path
        self.malformed = 0
        self.first_malformed: tuple[int, str] | None = None
        self.line = b""

    def __iter__(self) -> Iterator[Document]:
        for line_no, raw, rec in read_json_lines(self.path, self.path.endswith(".gz")):
            try:
                doc = _record_to_doc(rec, raw)
            except (ValueError, DataError) as exc:
                self.malformed += 1
                self.first_malformed = self.first_malformed or (line_no, str(exc))
                continue
            self.line = raw
            yield doc


def read_shard(path: str) -> ShardStream:
    return ShardStream(path)


def read_score_records(path: str):
    """Yield (doc_id, score, shard) per record of a score file, skipping
    blank lines. A record that is not a JSON object, whose doc_id is not a
    string, or whose score is not a number in [0, 1] is a DataError naming
    its line."""
    for line_no, _, rec in read_json_lines(path):
        if type(rec) is not dict:
            raise DataError(f"{path}:{line_no}: score record is not a JSON object")
        doc_id = rec.get("doc_id")
        if type(doc_id) is not str:
            raise DataError(f"{path}:{line_no}: doc_id {doc_id!r} is not a string")
        score = rec.get("score")
        # `check_fields`' rule, inline as it runs once a line: a bool is an int
        if type(score) not in (float, int) or not 0.0 <= score <= 1.0:
            raise DataError(
                f"{path}:{line_no}: document {doc_id!r} has score {score!r}, "
                "not a number in [0, 1]"
            )
        yield doc_id, float(score), rec.get("shard")


def read_annotations(path: str) -> Iterator[dict]:
    """The `{"text", "score"}` records of an annotation file, each checked."""
    for line_no, _, rec in read_json_lines(path):
        where = f"{path}:{line_no}: annotation"
        if isinstance(rec, ValueError):  # JSONDecodeError or UnicodeDecodeError
            raise DataError(f"{where} is not UTF-8 JSON: {rec}") from rec
        rec = check_fields(rec, where, {"text": str, "score": int})
        if not rec["text"] or rec["text"].isspace():  # the rule of Document.validate
            raise DataError(f"{where} text is empty or whitespace only")
        if not 0 <= rec["score"] <= 5:
            raise DataError(f"{where} score {rec['score']} is outside 0..5")
        _require_utf8("text", rec["text"], f"{where} ")  # a lone surrogate, from a \ud800 escape
        yield rec


def write_shard(path: str, docs: Iterable[Document]) -> int:
    """Write documents as one JSON record per line; returns the count.

    Round-trips with read_shard byte-for-byte: key order is fixed and
    newlines inside text are escaped by the JSON encoding.
    """
    count = 0
    with shard_writer(path) as fh:
        for doc in docs:
            doc.validate()
            fh.write(doc_to_line(doc).encode("utf-8") + b"\n")
            count += 1
    return count


@dataclass(frozen=True)
class FirstFile:
    pass


@dataclass(frozen=True)
class RandomFiles:
    n: int
    seed: int


def sampled_shards(manifest: CorpusManifest, strategy: FirstFile | RandomFiles) -> list[str]:
    """The paths of the shards that `strategy` samples, in manifest order: FirstFile
    the first (lexicographic order), RandomFiles n picked without replacement."""
    if isinstance(strategy, FirstFile):
        return manifest.shard_paths[:1]
    if strategy.n > len(manifest.shard_paths):
        raise DataError(
            f"random_files n={strategy.n} exceeds shard count {len(manifest.shard_paths)}"
        )
    return sorted(random.Random(strategy.seed).sample(manifest.shard_paths, strategy.n))


def sample_documents(
    manifest: CorpusManifest,
    strategy: FirstFile | RandomFiles,
    max_docs: int = 100_000,
    open_shard=read_shard,
) -> list:
    """Draw a deterministic document sample for threshold estimation.

    It takes one item from each of `sampled_shards` in turn, so no single
    shard dominates it, until it has `max_docs`. `open_shard` maps a shard's
    path to its items: its documents, or their scores as `score` wrote them.
    """
    if max_docs <= 0:
        raise DataError("max_docs must be positive")
    chosen = sampled_shards(manifest, strategy)
    # one item from each open shard in turn: itertools' roundrobin recipe
    streams = (iter(open_shard(p)) for p in chosen)
    docs: list = []
    for n_open in range(len(chosen), 0, -1):
        streams = itertools.cycle(itertools.islice(streams, n_open))
        docs += itertools.islice(map(next, streams), max_docs - len(docs))
    if not docs:
        raise DataError(f"no documents in the sampled shards {chosen}")
    return docs


# The field rule for the JSON the program reads back. A table maps a field to its kind,
# as `cli.CONFIG_KEYS` writes it: str, int, float (an int or a float), bool, [kind] for a
# list, or {name: kind} for an object. By type(), not isinstance: a bool is an int too.
_SCALARS = {str: ((str,), "a string"), int: ((int,), "an integer"),
            float: ((int, float), "a number"), bool: ((bool,), "a bool")}


def _is_kind(value, kind) -> bool:
    if isinstance(kind, type):
        return type(value) in _SCALARS[kind][0]
    if isinstance(kind, list):
        return type(value) is list and all(map(_is_kind, value, itertools.repeat(kind[0])))
    return type(value) is dict and all(
        name in value and _is_kind(value[name], sub) for name, sub in kind.items())


def _kind_name(kind) -> str:
    """`kind` in words, such as "a list of numbers"."""
    if isinstance(kind, list):  # the plural: no article, and an s on the noun
        _, noun, *rest = _kind_name(kind[0]).split(" ", 2)
        return " ".join(["a list of", noun + "s", *rest])
    if isinstance(kind, dict):
        return "an object with " + " and ".join(
            f"{_kind_name(sub)} {name!r}" for name, sub in kind.items())
    return _SCALARS[kind][1]


def check_fields(rec, where: str, fields: dict, optional: dict = {}) -> dict:
    """`rec`'s fields that the tables `fields` (required) and `optional` name, checked, not
    converted; other keys are ignored, and an optional field that is absent or null is left
    out, to take its default. A DataError begins with `where`."""
    if type(rec) is not dict:
        raise DataError(f"{where} is not a JSON object")
    out = {}
    for name, kind in {**fields, **optional}.items():
        if name in optional and rec.get(name) is None:
            continue
        if name not in rec or not _is_kind(rec[name], kind):
            raise DataError(f"{where}: {name!r} must be {_kind_name(kind)}" if name in rec
                            else f"{where} has no {name!r} key")
        out[name] = rec[name]
    return out


def load_json_object(path: str, kind: str, fields: dict, optional: dict = {}) -> dict:
    """`check_fields` of the JSON object in the `kind` of file at `path`."""
    with open(path, encoding="utf-8") as fh:
        try:
            rec = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise DataError(f"{kind} {path} is not valid JSON: {exc}") from exc
    return check_fields(rec, f"{kind} {path}", fields, optional)


def load_manifest(path: str) -> CorpusManifest:
    rec = load_json_object(path, "manifest", {"corpus_name": str, "lang": str, "shards": [str]})
    return CorpusManifest(rec["corpus_name"], rec["lang"], rec["shards"])
