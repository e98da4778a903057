"""Streaming I/O for sharded newline-delimited text corpora.

Shards are JSONL files, one document per line, with fields `id`, `text`,
`lang`, `source` and an optional `meta` object. A manifest lists the
shards of one corpus; shard order is always lexicographic by path so that
"first file" means the same thing on every platform.

Every JSON and JSONL file is read and written here. The line reader takes
a file in blocks of whole lines of about `BLOCK_BYTES`, so memory holds one
block (or one longer line). A shard reader still hands out each document
with the raw bytes of its line (`ShardStream.line`).
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import DataError, EmptyCorpusError

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


class MalformedRecord(NamedTuple):
    line_no: int
    reason: str


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w") -> Iterator[IO]:
    """Open a temporary file beside `path` for writing ("w" for UTF-8 text,
    "wb" for bytes). A clean exit moves it onto `path` with `os.replace`; an
    error removes it, so `path` never holds a partial write."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, BLOCK_BYTES, None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
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
        with gzip.GzipFile(os.path.basename(path), "wb", fileobj=fh) as gz:
            yield gz


def write_json(path: str, obj, indent: int | None = 2) -> None:
    """Write `obj` to `path` atomically as UTF-8 JSON, keys sorted, newline-ended."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, ensure_ascii=False, sort_keys=True, indent=indent)
        fh.write("\n")


def write_json_lines(path: str, records: Iterable[dict]) -> int:
    """Write one JSON object per line like `write_json`; returns the count."""
    count = 0
    with atomic_write(path) as fh:
        for count, rec in enumerate(records, 1):
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")
    return count


def doc_to_line(doc: Document) -> str:
    rec: dict = {"id": doc.id, "text": doc.text, "lang": doc.lang, "source": doc.source}
    if doc.meta:
        rec["meta"] = doc.meta
    return json.dumps(rec, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def _require_utf8(name: str, value: str) -> None:
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"field {name!r} is not valid Unicode: {exc.reason}") from None


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
    if type(rec) is not dict:
        raise rec if isinstance(rec, ValueError) else ValueError("record is not an object")
    for name in REQUIRED_FIELDS:
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

    Malformed lines never interrupt the stream; after exhaustion they are
    available (with line numbers and reasons) in `.malformed`. Blank lines
    are skipped but counted in the line numbers. While a document is out,
    `.line` holds the raw bytes of its line, line ending included, so that
    a filter can copy it verbatim.
    """

    def __init__(self, path: str):
        if not os.path.exists(path):
            raise FileNotFoundError(path)
        self.path = path
        self.malformed: list[MalformedRecord] = []
        self.line = b""

    def __iter__(self) -> Iterator[Document]:
        for line_no, raw, rec in read_json_lines(self.path, self.path.endswith(".gz")):
            try:
                doc = _record_to_doc(rec, raw)
            except (ValueError, DataError) as exc:
                self.malformed.append(MalformedRecord(line_no, str(exc)))
                continue
            self.line = raw
            yield doc


def read_shard(path: str) -> ShardStream:
    return ShardStream(path)


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


def sample_documents(
    manifest: CorpusManifest,
    strategy: FirstFile | RandomFiles,
    max_docs: int = 100_000,
) -> list[Document]:
    """Draw a deterministic document sample for threshold estimation.

    FirstFile reads only the first shard (lexicographic order). RandomFiles
    picks n shards without replacement using the given seed and reads them
    round-robin, so no single shard dominates the sample.
    """
    if max_docs <= 0:
        raise DataError("max_docs must be positive")
    if isinstance(strategy, FirstFile):
        chosen = manifest.shard_paths[:1]
    elif strategy.n > len(manifest.shard_paths):
        raise DataError(
            f"random_files n={strategy.n} exceeds shard count {len(manifest.shard_paths)}"
        )
    else:
        chosen = sorted(random.Random(strategy.seed).sample(manifest.shard_paths, strategy.n))
    # one document from each open shard in turn: itertools' roundrobin recipe
    streams = (iter(read_shard(p)) for p in chosen)
    docs: list[Document] = []
    for n_open in range(len(chosen), 0, -1):
        streams = itertools.cycle(itertools.islice(streams, n_open))
        docs += itertools.islice(map(next, streams), max_docs - len(docs))
    if not docs:
        raise EmptyCorpusError(f"no documents in the sampled shards {chosen}")
    return docs


def load_json_object(path: str, kind: str, required: Iterable[str]) -> dict:
    """The JSON object in `path`. A DataError names the file when it is not
    JSON, not an object, or lacks one of the `required` keys."""
    with open(path, encoding="utf-8") as fh:
        try:
            rec = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise DataError(f"{kind} {path} is not valid JSON: {exc}") from exc
    if not isinstance(rec, dict):
        raise DataError(f"{kind} {path} is not a JSON object")
    for key in required:
        if key not in rec:
            raise DataError(f"{kind} {path} has no {key!r} key")
    return rec


def load_manifest(path: str) -> CorpusManifest:
    rec = load_json_object(path, "manifest", ("corpus_name", "lang", "shards"))
    shards = rec["shards"]
    if not isinstance(shards, list) or not all(isinstance(p, str) for p in shards):
        raise DataError(f"manifest {path}: 'shards' must be a list of path strings")
    return CorpusManifest(
        corpus_name=rec["corpus_name"],
        lang=rec["lang"],
        shard_paths=list(shards),
    )


def save_manifest(manifest: CorpusManifest, path: str) -> None:
    write_json(path, {
        "corpus_name": manifest.corpus_name,
        "lang": manifest.lang,
        "shards": manifest.shard_paths,
    })
