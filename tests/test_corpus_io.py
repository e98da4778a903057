import gzip
import json
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusfilter.corpus_io import (
    CorpusManifest,
    Document,
    FirstFile,
    RandomFiles,
    check_fields,
    load_manifest,
    parse_json_line,
    read_score_records,
    read_shard,
    sample_documents,
    write_score_records,
    write_shard,
)
from corpusfilter.errors import DataError

from conftest import make_corpus, make_docs, save_manifest


def test_read_valid_shard(tmp_path):
    path = str(tmp_path / "a.jsonl")
    docs = make_docs(3)
    write_shard(path, docs)
    stream = read_shard(path)
    out = list(stream)
    assert [d.id for d in out] == [d.id for d in docs]
    assert (stream.malformed, stream.first_malformed) == (0, None)


def test_malformed_lines_reported_not_dropped_silently(tmp_path):
    path = str(tmp_path / "a.jsonl")
    docs = make_docs(2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"id":"x1","text":"hello there","lang":"en","source":"s"}\n')
        fh.write("{not json at all\n")
        fh.write('{"id":"x2","text":"more text","lang":"en","source":"s"}\n')
        fh.write('{"id":"x3","lang":"en","source":"s"}\n')  # missing text
    stream = read_shard(path)
    out = list(stream)
    assert [d.id for d in out] == ["x1", "x2"]
    assert stream.malformed == 2 and stream.first_malformed[0] == 2
    del docs


def test_malformed_lines_are_counted_not_kept(tmp_path):
    # 100 lines of 1400 bytes fill two 64 KiB blocks of lines, so that both
    # shards are read through the same blocks
    text = b'{"id":"x","text":"' + b"a" * 1400
    lines = [text + b'","source":"s"}\n', text + b"\n"]  # no lang; not JSON
    peaks = []
    for n in (100, 10_000):
        path = tmp_path / f"bad{n}.jsonl"
        path.write_bytes(b"".join(lines[i % 2] for i in range(n)))
        stream = read_shard(str(path))
        tracemalloc.start()
        try:
            assert list(stream) == []
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 64 * 1024, peaks
    assert stream.malformed == 10_000 and stream.first_malformed == (1, "missing field 'lang'")


def test_reading_holds_one_block_of_lines_at_a_time(tmp_path):
    # 100 lines of about 740 bytes fill one 64 KiB block of lines and start a
    # second, so the peak over 10 000 lines shows whether the finished block is
    # still held while the next one is read
    text = b'{"id":"x","text":"' + b"a" * 700
    lines = [text + b'","source":"s"}\n', text + b"\n"]  # no lang; not JSON
    peaks = []
    for n in (100, 10_000):
        path = tmp_path / f"bad{n}.jsonl"
        path.write_bytes(b"".join(lines[i % 2] for i in range(n)))
        tracemalloc.start()
        try:
            for _ in read_shard(str(path)):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def read_around(tmp_path, bad_line: bytes):
    """Read a shard holding bad_line between two valid documents."""
    path = str(tmp_path / "a.jsonl")
    with open(path, "wb") as fh:
        fh.write(b'{"id":"x1","text":"hello there","lang":"en","source":"s"}\n')
        fh.write(bad_line + b"\n")
        fh.write(rb'{"id":"x3","text":"pair \ud83d\ude00 is fine","lang":"en","source":"s"}')
        fh.write(b"\n")
    stream = read_shard(path)
    out = list(stream)
    assert [d.id for d in out] == ["x1", "x3"]
    assert out[1].text == "pair \U0001f600 is fine"
    assert stream.malformed == 1 and stream.first_malformed[0] == 2
    return stream.first_malformed[1]


@pytest.mark.parametrize(
    "bad_line",
    [
        rb'{"id":"x2","text":"lone \ud800 surrogate","lang":"en","source":"s"}',
        rb'{"id":"x2","text":"text","lang":"en","source":"s","meta":{"k":"\udfff"}}',
    ],
    ids=["text", "meta"],
)
def test_lone_surrogate_line_is_malformed(tmp_path, bad_line):
    read_around(tmp_path, bad_line)


def test_invalid_utf8_line_is_malformed(tmp_path):
    reason = read_around(tmp_path, b'{"id":"x2","text":"byte \xff","lang":"en","source":"s"}')
    assert "utf-8" in reason


@pytest.mark.parametrize(
    "meta", [b"5", b'[["k","v"]]', b'"k=v"'], ids=["number", "pairs", "string"]
)
def test_meta_that_is_not_an_object_is_malformed(tmp_path, meta):
    line = b'{"id":"x2","text":"text","lang":"en","source":"s","meta":' + meta + b"}"
    assert "meta" in read_around(tmp_path, line)


def doc_line(n: int) -> bytes:
    return b'{"id":"x%d","text":"hello there","lang":"en","source":"s"}' % n


@pytest.mark.parametrize("suffix", ["jsonl", "jsonl.gz"])
@pytest.mark.parametrize(
    "line, outcome",
    [
        (b"", None),
        (b"   ", None),
        (b"\t", None),
        (b"\r", None),
        (b"\x0c", None),
        (b" \t\r\x0b\x0c", None),  # bytes.isspace() throughout
        # str.isspace() throughout, but not ASCII whitespace
        (" \t\r\x0b\x0c\x1c\xa0\u2028".encode(), "Expecting value: line 1 column 4 (char 3)"),
        (b" \t\r" + doc_line(2), "x2"),
        (doc_line(2) + b"\r", "x2"),  # a CRLF line ending
        (doc_line(2) + b" \t\r", "x2"),
        (b"\x0c" + doc_line(2), "Expecting value: line 1 column 1 (char 0)"),
        (doc_line(2) + b"\x0c", "Extra data: line 1 column 58 (char 57)"),
        ("\ufeff".encode() + doc_line(2),
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        ("\ufeff".encode(),
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        # a cut line: the reason is that of the line without its ending
        (b'{"id":"x2","text":', "Expecting value: line 1 column 19 (char 18)"),
        (b'{"id":"x2","text":"cut', "Unterminated string starting at: line 1 column 19 (char 18)"),
        (b'{"id":"x2","text":"cut\r', "Invalid control character at: line 1 column 23 (char 22)"),
        (b'{"id":"x2","text":"","lang":"en","source":"s"}',
         "document 'x2': text empty after trim"),
        (b'{"id":"x2","text":"\\u00a0\\t","lang":"en","source":"s"}',
         "document 'x2': text empty after trim"),
        (b'{"id":"","text":"t","lang":"en","source":"s"}', "document id must be non-empty"),
        (b'{"id":5,"lang":"en","source":"s"}', "field 'id' is not a string"),
        (b'{"id":"x2","lang":"en","source":"s"}', "missing field 'text'"),
        (b'{"id":"x2","text":"t","lang":"en","source":null}', "field 'source' is not a string"),
        (b'["x2"]', "record is not an object"),
    ],
)
def test_shard_line_rules(tmp_path, suffix, line, outcome):
    # line 2 is blank, line 3 is the case, the last line has no newline
    lines = [doc_line(1) + b"\n", b"\n", line + b"\n", doc_line(4)]
    path = str(tmp_path / f"a.{suffix}")
    with (gzip.open if suffix.endswith(".gz") else open)(path, "wb") as fh:
        fh.write(b"".join(lines))
    stream = read_shard(path)
    out = [(doc.id, stream.line) for doc in stream]
    docs = [("x1", lines[0]), ("x4", lines[3])]
    if outcome is None:
        assert (out, stream.malformed, stream.first_malformed) == (docs, 0, None)
    elif outcome == "x2":
        kept = docs[:1] + [("x2", lines[2])] + docs[1:]
        assert (out, stream.malformed, stream.first_malformed) == (kept, 0, None)
    else:
        assert (out, stream.malformed, stream.first_malformed) == (docs, 1, (3, outcome))


def test_empty_file(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    open(path, "w").close()
    stream = read_shard(path)
    assert list(stream) == []
    assert (stream.malformed, stream.first_malformed) == (0, None)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        read_shard("/nonexistent/shard.jsonl")


def test_roundtrip_with_embedded_newline(tmp_path):
    path = str(tmp_path / "nl.jsonl")
    doc = Document(id="n1", text="line one\nline two\ttab", lang="fr", source="s")
    assert write_shard(path, [doc]) == 1
    (back,) = list(read_shard(path))
    assert back == doc
    # the file itself stays one record per line
    assert sum(1 for _ in open(path)) == 1


def test_roundtrip_100_docs(tmp_path):
    path = str(tmp_path / "r.jsonl")
    docs = make_docs(100, seed=3)
    docs[7].meta = {"k": "v"}
    assert write_shard(path, docs) == 100
    assert list(read_shard(path)) == docs


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.text(min_size=1).filter(lambda s: s.strip()),
            st.text(alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1).filter(
                lambda s: s.strip()
            ),
        ),
        min_size=0,
        max_size=20,
    )
)
def test_roundtrip_property(tmp_path_factory, pairs):
    docs = [
        Document(id=f"h{i}_{hash(i)}", text=text, lang="en", source="hyp")
        for i, (_, text) in enumerate(pairs)
    ]
    path = str(tmp_path_factory.mktemp("hyp") / "x.jsonl")
    assert write_shard(path, docs) == len(docs)
    assert list(read_shard(path)) == docs


EDGE_SCORES = [0.0, 1.0, 5e-324, 1 - 2**-53]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.text(), st.lists(st.tuples(
    st.text(), st.one_of(st.sampled_from(EDGE_SCORES), st.floats(0, 1)))))))
@example([("s\u2028.jsonl", [('q"b\\é中\u2028', s) for s in EDGE_SCORES]), ("", [])])
def test_score_records_template_is_json_dumps(tmp_path_factory, shards):
    path = str(tmp_path_factory.getbasetemp() / "scores.jsonl")
    runs = [(name, [r[0] for r in recs], [r[1] for r in recs]) for name, recs in shards]
    records = [{"doc_id": doc_id, "score": score, "shard": name}
               for name, recs in shards for doc_id, score in recs]
    assert write_score_records(path, runs) == len(records)
    with open(path, "rb") as fh:
        assert fh.read() == "".join(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n"
                                    for rec in records).encode()
    assert list(read_score_records(path)) == [tuple(rec.values()) for rec in records]


def test_write_rejects_invalid_doc(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with pytest.raises(DataError):
        write_shard(path, [Document(id="", text="t", lang="en", source="s")])


def test_manifest_roundtrip_and_sorted(tmp_path):
    m = CorpusManifest(
        corpus_name="c", lang="fr", shard_paths=["b.jsonl", "a.jsonl"]
    )
    assert m.shard_paths == ["a.jsonl", "b.jsonl"]
    p = str(tmp_path / "m.json")
    save_manifest(m, p)
    assert load_manifest(p) == m


@pytest.mark.parametrize("paths", [["a/shard.jsonl", "b/shard.jsonl"],
                                   ["a/shard.jsonl", "a/shard.jsonl"]])
def test_manifest_rejects_two_shards_of_one_name(paths):
    # a shard's name keys its score records and its filtered copy
    with pytest.raises(DataError) as err:
        CorpusManifest(corpus_name="c", lang="en", shard_paths=["c/other.jsonl", *paths])
    assert f"shards {paths[0]} and {paths[1]}, both named 'shard.jsonl'" in str(err.value)


FIELD_RULE = [
    # (kind, value, whether it is of that kind)
    (str, "s", True), (str, 5, False), (str, None, False),
    (int, 3, True), (int, True, False), (int, 3.0, False), (int, "3", False),
    (float, 3, True), (float, 0.5, True), (float, False, False), (float, "0.5", False),
    (bool, True, True), (bool, 1, False), (bool, "no", False),
    ([float], [1, 2.5], True), ([float], [], True), ([float], [1, True], False),
    ([float], 5, False), ([str], ["a", 1], False),
    ([{"tau": float}], [{"tau": 1, "stamp": "x"}], True), ([{"tau": float}], [{}], False),
    ([{"tau": float}], [{"tau": "x"}], False), ([{"tau": float}], [[1]], False),
]


@pytest.mark.parametrize("kind,value,ok", FIELD_RULE)
def test_check_fields_checks_kinds_not_only_keys(kind, value, ok):
    rec = {"x": value, "stamp": "ignored"}
    if ok:
        assert check_fields(rec, "file f", {"x": kind}) == {"x": value}
    else:
        with pytest.raises(DataError, match="^file f: 'x' must be "):
            check_fields(rec, "file f", {"x": kind})


def test_check_fields_messages_and_optional_fields():
    report = {"estimates": [{"percentile": 90, "tau": None}]}
    kind = {"estimates": [{"percentile": float, "tau": float}]}
    with pytest.raises(DataError, match="^r: 'estimates' must be a list of objects with a "
                                        "number 'percentile' and a number 'tau'$"):
        check_fields(report, "r", kind)
    with pytest.raises(DataError, match="^r has no 'estimates' key$"):
        check_fields({}, "r", kind)
    with pytest.raises(DataError, match="^r is not a JSON object$"):
        check_fields([report], "r", kind)
    # an optional field that is absent or null is left out; one that is set is checked
    optional = {"seed": int, "lang": str}
    assert check_fields({"n": 1, "seed": None}, "r", {"n": int}, optional) == {"n": 1}
    assert check_fields({"n": 1, "lang": "fr"}, "r", {"n": int}, optional) == {"n": 1, "lang": "fr"}
    with pytest.raises(DataError, match="^r: 'seed' must be an integer$"):
        check_fields({"n": 1, "seed": "abc"}, "r", {"n": int}, optional)
    with pytest.raises(DataError, match="^r: 'n' must be an integer$"):  # required, so not null
        check_fields({"n": None}, "r", {"n": int}, optional)


def test_first_file_sampling(tmp_path):
    manifest = make_corpus(tmp_path, n_shards=5, docs_per_shard=20)
    docs = sample_documents(manifest, FirstFile(), max_docs=10)
    assert len(docs) == 10
    assert all(d.id.startswith("s000_") for d in docs)


def test_random_files_deterministic(tmp_path):
    manifest = make_corpus(tmp_path, n_shards=5, docs_per_shard=20)
    a = sample_documents(manifest, RandomFiles(2, seed=7), max_docs=30)
    b = sample_documents(manifest, RandomFiles(2, seed=7), max_docs=30)
    assert a == b
    # some other seed picks a different shard subset
    others = [
        {d.id for d in sample_documents(manifest, RandomFiles(2, seed=s), max_docs=30)}
        for s in range(8, 13)
    ]
    assert any(o != {d.id for d in a} for o in others)


def test_random_files_all_shards(tmp_path):
    manifest = make_corpus(tmp_path, n_shards=10, docs_per_shard=5)
    docs = sample_documents(manifest, RandomFiles(10, seed=1), max_docs=50)
    shards_touched = {d.id.split("_")[0] for d in docs}
    assert len(shards_touched) == 10


def test_random_files_take_one_document_per_open_shard_in_turn(tmp_path):
    paths = []
    for name, n in (("a", 1), ("b", 4), ("c", 2)):
        paths.append(str(tmp_path / f"{name}.jsonl"))
        write_shard(paths[-1], [Document(f"{name}{i}", "t", "en", "s") for i in range(n)])
    manifest = CorpusManifest(corpus_name="c", lang="en", shard_paths=paths)
    order = ["a0", "b0", "c0", "b1", "c1", "b2", "b3"]
    for max_docs in range(1, 9):
        docs = sample_documents(manifest, RandomFiles(3, seed=0), max_docs=max_docs)
        assert [d.id for d in docs] == order[:max_docs]


def test_random_files_n_too_large(tmp_path):
    manifest = make_corpus(tmp_path, n_shards=3, docs_per_shard=5)
    with pytest.raises(DataError):
        sample_documents(manifest, RandomFiles(4, seed=0), max_docs=10)


def test_empty_corpus_error(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    open(path, "w").close()
    manifest = CorpusManifest(corpus_name="e", lang="en", shard_paths=[path])
    with pytest.raises(DataError, match="no documents in the sampled shards"):
        sample_documents(manifest, FirstFile(), max_docs=10)


def test_gzip_passthrough(tmp_path):
    path = str(tmp_path / "z.jsonl.gz")
    docs = make_docs(5)
    write_shard(path, docs)
    assert list(read_shard(path)) == docs


@pytest.mark.parametrize("line", [
    '{"a": 1}', ' {"a": 1}', '{"a": 1} \r', '{"a": 1}\n', '[1, 2]', '"s"', "NaN",
    '{"a": 1} x', '{"a": 1}{"b": 2}', "", "  ", "﻿{}", "{not json",
    '{"a": 1}\x0c', '\x0c{"a": 1}', '{"a": "\\ud800"}', '{"a": "\\x"}',
])
def test_parse_json_line_is_json_loads(line):
    assert json_outcome(parse_json_line, line) == json_outcome(json.loads, line)


def json_outcome(parse, line):
    try:
        return "value", parse(line)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=' \t\r\n\x0c{}[]":,.-+0123456789eEaNlu\\x', max_size=12))
def test_parse_json_line_is_json_loads_on_fuzzed_lines(tmp_path_factory, line):
    assert json_outcome(parse_json_line, line) == json_outcome(json.loads, line)
    check_readers_on(tmp_path_factory, line.encode())


def check_readers_on(tmp_path_factory, line: bytes):
    """read_shard and read_score_records on `line` between two valid lines
    agree with the references below, line numbers and reasons included."""
    path = str(tmp_path_factory.getbasetemp() / "fuzzed.jsonl")
    with open(path, "wb") as fh:
        fh.write(doc_line(1) + b"\n" + line + b"\n" + doc_line(9) + b"\n")
    stream = read_shard(path)
    docs, malformed = reference_shard(path)
    first = malformed[0] if malformed else None
    assert (list(stream), stream.malformed, stream.first_malformed) == (
        docs, len(malformed), first)
    with open(path, "wb") as fh:
        fh.write(score_line("a") + b"\n" + line + b"\n" + score_line("z") + b"\n")
    assert score_records_or_error_line(path) == reference_score_records(path)


def split_lines(path: str) -> list[bytes]:
    """The lines of a file, each without its newline."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    return lines[:-1] if lines[-1] == b"" else lines


def reference_shard(path: str):
    """(documents, malformed) of a shard by the rules in corpus_io: a line
    of ASCII whitespace is skipped; any other line is a document only when
    it is UTF-8 and JSON, an object with string id, text, lang and source, a
    meta that is an object when given, every string encodable, and non-empty
    id, text after trim and lang."""
    docs, malformed = [], []
    for line_no, raw in enumerate(split_lines(path), start=1):
        if not raw.strip():
            continue
        try:
            docs.append(reference_document(json.loads(raw.decode("utf-8"))))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError and the checks
            malformed.append((line_no, str(exc)))
    return docs, malformed


def reference_document(rec) -> Document:
    if not isinstance(rec, dict):
        raise ValueError("record is not an object")
    for name in ("id", "text", "lang", "source"):
        if name not in rec:
            raise ValueError(f"missing field {name!r}")
        if not isinstance(rec[name], str):
            raise ValueError(f"field {name!r} is not a string")
    meta = {} if rec.get("meta") is None else rec["meta"]
    if not isinstance(meta, dict):
        raise ValueError("field 'meta' is not an object")
    for name, value in [(n, rec[n]) for n in ("id", "text", "lang", "source")] + [
        ("meta", json.dumps(meta, ensure_ascii=False))
    ]:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"field {name!r} is not valid Unicode: {exc.reason}") from None
    if not rec["id"]:
        raise ValueError("document id must be non-empty")
    if not rec["text"].strip():
        raise ValueError(f"document {rec['id']!r}: text empty after trim")
    if not rec["lang"]:
        raise ValueError(f"document {rec['id']!r}: lang must be non-empty")
    return Document(rec["id"], rec["text"], rec["lang"], rec["source"], meta)


def score_line(doc_id: str) -> bytes:
    return json.dumps({"doc_id": doc_id, "score": 0.5, "shard": "s"}).encode()


def score_records_or_error_line(path: str):
    records = []
    try:
        for rec in read_score_records(path):
            records.append(rec)
    except DataError as exc:
        prefix = f"{path}:"
        assert str(exc).startswith(prefix)
        return records, int(str(exc)[len(prefix):].split(":")[0])
    return records, None


def reference_score_records(path: str):
    """The records of a score file up to its first bad line, and that
    line's number: a line of ASCII whitespace is skipped; any other line is
    a record only when it is UTF-8 and JSON, an object with a string doc_id
    and a score that is a number (not a bool) in [0, 1]."""
    records = []
    for line_no, raw in enumerate(split_lines(path), start=1):
        try:
            rec = json.loads(raw.decode("utf-8"))
        except ValueError:
            if not raw.strip():
                continue
            return records, line_no
        if not isinstance(rec, dict) or not isinstance(rec.get("doc_id"), str):
            return records, line_no
        score = rec.get("score")
        if isinstance(score, bool) or not isinstance(score, (int, float)):
            return records, line_no
        if not 0.0 <= score <= 1.0:
            return records, line_no
        records.append((rec["doc_id"], float(score), rec.get("shard")))
    return records, None


PADDING = st.sampled_from([""] * 8 + [" ", "\t", "\r", "\x0c", "\xa0", "\ufeff", "\n"])
STRING = st.one_of(st.just("x"), st.text(alphabet=" \t\xa0x\u00e9\\\ud800", max_size=3))
ODD_VALUE = st.sampled_from(
    [None, True, 0, 1, 2, -1, 10**400, 0.0, 0.5, 1.0, 1.5, float("nan"), "", [], {},
     {"k": "\udfff"}]
)
MISSING = object()


def fuzzed_record_line(fields: dict):
    """A JSON object whose keys take their usual values (the strategies in
    `fields`) most of the time, else an odd value or no value, padded with
    whitespace. A lone surrogate either goes in as a \\u escape or makes
    the line invalid UTF-8."""
    values = {
        key: st.one_of(usual, usual, usual, usual, ODD_VALUE, st.just(MISSING))
        for key, usual in fields.items()
    }
    return st.builds(
        lambda pre, rec, ascii_only, post: (
            pre
            + json.dumps({k: v for k, v in rec.items() if v is not MISSING},
                         ensure_ascii=ascii_only)
            + post
        ).encode("utf-8", "surrogatepass"),
        PADDING,
        st.fixed_dictionaries(values),
        st.booleans(),
        PADDING,
    )


DOCUMENT_FIELDS = {
    "id": STRING,
    "text": STRING,
    "lang": STRING,
    "source": STRING,
    "meta": st.sampled_from([MISSING, None, {}, {"k": "v"}]),
}
SCORE_FIELDS = {
    "doc_id": STRING,
    "score": st.one_of(
        st.floats(0.0, 1.0), st.sampled_from([0, 1, True, False, -1e-300, 1.0000001, 10**400])
    ),
    "shard": STRING,
}


@settings(max_examples=300, deadline=None)
@given(fuzzed_record_line(DOCUMENT_FIELDS))
def test_readers_match_the_references_on_fuzzed_documents(tmp_path_factory, line):
    check_readers_on(tmp_path_factory, line)


@settings(max_examples=300, deadline=None)
@given(fuzzed_record_line(SCORE_FIELDS))
def test_readers_match_the_references_on_fuzzed_score_records(tmp_path_factory, line):
    check_readers_on(tmp_path_factory, line)
