import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusfilter.corpus_io import (
    CorpusManifest,
    Document,
    FirstFile,
    RandomFiles,
    load_manifest,
    parse_json_line,
    read_shard,
    sample_documents,
    save_manifest,
    write_shard,
)
from corpusfilter.errors import DataError, EmptyCorpusError

from conftest import make_corpus, make_docs


def test_read_valid_shard(tmp_path):
    path = str(tmp_path / "a.jsonl")
    docs = make_docs(3)
    write_shard(path, docs)
    stream = read_shard(path)
    out = list(stream)
    assert [d.id for d in out] == [d.id for d in docs]
    assert stream.malformed == []


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
    assert [m.line_no for m in stream.malformed] == [2, 4]
    del docs


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
    assert [m.line_no for m in stream.malformed] == [2]
    return stream.malformed[0].reason


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


def test_empty_file(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    open(path, "w").close()
    stream = read_shard(path)
    assert list(stream) == []
    assert stream.malformed == []


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


def test_save_manifest_error_mid_dump_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "m.json"
    path.write_text("old\n")

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"corpus_name": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(OSError):
        save_manifest(CorpusManifest(corpus_name="c", lang="fr", shard_paths=["a"]), str(path))
    assert path.read_text() == "old\n"
    assert not list(tmp_path.glob("*.tmp"))


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


def test_random_files_n_too_large(tmp_path):
    manifest = make_corpus(tmp_path, n_shards=3, docs_per_shard=5)
    with pytest.raises(DataError):
        sample_documents(manifest, RandomFiles(4, seed=0), max_docs=10)


def test_empty_corpus_error(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    open(path, "w").close()
    manifest = CorpusManifest(corpus_name="e", lang="en", shard_paths=[path])
    with pytest.raises(EmptyCorpusError):
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
def test_parse_json_line_is_json_loads_on_fuzzed_lines(line):
    assert json_outcome(parse_json_line, line) == json_outcome(json.loads, line)
