"""Loaders and the shared normalizer."""

import json
import math
import sys
import unicodedata
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from clarikit import corpus as corpus_module
from clarikit.corpus import (
    ClarificationInstance,
    Corpus,
    Document,
    EmbeddingTable,
    iter_jsonl,
    load_corpus,
    load_embeddings,
    load_instances,
    normalize,
    read_json_object,
    stopwords,
)
from clarikit.errors import DataError
from clarikit.generator import GeneratorRequest, extractive_generate, fuse_round_robin
from clarikit.harness import evidence_size_sweep, paired_bootstrap, taxonomy_analysis
from clarikit.metrics import bleu_n
from clarikit.retrieval import (
    RetrievalConfig,
    ScoredDoc,
    bm25_retrieve,
    build_inverted_index,
    dense_retrieve,
    interleave_round_robin,
    mmr_rerank,
)


def normalize_oracle(text: str, drop_stopwords: bool = False) -> list[str]:
    """The per-character map ``normalize`` was first written as."""
    mapped = "".join(
        " " if unicodedata.category(ch).startswith("P") else ch for ch in text.lower()
    )
    tokens = mapped.split()
    if drop_stopwords:
        tokens = [t for t in tokens if t not in stopwords()]
    return tokens


# Pieces that stress the translate table: ASCII controls (\x1c-\x1f are
# whitespace to str.split), the category-S symbols that stay in tokens,
# characters that lower() expands or that are whitespace outside ASCII,
# stopwords, and any code point at all, surrogates included.
_TRICKY = "\x00\x07\x1c\x1d\x1e\x1f\x7f\x85\xa0\u2028\u3000$+<=>^`|~İẞΣ«»¿-_'"
normalize_text = st.lists(
    st.one_of(
        st.characters(max_codepoint=0x7F),
        st.sampled_from(_TRICKY),
        st.sampled_from(["the", "The", "AND", "of", "leiden", "café"]),
        st.characters(categories=["Cs"]),
        st.characters(exclude_categories=()),
    ),
    max_size=40,
).map("".join)


class TestNormalize:
    def test_lowercase_and_punctuation(self):
        assert normalize("Windows 10!") == ["windows", "10"]

    def test_empty_input(self):
        assert normalize("") == []

    def test_stopword_filter_matches_bundled_list(self):
        # Oracle: filter the phrase by hand with the exact bundled list.
        phrase = "things to do in Leiden"
        sw = stopwords()
        expected = [t for t in phrase.lower().split() if t not in sw]
        assert expected == ["things", "leiden"]
        assert normalize(phrase, drop_stopwords=True) == expected

    def test_apostrophes_become_separators(self):
        assert normalize("don't-stop") == ["don", "t", "stop"]

    def test_unicode_punctuation(self):
        assert normalize("«café», “naïve”…") == ["café", "naïve"]

    @given(st.text(max_size=80), st.booleans())
    def test_idempotent_on_own_output(self, text, drop):
        tokens = normalize(text, drop_stopwords=drop)
        assert normalize(" ".join(tokens), drop_stopwords=drop) == tokens

    @given(st.text(max_size=80))
    def test_tokens_are_clean(self, text):
        for tok in normalize(text):
            assert tok
            assert not any(ch.isspace() for ch in tok)

    @given(normalize_text, st.booleans())
    def test_matches_per_character_oracle(self, text, drop):
        assert normalize(text, drop_stopwords=drop) == normalize_oracle(text, drop)

    def test_every_code_point_matches_oracle(self, monkeypatch):
        # Each code point between two letters, so it either joins them or
        # splits them.  One block at a time, each with an empty table that
        # the first call fills and the second reads, keeps memory small.
        table = corpus_module._PunctMap()
        monkeypatch.setattr(corpus_module, "_PUNCT_MAP", table)
        for lo in range(0, 0x110000, 0x10000):
            table.clear()
            text = " ".join(f"a{chr(cp)}b" for cp in range(lo, lo + 0x10000))
            expected = normalize_oracle(text)
            assert normalize(text) == expected
            assert normalize(text) == expected

    def test_module_table_stays_bounded(self):
        # Every code point through the module's own table, 1,024 per string:
        # tokens stay those of the oracle while the table, a cache, is
        # emptied before it passes 2**16 entries.
        table = corpus_module._PUNCT_MAP
        for lo in range(0, 0x110000, 1024):
            text = " ".join(f"a{chr(cp)}b" for cp in range(lo, lo + 1024))
            assert normalize(text) == normalize_oracle(text)
            assert len(table) <= 2**16

    def test_shared_table_under_threads(self):
        # More threads than cores fill and empty the one module table at
        # once; an entry lost to a concurrent clear is recomputed, so tokens
        # stay those of the oracle.
        blocks = [
            " ".join(f"a{chr(cp)}b" for cp in range(lo, lo + 0x8000))
            for lo in range(0x20000, 0xA0000, 0x8000)
        ]
        expected = [normalize_oracle(text) for text in blocks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(normalize, text) for text in blocks * 2]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected * 2
        assert len(corpus_module._PUNCT_MAP) <= 2**16 + 8


DEEP = 200_000  # far beyond any recursion limit of the JSON parser

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_json_objects = st.dictionaries(st.text(max_size=3), _json_values, max_size=3)
# Any line a file could hold: newlines would split it, lone surrogates have
# no UTF-8 encoding.
_raw_text = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\r\n"), max_size=6
)
jsonl_lines = st.one_of(
    _json_objects.map(json.dumps),
    _json_values.map(lambda v: json.dumps(v, ensure_ascii=False)),
    st.tuples(
        st.sampled_from(["", " ", "\t", "\ufeff", "\x0c", "x"]),
        _json_objects.map(json.dumps),
        st.sampled_from(["", " ", "\t", "x", "}", "{}", " 1", ",", "\x0c", "\u00a0", "\u200b"]),
    ).map("".join),
    _raw_text,
    st.sampled_from(
        [
            '{"a": NaN}',
            '{"a": [Infinity, -Infinity]}',
            "\ufeff",
            '{"a": 1} {"b": 2}',
            "[" * DEEP + "]" * DEEP,
            '{"a": ' + "[" * DEEP + "]" * DEEP + "}",
        ]
    ),
)


def iter_jsonl_oracle(path, lines):
    """Yield what ``json.loads`` makes of each stripped, non-blank line."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from None
        except RecursionError:
            raise DataError(f"{path}: line {lineno}: JSON nested too deeply") from None
        if not isinstance(obj, dict):
            raise DataError(f"{path}: line {lineno}: expected a JSON object")
        yield lineno, obj


def _drain(records):
    """(records, error message or None): everything yielded before a DataError."""
    out = []
    try:
        for record in records:
            out.append(record)
    except DataError as exc:
        return out, str(exc)
    return out, None


class TestIterJsonl:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(jsonl_lines, max_size=5))
    @example(['{"a": 1}', "", "\ufeff{}"])
    @example(['{"a": 1}', "{} x"])
    @example(["{}{}"])
    @example(["{", "x"])
    def test_matches_json_loads_per_line(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("jsonl") / "lines.jsonl"
        path.write_text("\n".join(lines), encoding="utf-8")
        got, got_error = _drain(iter_jsonl(path))
        want, want_error = _drain(iter_jsonl_oracle(path, lines))
        # repr, so NaN compares equal to NaN and -0.0 differs from 0.0
        assert repr(got) == repr(want)
        assert got_error == want_error

    @pytest.mark.parametrize("where", ["first line", "last line"])
    @pytest.mark.parametrize(
        "read", [iter_jsonl, lambda p: read_json_object(p, "config")], ids=["jsonl", "object"]
    )
    def test_bytes_that_are_not_utf_8_are_a_data_error(self, tmp_path, where, read):
        # The text is decoded in chunks, so no line number can be claimed.
        good, bad = b'{"a": 1}', b'{"a": "\xff"}'
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\n".join([bad, good] if where == "first line" else [good, bad]))
        with pytest.raises(DataError) as exc_info:
            list(read(path))
        assert str(exc_info.value) == f"{path}: not valid UTF-8 (invalid start byte)"

    @pytest.mark.parametrize(
        "read, message",
        [
            (iter_jsonl, "file not found"),
            (lambda p: read_json_object(p, "config"), "config file not found"),
        ],
        ids=["jsonl", "object"],
    )
    def test_a_directory_is_not_a_file(self, tmp_path, read, message):
        with pytest.raises(DataError) as exc_info:
            list(read(tmp_path))
        assert str(exc_info.value) == f"{message}: {tmp_path}"


def corpus_oracle(path) -> Corpus:
    """The per-field loader: each field through its helper, then the
    document contract one fault at a time."""
    docs, seen = [], set()
    for lineno, obj in iter_jsonl(path):
        doc_id = corpus_module._require_str(obj, "id", path, lineno)
        text = corpus_module._require_str(obj, "text", path, lineno)
        if not doc_id:
            raise DataError(f"{path}: line {lineno}: empty document id")
        if doc_id in seen:
            raise DataError(f"{path}: line {lineno}: duplicate document id {doc_id!r}")
        if not text.strip():
            raise DataError(f"{path}: line {lineno}: document {doc_id!r} has empty text")
        seen.add(doc_id)
        docs.append(Document(doc_id, text))
    return Corpus(docs=tuple(docs))


class TestLoadCorpus:
    def write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_two_lines(self, tmp_path):
        path = self.write(
            tmp_path,
            ['{"id": "d1", "text": "hello world"}', '{"id": "d2", "text": "more text"}'],
        )
        corpus = load_corpus(path)
        assert len(corpus) == 2
        assert [d.id for d in corpus.docs] == ["d1", "d2"]

    def test_duplicate_id_names_line_and_id(self, tmp_path):
        lines = [json.dumps({"id": f"d{i}", "text": "x y"}) for i in range(4)]
        lines.append('{"id": "d1", "text": "dup"}')
        path = self.write(tmp_path, lines)
        with pytest.raises(DataError) as err:
            load_corpus(path)
        assert "line 5" in str(err.value)
        assert "d1" in str(err.value)

    def test_avg_doc_len(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                '{"id": "a", "text": "one two"}',
                '{"id": "b", "text": "one two three four"}',
                '{"id": "c", "text": "one two three four five six"}',
            ],
        )
        index = build_inverted_index(load_corpus(path))
        # (2 + 4 + 6) / 3 by hand
        assert index.avg_doc_len == 4.0
        assert sum(index.doc_lengths) == 12

    def test_malformed_line_names_line(self, tmp_path):
        path = self.write(tmp_path, ['{"id": "a", "text": "ok"}', "{not json"])
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    def test_missing_field(self, tmp_path):
        path = self.write(tmp_path, ['{"id": "a"}'])
        with pytest.raises(DataError, match="text"):
            load_corpus(path)

    def test_empty_text_rejected(self, tmp_path):
        path = self.write(tmp_path, ['{"id": "a", "text": "   "}'])
        with pytest.raises(DataError, match="empty text"):
            load_corpus(path)

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(
            st.fixed_dictionaries(
                {},
                optional={
                    "id": st.one_of(st.sampled_from(["", "a", "b"]), st.none(), st.integers()),
                    "text": st.one_of(st.sampled_from(["", " \t", "x y", "\u00a0"]), st.none()),
                },
            ),
            max_size=4,
        )
    )
    def test_matches_per_field_oracle(self, tmp_path_factory, rows):
        path = self.write(tmp_path_factory.mktemp("corpus"), [json.dumps(r) for r in rows])
        try:
            want = corpus_oracle(path)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                load_corpus(path)
            assert str(err.value) == str(exc)
        else:
            assert load_corpus(path) == want


class TestLoadInstances:
    def write(self, tmp_path, lines):
        path = tmp_path / "instances.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_basic_parse(self, tmp_path):
        path = self.write(
            tmp_path, ['{"id":"t1","query":"leiden","facets":["zip code","weather"]}']
        )
        (inst,) = load_instances(path)
        assert inst.id == "t1"
        assert inst.query == "leiden"
        assert inst.facets == ("zip code", "weather")
        assert inst.question is None

    def test_empty_facets_rejected(self, tmp_path):
        path = self.write(tmp_path, ['{"id":"t1","query":"q","facets":[]}'])
        with pytest.raises(DataError, match="no facets"):
            load_instances(path)

    def test_question_populated(self, tmp_path):
        line = json.dumps(
            {
                "id": "t1",
                "query": "shoes",
                "question": "Select one to refine your search",
                "facets": ["men", "women", "kids"],
            }
        )
        (inst,) = load_instances(self.write(tmp_path, [line]))
        assert inst.question == "Select one to refine your search"

    def test_missing_required_field(self, tmp_path):
        path = self.write(tmp_path, ['{"id":"t1","facets":["a"]}'])
        with pytest.raises(DataError, match="query"):
            load_instances(path)

    def test_facet_normalizing_to_nothing_rejected(self, tmp_path):
        path = self.write(tmp_path, ['{"id":"t1","query":"q","facets":["!!!"]}'])
        with pytest.raises(DataError, match="normalizes to nothing"):
            load_instances(path)

    def test_order_preserved(self, tmp_path):
        lines = [
            json.dumps({"id": f"t{i}", "query": "q", "facets": ["b", "a"]})
            for i in range(5)
        ]
        instances = load_instances(self.write(tmp_path, lines))
        assert [inst.id for inst in instances] == [f"t{i}" for i in range(5)]
        assert instances[0].facets == ("b", "a")


def vector_fault(key, vector) -> str | None:
    """The embedding contract item by item, for a list of the table's width:
    the error it raises, or None."""
    if not all(isinstance(x, (int, float)) for x in vector):
        return "'vector' must be a list of numbers"
    if not vector:
        return f"embedding for {key!r} is empty"
    try:
        values = [float(x) for x in vector]
    except OverflowError:
        return f"embedding for {key!r} holds a number beyond float range"
    if not all(math.isfinite(x) for x in values):
        return f"embedding for {key!r} contains a non-finite value"
    return None


class TestLoadEmbeddings:
    def write(self, tmp_path, lines):
        path = tmp_path / "embeddings.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_basic(self, tmp_path):
        path = self.write(
            tmp_path,
            ['{"id":"d1","vector":[1,0,0,0]}', '{"id":"d2","vector":[0,1,0,0]}'],
        )
        table = load_embeddings(path)
        assert table.dim == 4
        assert len(table) == 2
        assert list(table.vector("d1")) == [1.0, 0.0, 0.0, 0.0]
        # One read-only matrix in file order: row i is the vector of ids[i].
        assert table.ids == ("d1", "d2")
        assert table.matrix.tolist() == [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
        assert not table.matrix.flags.writeable

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = self.write(
            tmp_path, ['{"id":"d1","vector":[1,0,0,0]}', '{"id":"d2","vector":[0,1,0]}']
        )
        with pytest.raises(DataError, match="line 2"):
            load_embeddings(path)
        # The table constructor shares the loader's checks: no zero-length vectors.
        with pytest.raises(DataError, match="empty"):
            EmbeddingTable.from_dict({"a": []})

    def test_non_finite_rejected(self, tmp_path):
        path = self.write(tmp_path, ['{"id":"d1","vector":[1, Infinity]}'])
        with pytest.raises(DataError, match="non-finite"):
            load_embeddings(path)
        with pytest.raises(DataError, match="non-finite"):
            EmbeddingTable.from_dict({"d1": [1.0, float("inf")]})

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        big = 10**400
        path = self.write(
            tmp_path, ['{"id":"d1","vector":[1,0]}', '{"id":"d2","vector":[1,%d]}' % big]
        )
        with pytest.raises(DataError, match="line 2: embedding for 'd2' holds a number beyond"):
            load_embeddings(path)
        with pytest.raises(DataError, match="beyond float range"):
            EmbeddingTable.from_dict({"d1": [1.0, big]})

    def test_duplicate_id_rejected(self, tmp_path):
        path = self.write(
            tmp_path, ['{"id":"d1","vector":[1,0]}', '{"id":"d1","vector":[0,1]}']
        )
        with pytest.raises(DataError, match="duplicate"):
            load_embeddings(path)

    @pytest.mark.parametrize(
        "vector", ['[1, "2"]', "[1, null]", "[[1, 2]]", "[[1], [1, 2]]", '"12"', '{"a": 1}']
    )
    def test_non_number_vector_rejected(self, tmp_path, vector):
        path = self.write(tmp_path, ['{"id":"d1","vector":%s}' % vector])
        with pytest.raises(DataError, match="line 1: 'vector' must be a list of numbers"):
            load_embeddings(path)

    @pytest.mark.parametrize("vector", [["1", "2"], [None, 1.0]])
    def test_from_dict_rejects_non_numbers_like_the_loader(self, tmp_path, vector):
        path = self.write(tmp_path, [json.dumps({"id": "d1", "vector": vector})])
        with pytest.raises(DataError, match="line 1: 'vector' must be a list of numbers$"):
            load_embeddings(path)
        with pytest.raises(DataError, match="^'vector' must be a list of numbers$"):
            EmbeddingTable.from_dict({"d1": vector})

    def test_from_dict_rejects_an_empty_table(self):
        with pytest.raises(DataError, match="^embedding table is empty$"):
            EmbeddingTable.from_dict({})

    def test_bools_and_wide_integers_accepted(self, tmp_path):
        # JSON booleans are ints to Python; integers beyond 64 bits have no
        # numpy integer type and take the per-item check.
        path = self.write(
            tmp_path,
            ['{"id":"d1","vector":[true, 0, 2.5]}', '{"id":"d2","vector":[%d, -1, 0]}' % 2**70],
        )
        table = load_embeddings(path)
        assert table.matrix.tolist() == [[1.0, 0.0, 2.5], [float(2**70), -1.0, 0.0]]

    @settings(deadline=None, max_examples=300)
    @given(
        vector=st.lists(
            st.one_of(
                st.integers(-(2**70), 2**70),
                st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63) - 1]),
                st.floats(allow_nan=False),
                st.booleans(),
                st.none(),
                st.text(max_size=2),
                st.lists(st.integers(0, 3), max_size=2),
            ),
            max_size=4,
        ),
        before=st.integers(0, 5),
        after=st.integers(0, 5),
        block=st.integers(1, 4),
        data=st.data(),
    )
    def test_vector_check_matches_per_item_oracle(
        self, tmp_path_factory, vector, before, after, block, data
    ):
        # One drawn vector among good rows of its width.  The loader, checking
        # blocks of `block` rows, from_dict and a dense query each take it as
        # the per-item oracle converts it, or fail with the oracle's message.
        numeric = all(isinstance(x, (int, float)) for x in vector)
        width = len(vector) if numeric and vector else 2
        good = st.lists(
            st.one_of(
                st.integers(-(2**70), 2**70),
                st.floats(allow_nan=False, allow_infinity=False),
                st.booleans(),
            ),
            min_size=width,
            max_size=width,
        )
        rows = data.draw(st.lists(good, min_size=before, max_size=before))
        rows += [vector] + data.draw(st.lists(good, min_size=after, max_size=after))
        raw = {f"d{i}": row for i, row in enumerate(rows)}
        lines = [json.dumps({"id": key, "vector": row}) for key, row in raw.items()]
        path = self.write(tmp_path_factory.mktemp("emb"), lines)
        unit = EmbeddingTable.from_dict({"e": [1.0] + [0.0] * (width - 1)})
        fault = vector_fault(f"d{before}", vector)
        with mock.patch.object(corpus_module, "_EMBEDDING_BLOCK_ROWS", block):
            if fault is not None:
                with pytest.raises(DataError) as err:
                    load_embeddings(path)
                assert str(err.value) == f"{path}: line {before + 1}: {fault}"
                with pytest.raises(DataError) as err:
                    EmbeddingTable.from_dict(raw)
                assert str(err.value) == fault
                with pytest.raises(DataError) as err:
                    dense_retrieve(unit, vector, 1)
                assert str(err.value) == vector_fault("query vector", vector)
                return
            table = load_embeddings(path)
        expected = np.array([[float(x) for x in row] for row in rows], dtype=np.float64)
        for got in (table, EmbeddingTable.from_dict(raw)):
            assert got.ids == tuple(raw)
            assert got.matrix.dtype == np.float64
            assert got.matrix.tobytes() == expected.tobytes()
        assert dense_retrieve(unit, vector, 1)[0].score == float(vector[0])

    @pytest.mark.parametrize("block", [1, 2, 3, 1024])
    @pytest.mark.parametrize(
        "lines, message",
        [
            # A bad vector comes before a later duplicate id or missing field.
            (['{"id":"d1","vector":[1,"x"]}', '{"id":"d0","vector":[0,1]}'], "line 2: 'vector'"),
            (['{"id":"d1","vector":[1,"x"]}', '{"id":"d9"}'], "line 2: 'vector'"),
            (['{"id":"d1","vector":[1,"x"]}', '{"vector":[0,1]}'], "line 2: 'vector'"),
            (['{"id":"d1","vector":[1,"x"]}', '{"id":7,"vector":[0,1]}'], "line 2: 'vector'"),
            (['{"id":"d1","vector":[1,2,3]}', '{"id":"d1","vector":[0,1]}'], "line 2: embedding"),
            # and after an earlier one.
            (['{"id":"d0","vector":[0,1]}', '{"id":"d1","vector":[1,"x"]}'], "line 2: duplicate"),
            (['{"id":"d9"}', '{"id":"d1","vector":[1,"x"]}'], "line 2: missing field 'vector'"),
            (['{"id":7,"vector":[0,1]}', '{"id":"d1","vector":[1,"x"]}'], "line 2: field 'id'"),
            # A duplicate line's own bad vector is reported before its id.
            (['{"id":"d2","vector":[1,1]}', '{"id":"d0","vector":[1]}'], "line 3: embedding"),
        ],
    )
    def test_earliest_line_fault_is_reported(self, tmp_path, block, lines, message):
        lines = ['{"id":"d0","vector":[1,0]}'] + lines + ['{"id":"d8","vector":[null]}']
        with mock.patch.object(corpus_module, "_EMBEDDING_BLOCK_ROWS", block):
            with pytest.raises(DataError) as err:
                load_embeddings(self.write(tmp_path, lines))
        assert message in str(err.value)

    @pytest.mark.parametrize("bad_line", ["none", -1, 0, 1, 2])
    def test_bad_row_either_side_of_a_block_boundary(self, tmp_path, bad_line):
        n = corpus_module._EMBEDDING_BLOCK_ROWS
        rows = [[i, 0.5 * i, i % 2 == 0] for i in range(2 * n + 1)] + [[2**70, -1, True]]
        raw = {f"d{i}": row for i, row in enumerate(rows)}
        lines = [json.dumps({"id": key, "vector": row}) for key, row in raw.items()]
        if bad_line == "none":
            table = load_embeddings(self.write(tmp_path, lines))
            expected = EmbeddingTable.from_dict(raw)
            assert table.ids == expected.ids
            assert table.matrix.tobytes() == expected.matrix.tobytes()
            return
        lineno = n + bad_line  # 1-based: line n ends the first block
        lines[lineno - 1] = json.dumps({"id": f"d{lineno - 1}", "vector": [1, 2]})
        with pytest.raises(DataError, match=f"line {lineno}: embedding for 'd{lineno - 1}' has 2 "):
            load_embeddings(self.write(tmp_path, lines))

    def test_unknown_key_errors(self, tmp_path):
        path = self.write(tmp_path, ['{"id":"d1","vector":[1,0]}'])
        table = load_embeddings(path)
        with pytest.raises(DataError, match="no embedding"):
            table.vector("missing")


class TestCorpusObject:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            Corpus.from_docs([Document("a", "x"), Document("a", "y")])

    def test_lookup(self, tiny_corpus):
        assert tiny_corpus.doc("d2").text == "penny show"
        assert "d1" in tiny_corpus
        assert len(tiny_corpus) == 3
        with pytest.raises(DataError):
            tiny_corpus.doc("nope")


def _count_fault(name, value, low=1):
    """The count rule's message for ``value``, or None for a count >= low."""
    if not isinstance(value, int) or isinstance(value, bool):
        return f"{name} must be an integer, got {value!r}"
    return f"{name} must be >= {low}, got {value}" if value < low else None


def _planted_index():
    return build_inverted_index(Corpus.from_docs([Document("d1", "penny cast")]))


_ONE = [ScoredDoc("d1", 1.0, 1)]
_NO_SIM = lambda a, b: 0.0
_ROWS = [{"instance_id": "i1", "m": 1.0}]
_INSTANCE = ClarificationInstance(id="i1", query="penny", facets=("cast",))

# Each entry point that takes a count: (name in its message, lowest count, call).
_COUNTS = {
    "RetrievalConfig.k": ("k", 1, lambda v: RetrievalConfig(k=v)),
    "RetrievalConfig.candidate_n": ("candidate_n", 1, lambda v: RetrievalConfig(candidate_n=v)),
    "GeneratorRequest": ("max_facets", 1, lambda v: GeneratorRequest("q", ("a",), v)),
    "fuse_round_robin": ("max_facets", 1, lambda v: fuse_round_robin([["a"]], v)),
    "interleave_round_robin": ("max_items", 1, lambda v: interleave_round_robin([["a"]], v)),
    "bm25_retrieve": ("k", 1, lambda v: bm25_retrieve(_planted_index(), "penny", v)),
    "dense_retrieve": ("k", 1, lambda v: dense_retrieve(EmbeddingTable.from_dict({"d1": [1]}), [1], v)),
    "mmr_rerank": ("k", 0, lambda v: mmr_rerank(_ONE, 0.5, v, _NO_SIM)),
    "taxonomy_analysis": ("top_k", 1, lambda v: taxonomy_analysis([_INSTANCE], v)),
    "paired_bootstrap": ("iterations", 1, lambda v: paired_bootstrap(_ROWS, _ROWS, "m", v)),
    "bleu_n": ("n", 1, lambda v: bleu_n("a", "a", v)),
    "evidence_size_sweep": (
        "n_values[1]",
        1,
        lambda v: evidence_size_sweep([], extractive_generate, RetrievalConfig(), [1, v]),
    ),
}
_VALUES = [True, 2.5, math.nan, math.inf, 0, -1, "3"]


class TestInputRules:
    """Every entry point that takes a count, an embedding vector or a
    document applies that rule's one checker and gives its message."""

    @pytest.mark.parametrize("value", _VALUES, ids=repr)
    @pytest.mark.parametrize("name, low, call", _COUNTS.values(), ids=list(_COUNTS))
    def test_count(self, name, low, call, value):
        message = _count_fault(name, value, low)
        if message is None:
            call(value)
            return
        with pytest.raises(ValueError) as err:
            call(value)
        assert type(err.value) is ValueError
        assert str(err.value) == message

    def test_bleu_order_above_four(self):
        with pytest.raises(ValueError, match=r"^n must be <= 4, got 5$"):
            bleu_n("a", "a", 5)

    @pytest.mark.parametrize("value", _VALUES, ids=repr)
    def test_mmr_lambda_follows_mmr_lambda(self, value):
        # RetrievalConfig's mmr_lambda rule: a finite number in [0, 1], not a bool.
        if value == 0 and not isinstance(value, bool):
            assert mmr_rerank(_ONE, value, 1, _NO_SIM)[0].doc_id == "d1"
            return
        with pytest.raises(ValueError) as err:
            mmr_rerank(_ONE, value, 1, _NO_SIM)
        assert str(err.value) == f"lambda must be in [0, 1], got {value}"
        with pytest.raises(ValueError):
            RetrievalConfig(mmr_lambda=value)

    @pytest.mark.parametrize("value", _VALUES, ids=repr)
    @pytest.mark.parametrize(
        "call",
        [
            lambda v: EmbeddingTable.from_dict({"d1": v}),
            lambda v: dense_retrieve(EmbeddingTable.from_dict({"d1": [1]}), v, 1),
        ],
        ids=["from_dict", "dense_query"],
    )
    def test_vector(self, call, value):
        with pytest.raises(DataError, match=r"^'vector' must be a list of numbers$"):
            call(value)

    @pytest.mark.parametrize("value", _VALUES, ids=repr)
    @pytest.mark.parametrize("field", ["id", "text"])
    def test_document(self, tmp_path, field, value):
        fields = {"id": "d1", "text": "x", field: value}
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(fields) + "\n", encoding="utf-8")
        if isinstance(value, str):
            assert load_corpus(path) == Corpus.from_docs([Document(**fields)])
            return
        with pytest.raises(DataError, match=rf"^field '{field}' must be a string$"):
            Corpus.from_docs([Document(**fields)])
        with pytest.raises(DataError) as err:
            load_corpus(path)
        assert str(err.value) == f"{path}: line 1: field '{field}' must be a string"
