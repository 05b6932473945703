"""Index construction, BM25/dense ranking, interleaving, pools, and MMR."""

import math
import sys
import threading
import tracemalloc
from collections import Counter
from itertools import islice
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from clarikit.corpus import ClarificationInstance, Corpus, Document, EmbeddingTable, normalize
from clarikit.errors import DataError
from clarikit.retrieval import (
    EvidencePool,
    InvertedIndex,
    PoolEntry,
    RetrievalConfig,
    ScoredDoc,
    bm25_retrieve,
    build_inverted_index,
    build_pool,
    dense_retrieve,
    embedding_similarity,
    interleave_round_robin,
    mmr_rerank,
    resolve_texts,
    tfidf_similarity,
)
from clarikit.retrieval import _BM25_K1_MAX, _ORDINAL_BLOCK, _RUN_CHUNK, _transpose


def round_robin_oracle(lists, max_items):
    """Independent reimplementation of depth-first round-robin interleaving."""
    out, seen = [], set()
    for depth in range(max((len(l) for l in lists), default=0)):
        for lst in lists:
            if depth < len(lst) and lst[depth] not in seen and len(out) < max_items:
                seen.add(lst[depth])
                out.append(lst[depth])
    return out


def bm25_oracle(texts: dict[str, str], query: str, k1: float, b: float) -> dict[str, float]:
    """Straight transcription of the scoring formula, independent of the index."""
    tokenized = {doc_id: normalize(text) for doc_id, text in texts.items()}
    n_docs = len(tokenized)
    avgdl = sum(len(toks) for toks in tokenized.values()) / n_docs
    scores: dict[str, float] = {}
    for doc_id, toks in tokenized.items():
        total = 0.0
        for term in normalize(query):
            tf = toks.count(term)
            if tf == 0:
                continue
            df = sum(1 for other in tokenized.values() if term in other)
            idf = math.log(1 + (n_docs - df + 0.5) / (df + 0.5))
            total += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(toks) / avgdl))
        if total != 0.0:
            scores[doc_id] = total
    return scores


def pool_oracle(config: RetrievalConfig, instance: ClarificationInstance, index) -> list:
    """A lexical pool from one ``bm25_retrieve`` per sub-query, interleaved.

    Rows are (doc_id, rank, score.hex(), sorted provenance).
    """
    use_mmr = config.mmr_lambda is not None
    fetch_n = config.candidate_n if use_mmr else config.k
    subs = [("Q", instance.query)]
    if config.alignment == "facet_aligned":
        subs += [(f"F{i + 1}", f"{instance.query} {f}") for i, f in enumerate(instance.facets)]
    rankings = [
        (label, bm25_retrieve(index, text, fetch_n, k1=config.bm25_k1, b=config.bm25_b))
        for label, text in subs
    ]
    provenance: dict[str, set[str]] = {}
    for label, ranking in rankings:
        for doc in ranking:
            provenance.setdefault(doc.doc_id, set()).add(label)
    merged = interleave_round_robin([r for _, r in rankings], fetch_n, key=lambda d: d.doc_id)
    if use_mmr and merged:
        k = min(config.k, len(merged))
        merged = mmr_rerank(merged, config.mmr_lambda, k, tfidf_similarity(index))
    return [
        (d.doc_id, rank, d.score.hex(), sorted(provenance[d.doc_id]))
        for rank, d in enumerate(merged[: config.k], start=1)
    ]


def tfidf_cosine_oracle(texts: dict[str, str], a: str, b: str) -> float:
    """Cosine of two tf-idf vectors built straight from ``normalize``."""
    counts = {doc_id: Counter(normalize(text)) for doc_id, text in texts.items()}
    n_docs = len(counts)
    df = Counter(term for c in counts.values() for term in c)

    def vector(doc_id: str) -> dict[str, float]:
        return {
            term: tf * math.log(1 + (n_docs - df[term] + 0.5) / (df[term] + 0.5))
            for term, tf in counts[doc_id].items()
        }

    va, vb = vector(a), vector(b)
    if not va or not vb:
        return 0.0
    dot = sum(w * vb.get(term, 0.0) for term, w in va.items())
    norm_a = math.sqrt(sum(w * w for w in va.values()))
    norm_b = math.sqrt(sum(w * w for w in vb.values()))
    return dot / (norm_a * norm_b)


def transpose_oracle(
    offsets: np.ndarray, cols: np.ndarray, vals: np.ndarray, n_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR transpose by one stable argsort of the column ids."""
    rows = np.repeat(np.arange(len(offsets) - 1, dtype=np.int32), np.diff(offsets))
    order = np.argsort(cols, kind="stable")
    t_offsets = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=t_offsets[1:])
    return t_offsets, rows[order], vals[order]


def tf_type(longest: int) -> type:
    """The narrowest of uint8, uint16 and uint32 that holds ``longest``."""
    return next(t for t in (np.uint8, np.uint16, np.uint32) if longest <= np.iinfo(t).max)


def index_oracle(corpus: Corpus) -> InvertedIndex:
    """The per-document build: one Counter per document, then a stable
    transpose; the tfs take the narrowest unsigned type that holds them."""
    term_ids: dict[str, int] = {}  # ids in first-seen order
    row_terms, row_tfs, row_sizes, lengths = [], [], [], []
    for doc in corpus.docs:
        tokens = normalize(doc.text)
        lengths.append(len(tokens))
        counts = Counter(tokens)
        row_terms.extend(term_ids.setdefault(t, len(term_ids)) for t in counts)
        row_tfs.extend(counts.values())
        row_sizes.append(len(counts))
    row_offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(row_sizes, out=row_offsets[1:])
    offsets, ordinals, tfs = transpose_oracle(
        row_offsets,
        np.array(row_terms, dtype=np.int32),
        np.array(row_tfs, dtype=tf_type(max(row_tfs, default=0))),
        len(term_ids),
    )
    return InvertedIndex(
        term_ids=term_ids,
        offsets=offsets,
        ordinals=ordinals,
        tfs=tfs,
        doc_lengths=np.array(lengths, dtype=np.int64),
        doc_ids=tuple(d.id for d in corpus.docs),
        avg_doc_len=sum(lengths) / len(lengths),
    )


# Words with case and Unicode noise that normalize folds together or splits
# (İ lowercases to two code points, ß and ς stay distinct), and
# punctuation-only pieces that yield no token at all.
_NOISY_PIECES = "ant Ant ANT bee café CAFÉ straße İx σ Σ ς ant,bee don't x ... ?! «» — ¿".split()
noisy_corpora = st.lists(
    st.lists(st.sampled_from(_NOISY_PIECES), min_size=1, max_size=12).map(" ".join),
    min_size=1,
    max_size=40,
).map(lambda docs: {f"doc{i:02d}": text for i, text in enumerate(docs)})


# Small corpora over a 3-5 word vocabulary, so that many documents tie.
# Ids run against ordinal order, so ties must break on the id itself.
_WORDS = ("ant", "bee", "cat", "dog", "eel")
small_corpora = st.integers(3, 5).flatmap(
    lambda v: st.lists(
        st.lists(st.sampled_from(_WORDS[:v]), min_size=1, max_size=6).map(" ".join),
        min_size=1,
        max_size=8,
    ).map(lambda docs: {f"doc{len(docs) - i}": text for i, text in enumerate(docs)})
)


def assert_same_index(index: InvertedIndex, expected: InvertedIndex) -> None:
    """Same term ids in order, and every array the same bytes, dtype and shape."""
    assert type(index.term_ids) is dict
    assert list(index.term_ids.items()) == list(expected.term_ids.items())
    for name in ("offsets", "ordinals", "tfs", "doc_lengths"):
        got, want = getattr(index, name), getattr(expected, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable, name
    assert index.avg_doc_len == expected.avg_doc_len
    assert index.doc_ids == expected.doc_ids


def corpus_of(texts: dict[str, str]) -> Corpus:
    return Corpus.from_docs([Document(i, t) for i, t in texts.items()])


def zipf_corpus() -> tuple[Corpus, np.ndarray]:
    """A seeded Zipf corpus and its document lengths: 2,000 documents of
    20-100 tokens, word r of a 10,000-word vocabulary drawn with probability
    proportional to 1 / r."""
    rng = np.random.default_rng(3)
    words = np.array([f"w{r}" for r in range(10_000)])
    lengths = rng.integers(20, 101, size=2_000)
    p = 1.0 / np.arange(1, len(words) + 1)
    tokens = iter(words[rng.choice(len(words), int(lengths.sum()), p=p / p.sum())].tolist())
    corpus = corpus_of({f"d{i}": " ".join(islice(tokens, n)) for i, n in enumerate(lengths)})
    return corpus, lengths


def postings_of(index, term: str) -> list[tuple[int, int]]:
    ordinals, tfs = index.posting(term)
    return list(zip(ordinals.tolist(), tfs.tolist()))


class TestInvertedIndex:
    def test_single_doc_postings(self):
        index = build_inverted_index(corpus_of({"d": "a b a"}))
        assert postings_of(index, "a") == [(0, 2)]
        assert postings_of(index, "b") == [(0, 1)]
        assert index.doc_lengths.tolist() == [3]

    def test_repeated_term_is_one_posting(self):
        index = build_inverted_index(corpus_of({"d": "a a a"}))
        assert postings_of(index, "a") == [(0, 3)]
        assert index.offsets.tolist() == [0, 1]

    def test_term_first_seen_in_the_last_document_gets_the_last_id(self):
        index = build_inverted_index(corpus_of({"d1": "b a", "d2": "a c b", "d3": "a z"}))
        assert list(index.term_ids.items()) == [("b", 0), ("a", 1), ("c", 2), ("z", 3)]
        assert postings_of(index, "z") == [(2, 1)]

    def test_corpus_without_tokens(self):
        corpus = corpus_of({"d": "...", "e": "?!"})
        index = build_inverted_index(corpus)
        assert len(index.term_ids) == 0
        assert index.offsets.tolist() == [0]
        assert (index.tfs.dtype, index.tfs.shape) == (np.uint8, (0,))
        assert_same_index(index, index_oracle(corpus))
        assert [a.dtype for a in index.forward] == [np.int64, np.int32, np.uint8]
        assert index.forward[0].tolist() == [0, 0, 0]
        assert index.doc_lengths.tolist() == [0, 0]
        assert index.avg_doc_len == 0.0
        assert bm25_retrieve(index, "x", 3) == []

    @settings(deadline=None, max_examples=200)
    @given(texts=noisy_corpora)
    def test_build_matches_per_document_oracle(self, texts):
        corpus = corpus_of(texts)
        index, expected = build_inverted_index(corpus), index_oracle(corpus)
        assert type(index.term_ids) is dict
        assert list(index.term_ids.items()) == list(expected.term_ids.items())
        for name in ("offsets", "ordinals", "tfs", "doc_lengths"):
            got, want = getattr(index, name), getattr(expected, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable, name
        assert index.avg_doc_len == expected.avg_doc_len
        assert index.doc_ids == expected.doc_ids

    @pytest.mark.parametrize("val_type", [np.uint8, np.uint16, np.uint32, np.int32])
    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(0, 6).flatmap(
            lambda n_cols: st.tuples(
                st.just(n_cols),
                # Rows of (column, value) entries; a column may repeat in a row.
                st.lists(
                    st.lists(
                        st.tuples(st.integers(0, max(n_cols - 1, 0)), st.integers(0, 3)),
                        max_size=6 if n_cols else 0,
                    ),
                    max_size=6,
                ),
            )
        )
    )
    def test_transpose_matches_stable_argsort_oracle(self, val_type, csr):
        n_cols, rows = csr
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=offsets[1:])
        cols = np.array([c for row in rows for c, _ in row], dtype=np.int32)
        vals = np.array([v for row in rows for _, v in row], dtype=val_type)
        got = _transpose(offsets, cols, vals, n_cols)
        want = transpose_oracle(offsets, cols, vals, n_cols)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize(
        "n_docs, terms_per_doc",
        [
            (46_340, 1),  # n_terms * n_docs = 2,147,395,600: int32 keys
            (46_341, 1),  # 2,147,488,281: int64 keys
            (32_768, 2),  # exactly 2**31, the forward index's last probe: int64 keys
        ],
        ids=["int32", "int64", "at-2**31"],
    )
    def test_both_key_widths_match_the_oracles(self, n_docs, terms_per_doc):
        # Every term occurs in one document, so n_terms = terms_per_doc * n_docs
        # and the largest keys lie next to the 2**31 boundary.
        texts = {
            f"d{i}": " ".join(f"t{i}x{j}" for j in range(terms_per_doc)) for i in range(n_docs)
        }
        corpus = corpus_of(texts)
        index, expected = build_inverted_index(corpus), index_oracle(corpus)
        assert len(index.term_ids) == terms_per_doc * n_docs
        assert list(index.term_ids.items()) == list(expected.term_ids.items())
        got = [getattr(index, name) for name in ("offsets", "ordinals", "tfs", "doc_lengths")]
        want = [getattr(expected, name) for name in ("offsets", "ordinals", "tfs", "doc_lengths")]
        got += index.forward
        want += transpose_oracle(index.offsets, index.ordinals, index.tfs, n_docs)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()

    def test_build_and_forward_index_peak_above_what_they_keep(self):
        corpus, lengths = zipf_corpus()

        def transient_bytes(build):
            """What ``build()`` allocated at its peak above what its result keeps."""
            tracemalloc.start()
            try:
                result = build()
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return result, peak - kept

        # Int64 sort keys and int64 temporaries the length of the postings
        # cost about 17 B per token for the build and 12 B per posting for
        # the forward index; int32 keys, freed early, about 6 and 5.
        index, build_bytes = transient_bytes(lambda: build_inverted_index(corpus))
        _, forward_bytes = transient_bytes(lambda: index.forward)
        assert build_bytes / lengths.sum() < 10
        assert forward_bytes / len(index.ordinals) < 8

    def test_in_place_build_stays_within_its_footprint_across_blocks(self):
        # 118,510 tokens in 2,000 documents, so many ordinal blocks and
        # run-start chunks.
        corpus, lengths = zipf_corpus()
        assert lengths.sum() > 10 * _RUN_CHUNK and len(lengths) > 3 * _ORDINAL_BLOCK

        tracemalloc.start()
        try:
            index = build_inverted_index(corpus)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Keys built in the token stream's buffer leave the stream (4 B a
        # token, shrunk to the ordinals at the end) as the largest transient;
        # separate keys and int64 run starts cost about 6 B a token.
        assert (peak - kept) / lengths.sum() < 4
        assert_same_index(index, index_oracle(corpus))

    @pytest.mark.parametrize(
        "lengths",
        [
            [3] * (_ORDINAL_BLOCK - 1),
            [3] * _ORDINAL_BLOCK,
            [3] * (_ORDINAL_BLOCK + 1),
            # Zero-token documents first and last in each of two blocks.
            [
                0 if i in (0, _ORDINAL_BLOCK - 1, _ORDINAL_BLOCK, 2 * _ORDINAL_BLOCK - 1) else 3
                for i in range(2 * _ORDINAL_BLOCK)
            ],
            [_RUN_CHUNK // 2] * 4,  # the tokens end on a chunk boundary
            [_RUN_CHUNK // 2] * 4 + [1],  # and one token past it
            # Sorted, the keys are "w0" x2, "w" x(n - 2), "x" x2: the second
            # chunk holds no run start, and the "x" run starts where it ends.
            [2, 2 * _RUN_CHUNK, 0],
            [2, _RUN_CHUNK - 1],  # the "x" run starts at a chunk's last key
            # The "w" run starts in the first chunk and ends in the fourth,
            # so the two chunks between hold no run start; its tf needs uint16.
            [2, 3 * _RUN_CHUNK + 3],
        ],
        ids=[
            "block-1",
            "block",
            "block+1",
            "blank-block-ends",
            "tokens-end-on-chunk",
            "one-token-past-chunk",
            "run-over-chunk",
            "run-into-chunk",
            "run-over-chunks",
        ],
    )
    def test_block_and_chunk_edges_match_the_oracle(self, lengths):
        def text(i: int, n: int) -> str:
            if n == 0:
                return "?!"  # no token
            if n >= _RUN_CHUNK - 1:
                return " ".join(["w"] * (n - 2) + ["x", "x"])
            # Each word twice in a row, so most postings have tf 2 or more.
            return " ".join(f"w{(i * 7 + j // 2) % 11}" for j in range(n))

        corpus = corpus_of({f"d{i}": text(i, n) for i, n in enumerate(lengths)})
        index = build_inverted_index(corpus)
        assert index.doc_lengths.tolist() == lengths
        assert_same_index(index, index_oracle(corpus))

    @pytest.mark.parametrize(
        "longest, dtype",
        [(255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.uint32)],
    )
    def test_tfs_take_the_narrowest_type_that_holds_the_longest_run(self, longest, dtype):
        texts = {"d0": "x y y", "d1": " ".join(["w"] * longest), "d2": "w x"}
        corpus = corpus_of(texts)
        index = build_inverted_index(corpus)
        assert (index.tfs.dtype, int(index.tfs.max())) == (dtype, longest)
        assert_same_index(index, index_oracle(corpus))
        want = transpose_oracle(index.offsets, index.ordinals, index.tfs, index.doc_count)
        for got, expected in zip(index.forward, want):
            assert (got.dtype, got.tobytes()) == (expected.dtype, expected.tobytes())
        assert index.forward[2].dtype == dtype
        for query in ("w", "w x y", "y w w"):
            got = bm25_retrieve(index, query, 3)
            expected = bm25_oracle(texts, query, 0.9, 0.4)
            assert {r.doc_id: r.score.hex() for r in got} == {
                d: score.hex() for d, score in expected.items()
            }

    def test_a_posting_costs_five_bytes_when_every_tf_fits_a_byte(self):
        corpus, _ = zipf_corpus()
        index = build_inverted_index(corpus)
        n_postings = len(index.ordinals)
        assert int(index.tfs.max()) < 256 and index.tfs.dtype == np.uint8
        # An int32 ordinal and a one-byte tf; int32 tfs made it 8.
        assert (index.ordinals.nbytes + index.tfs.nbytes) / n_postings == 5
        assert_same_index(index, index_oracle(corpus))

    def test_shared_term_two_entries(self):
        index = build_inverted_index(corpus_of({"d1": "x y", "d2": "x z"}))
        assert len(postings_of(index, "x")) == 2

    def test_deterministic_rebuild(self):
        corpus = corpus_of({"d1": "a b", "d2": "b c"})
        first, second = build_inverted_index(corpus), build_inverted_index(corpus)
        assert list(first.term_ids.items()) == list(second.term_ids.items())
        assert (first.doc_ids, first.avg_doc_len) == (second.doc_ids, second.avg_doc_len)
        for name in ("offsets", "ordinals", "tfs", "doc_lengths"):
            got, want = getattr(first, name), getattr(second, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_inverted_index(Corpus.from_docs([]))

    def test_tf_sums_equal_doc_lengths(self, tiny_corpus):
        index = build_inverted_index(tiny_corpus)
        sums = [0] * index.doc_count
        for term in index.term_ids:
            for ordinal, tf in postings_of(index, term):
                sums[ordinal] += tf
        assert sums == index.doc_lengths.tolist()
        lengths = [len(normalize(d.text)) for d in tiny_corpus.docs]
        assert index.avg_doc_len == sum(lengths) / len(lengths)

    @settings(deadline=None, max_examples=100)
    @given(texts=small_corpora)
    def test_forward_index_holds_each_documents_token_counts(self, texts):
        index = build_inverted_index(corpus_of(texts))
        assert "forward" not in vars(index)  # derived on first use only
        doc_offsets, doc_terms, doc_tfs = index.forward
        assert index.forward is index.forward
        assert [a.dtype for a in index.forward] == [np.int64, np.int32, np.uint8]
        term_of = {t: term for term, t in index.term_ids.items()}
        for ordinal, text in enumerate(texts.values()):
            lo, hi = doc_offsets[ordinal], doc_offsets[ordinal + 1]
            terms = doc_terms[lo:hi].tolist()
            assert terms == sorted(terms)
            pairs = {term_of[t]: tf for t, tf in zip(terms, doc_tfs[lo:hi].tolist())}
            assert pairs == Counter(normalize(text))
        for array in index.forward:
            with pytest.raises(ValueError):
                array[:1] = 0

    def test_concurrent_first_use_of_the_forward_index(self):
        texts = {f"d{i:03d}": f"w{i % 7} w{i % 5} w{i % 3} w{i % 11}" for i in range(300)}
        pairs = [(a, b) for a in list(texts)[:20] for b in texts]
        serial = tfidf_similarity(build_inverted_index(corpus_of(texts)))
        expected = [serial(a, b) for a, b in pairs]
        index = build_inverted_index(corpus_of(texts))
        start = threading.Barrier(8)

        def work():
            start.wait(timeout=30)
            sim = tfidf_similarity(index)
            return [sim(a, b) for a, b in pairs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as executor:
                futures = [executor.submit(work) for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(r == expected for r in results)
        assert all(not a.flags.writeable for a in index.forward)


class TestBm25:
    def test_single_doc_hand_value(self):
        # idf = ln(1 + 0.5/1.5) = ln(4/3); tf term = 1.9 / (1 + 0.9*(0.6 + 0.4)) = 1
        index = build_inverted_index(corpus_of({"d": "cat sat"}))
        (hit,) = bm25_retrieve(index, "cat", k=5, k1=0.9, b=0.4)
        assert hit.score == pytest.approx(0.28768207245178085, abs=1e-12)
        assert hit.score == pytest.approx(math.log(4 / 3), abs=1e-12)

    def test_tf_monotonicity_equal_lengths(self):
        texts = {"a": "cat cat mat", "b": "cat dog mat"}
        index = build_inverted_index(corpus_of(texts))
        results = bm25_retrieve(index, "cat", k=2)
        assert [r.doc_id for r in results] == ["a", "b"]
        oracle = bm25_oracle(texts, "cat", 0.9, 0.4)
        for r in results:
            assert r.score == pytest.approx(oracle[r.doc_id], abs=1e-12)

    def test_no_overlap_returns_empty(self, tiny_corpus):
        index = build_inverted_index(tiny_corpus)
        assert bm25_retrieve(index, "zebra", k=3) == []

    def test_empty_query_errors(self, tiny_corpus):
        index = build_inverted_index(tiny_corpus)
        with pytest.raises(DataError, match="empty query"):
            bm25_retrieve(index, "!!!", k=3)

    def test_matches_oracle_on_toy_corpus(self):
        texts = {
            "d1": "cat sat on the mat",
            "d2": "cat cat scratched",
            "d3": "dog barked",
        }
        index = build_inverted_index(corpus_of(texts))
        results = bm25_retrieve(index, "cat mat", k=3, k1=0.9, b=0.4)
        oracle = bm25_oracle(texts, "cat mat", 0.9, 0.4)
        assert {r.doc_id for r in results} == set(oracle)
        for r in results:
            assert r.score == pytest.approx(oracle[r.doc_id], abs=1e-9)

    def test_ranks_consecutive_scores_non_increasing(self, tiny_corpus):
        index = build_inverted_index(tiny_corpus)
        results = bm25_retrieve(index, "penny show", k=3)
        assert [r.rank for r in results] == list(range(1, len(results) + 1))
        assert all(a.score >= b.score for a, b in zip(results, results[1:]))

    def test_tie_break_by_doc_id(self):
        index = build_inverted_index(corpus_of({"b": "same text", "a": "same text"}))
        results = bm25_retrieve(index, "same", k=2)
        assert [r.doc_id for r in results] == ["a", "b"]
        assert results[0].score == results[1].score

    def test_unrelated_doc_scores_match_oracle(self):
        base = {"d1": "cat sat", "d2": "cat cat nap"}
        extended = dict(base, d9="zebra stripes run")
        index = build_inverted_index(corpus_of(extended))
        results = bm25_retrieve(index, "cat", k=3)
        oracle = bm25_oracle(extended, "cat", 0.9, 0.4)
        assert {r.doc_id for r in results} == {"d1", "d2"}
        for r in results:
            assert r.score == pytest.approx(oracle[r.doc_id], abs=1e-12)
        # Relative order of matching docs unchanged by the unrelated doc.
        small = build_inverted_index(corpus_of(base))
        assert [r.doc_id for r in bm25_retrieve(small, "cat", k=3)] == [
            r.doc_id for r in results
        ]

    def test_deterministic(self, tiny_corpus):
        index = build_inverted_index(tiny_corpus)
        assert bm25_retrieve(index, "penny", k=3) == bm25_retrieve(index, "penny", k=3)

    @settings(deadline=None, max_examples=150)
    @given(
        texts=small_corpora,
        query=st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4).map(" ".join),
        k1=st.floats(0.0, 3.0),
        b=st.floats(0.0, 1.0),
        data=st.data(),
    )
    def test_matches_oracle_on_random_small_corpora(self, texts, query, k1, b, data):
        oracle = bm25_oracle(texts, query, k1, b)
        k = data.draw(st.integers(1, len(oracle) + 2), label="k")
        expected = sorted(oracle.items(), key=lambda item: (-item[1], item[0]))[:k]
        got = bm25_retrieve(build_inverted_index(corpus_of(texts)), query, k, k1=k1, b=b)
        assert [(r.doc_id, r.rank) for r in got] == [
            (doc_id, rank) for rank, (doc_id, _) in enumerate(expected, start=1)
        ]
        for r, (_, score) in zip(got, expected):
            assert r.score.hex() == score.hex()

    @pytest.mark.parametrize(
        "k1, b",
        [
            (math.nan, 0.4), (math.inf, 0.4), (-1.0, 0.4), (1e308, 0.4),
            (math.nextafter(_BM25_K1_MAX, math.inf), 0.4), (0.9, math.nan), (0.9, 1.5),
        ],
    )
    def test_bad_parameters_rejected(self, tiny_corpus, k1, b):
        with pytest.raises(ValueError, match="BM25"):
            bm25_retrieve(build_inverted_index(tiny_corpus), "penny", k=3, k1=k1, b=b)

    @pytest.mark.parametrize("k1", [_BM25_K1_MAX, 10**9])
    def test_largest_k1_scores_exactly(self, k1):
        texts = {"a": "x y x", "b": "x z", "c": "y y y y z", "d": "w"}
        got = bm25_retrieve(build_inverted_index(corpus_of(texts)), "x y z", 3, k1=k1)
        expected = bm25_oracle(texts, "x y z", k1, 0.4)
        assert {r.doc_id: r.score.hex() for r in got} == {d: s.hex() for d, s in expected.items()}
        assert all(math.isfinite(r.score) for r in got)


class TestDenseRetrieve:
    def test_orthogonal_basis(self):
        table = EmbeddingTable.from_dict({"d1": [1, 0], "d2": [0, 1]})
        (hit,) = dense_retrieve(table, [1, 0], k=1)
        assert hit.doc_id == "d1"
        assert hit.score == 1.0

    def test_zero_query_falls_back_to_id_order(self):
        table = EmbeddingTable.from_dict({"d2": [1, 0], "d1": [0, 1]})
        results = dense_retrieve(table, [0, 0], k=2)
        assert [r.doc_id for r in results] == ["d1", "d2"]
        assert all(r.score == 0.0 for r in results)

    def test_dim_mismatch_errors(self):
        table = EmbeddingTable.from_dict({"d1": [1, 0]})
        with pytest.raises(
            DataError, match=r"^embedding for 'query vector' has 3 components, expected 2$"
        ):
            dense_retrieve(table, [1, 0, 0], k=1)

    def test_query_beyond_float_range_is_data_error(self):
        table = EmbeddingTable.from_dict({"d1": [1, 0]})
        with pytest.raises(DataError, match="beyond float range"):
            dense_retrieve(table, [10**400, 0], k=1)

    @pytest.mark.parametrize(
        "query", [["1", "0"], ["1", "0", "0"], [[1], [1, 2]], [[1, 0], [0, 1]], [None, 0]]
    )
    def test_non_number_query_rejected(self, query):
        # The query passes the same check as a loaded row, so strings are
        # not parsed as numbers, and a ragged list is a DataError, not
        # numpy's ValueError.
        table = EmbeddingTable.from_dict({"d1": [1, 0]})
        with pytest.raises(DataError, match="^'vector' must be a list of numbers$"):
            dense_retrieve(table, query, k=1)

    def test_deterministic(self):
        table = EmbeddingTable.from_dict({"a": [0.5, 0.1], "b": [0.4, 0.9]})
        assert dense_retrieve(table, [1, 1], k=2) == dense_retrieve(table, [1, 1], k=2)

    def test_k_below_one_rejected(self):
        table = EmbeddingTable.from_dict({"d1": [1, 0]})
        with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
            dense_retrieve(table, [1, 0], k=0)

    @pytest.mark.parametrize("query", [[math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf]])
    def test_non_finite_query_rejected(self, query):
        table = EmbeddingTable.from_dict({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        with pytest.raises(DataError, match="non-finite"):
            dense_retrieve(table, query, k=2)

    @settings(max_examples=150, deadline=None)
    @given(
        vectors=st.lists(
            st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=1, max_size=12
        ),
        query=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
        data=st.data(),
    )
    def test_matches_brute_force_ranking(self, vectors, query, data):
        # Small integer components make many scores tie, also at the k-th place.
        ids = data.draw(
            st.lists(
                st.text("abc", min_size=1, max_size=3),
                min_size=len(vectors),
                max_size=len(vectors),
                unique=True,
            )
        )
        table = EmbeddingTable.from_dict(dict(zip(ids, vectors)))
        k = data.draw(st.integers(1, len(ids) + 2))
        scores = {i: float(sum(a * b for a, b in zip(v, query))) for i, v in zip(ids, vectors)}
        expected = sorted(ids, key=lambda i: (-scores[i], i))[:k]
        got = dense_retrieve(table, query, k)
        assert [r.doc_id for r in got] == expected
        assert [r.rank for r in got] == list(range(1, len(expected) + 1))
        assert [r.score for r in got] == [scores[i] for i in expected]

    @settings(max_examples=50, deadline=None)
    @given(
        keys=st.lists(
            st.sampled_from(["d1", "d2", "d3", "q", "q d1", "x"]), unique=True
        ).filter(lambda keys: any(key.startswith("d") for key in keys)),
        data=st.data(),
    )
    def test_split_table_holds_the_corpus_rows_in_table_order(self, keys, data):
        from clarikit.retrieval import split_embeddings

        vectors = data.draw(
            st.lists(
                st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
                min_size=len(keys),
                max_size=len(keys),
            )
        )
        mixed = EmbeddingTable.from_dict(dict(zip(keys, vectors)))
        corpus = corpus_of({"d1": "one", "d2": "two", "d3": "three"})
        doc_keys = [key for key in keys if key in corpus]
        doc_table, _ = split_embeddings(mixed, corpus)
        assert doc_table.ids == tuple(doc_keys)
        assert doc_table.matrix.flags.c_contiguous
        for key in doc_keys:
            assert doc_table.vector(key).tobytes() == mixed.vector(key).tobytes()


class TestInterleave:
    def test_plain_merge(self):
        assert interleave_round_robin([["a", "b"], ["c", "d"]], 4) == ["a", "c", "b", "d"]

    def test_duplicate_skipped_not_backfilled(self):
        assert interleave_round_robin([["a", "b"], ["a", "c"]], 4) == ["a", "b", "c"]

    def test_cap(self):
        assert interleave_round_robin([["a"], ["b"], ["c"]], 2) == ["a", "b"]

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            interleave_round_robin([["a"]], 0)

    @settings(deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 20), max_size=8), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=30),
    )
    def test_matches_independent_oracle(self, lists, max_items):
        out = interleave_round_robin(lists, max_items)
        assert out == round_robin_oracle(lists, max_items)
        assert len(out) <= max_items
        assert len(set(out)) == len(out)

    @settings(deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 99), max_size=8, unique=True), min_size=1, max_size=4
        ).filter(lambda ls: len({x for l in ls for x in l}) == sum(len(l) for l in ls)),
        st.integers(min_value=1, max_value=30),
    )
    def test_subsequence_merge_on_disjoint_lists(self, lists, max_items):
        # With globally unique items, restricting the output to one list's
        # members must preserve that list's relative order exactly.
        out = interleave_round_robin(lists, max_items)
        for lst in lists:
            members = [x for x in out if x in lst]
            assert members == [x for x in lst if x in out]


class TestRetrievalConfig:
    def test_defaults(self):
        cfg = RetrievalConfig()
        assert cfg.bm25_k1 == 0.9
        assert cfg.bm25_b == 0.4
        assert cfg.candidate_n == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "quantum"},
            {"alignment": "sideways"},
            {"k": 0},
            {"mmr_lambda": 1.5},
            {"mmr_lambda": 0.5, "k": 60, "candidate_n": 50},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RetrievalConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"k": 10.5}, "k must be an integer, got 10.5"),
            ({"k": True}, "k must be an integer, got True"),
            ({"candidate_n": 50.0}, "candidate_n must be an integer, got 50.0"),
            ({"bm25_k1": math.nan}, "BM25 k1 must be in [0, 1e+09], got nan"),
            ({"bm25_k1": math.inf}, "BM25 k1 must be in [0, 1e+09], got inf"),
            ({"bm25_k1": -1.0}, "BM25 k1 must be in [0, 1e+09], got -1.0"),
            ({"bm25_k1": 1e308}, "BM25 k1 must be in [0, 1e+09], got 1e+308"),
            ({"bm25_b": math.nan}, "BM25 b must be in [0, 1], got nan"),
        ],
    )
    def test_invalid_numbers(self, kwargs, message):
        with pytest.raises(ValueError) as exc_info:
            RetrievalConfig(**kwargs)
        assert str(exc_info.value) == message


class TestBuildPool:
    def test_oracle_pool(self):
        inst = ClarificationInstance(id="i", query="penny", facets=("cast", "quotes"))
        cfg = RetrievalConfig(alignment="oracle", k=5)
        pool = build_pool(cfg, inst)
        assert [e.doc_id for e in pool.entries] == ["oracle:1", "oracle:2"]
        assert resolve_texts(pool, instance=inst) == ["cast", "quotes"]
        assert [sorted(e.provenance) for e in pool.entries] == [["F1"], ["F2"]]

    def test_closed_book_pool(self):
        inst = ClarificationInstance(id="i", query="penny", facets=("cast",))
        pool = build_pool(RetrievalConfig(alignment="closed_book", k=5), inst)
        assert pool.entries == ()
        assert resolve_texts(pool) == []

    def test_facet_aligned_provenance_union(self, tiny_corpus):
        # d1 tops both the bare query and the facet-expanded sub-query, so it
        # appears once with the union of both labels; d2 matches "penny" for
        # both sub-queries as well.
        index = build_inverted_index(tiny_corpus)
        inst = ClarificationInstance(id="i", query="penny", facets=("cast",))
        cfg = RetrievalConfig(alignment="facet_aligned", k=2)
        pool = build_pool(cfg, inst, index=index)
        by_id = {e.doc_id: e for e in pool.entries}
        assert set(by_id) == {"d1", "d2"}
        assert by_id["d1"].provenance == frozenset({"Q", "F1"})
        assert by_id["d2"].provenance == frozenset({"Q", "F1"})
        assert pool.entries[0].doc_id == "d1"

    def test_facet_aligned_sole_provenance(self, planted):
        # In the planted corpus each facet document is only reachable via its
        # own facet sub-query.
        inst = planted["instances"][0]
        pool = build_pool(planted["aligned"], inst, index=planted["index"])
        by_id = {e.doc_id: e for e in pool.entries}
        assert by_id["d0f0"].provenance == frozenset({"F1"})
        assert by_id["d0f1"].provenance == frozenset({"F2"})

    def test_query_only_provenance(self, tiny_corpus):
        index = build_inverted_index(tiny_corpus)
        inst = ClarificationInstance(id="i", query="penny", facets=("cast",))
        pool = build_pool(RetrievalConfig(alignment="query_only", k=2), inst, index=index)
        assert all(e.provenance == frozenset({"Q"}) for e in pool.entries)

    def test_pool_size_capped(self, planted):
        inst = planted["instances"][0]
        pool = build_pool(planted["aligned"], inst, index=planted["index"])
        assert len(pool.entries) <= planted["aligned"].k
        ids = [e.doc_id for e in pool.entries]
        assert len(set(ids)) == len(ids)

    def test_facet_aligned_labels_subset(self, planted):
        inst = planted["instances"][1]
        pool = build_pool(planted["aligned"], inst, index=planted["index"])
        allowed = {"Q"} | {f"F{j+1}" for j in range(len(inst.facets))}
        for entry in pool.entries:
            assert entry.provenance <= allowed

    def test_dense_pool_with_split_table(self):
        from clarikit.retrieval import split_embeddings

        corpus = corpus_of({"d1": "cast and crew", "d2": "weather page"})
        mixed = EmbeddingTable.from_dict(
            {
                "d1": [1.0, 0.0],
                "d2": [0.0, 1.0],
                "leiden": [1.0, 0.0],
                "leiden weather": [0.0, 1.0],
            }
        )
        doc_table, query_embedder = split_embeddings(mixed, corpus)
        # Query keys are never scanned as documents.
        assert set(doc_table.ids) == {"d1", "d2"}
        inst = ClarificationInstance(id="i", query="leiden", facets=("weather",))
        cfg = RetrievalConfig(mode="dense", alignment="facet_aligned", k=2)
        pool = build_pool(cfg, inst, table=doc_table, query_embedder=query_embedder)
        # The dense scan scores every document for every sub-query, so with
        # two docs and k=2 both entries carry both labels; the interleave
        # order still reflects per-sub-query ranking (d1 for Q, d2 for F1).
        assert [e.doc_id for e in pool.entries] == ["d1", "d2"]
        assert all(e.provenance == frozenset({"Q", "F1"}) for e in pool.entries)

    def test_split_embeddings_requires_doc_vectors(self):
        corpus = corpus_of({"d1": "text"})
        table = EmbeddingTable.from_dict({"other": [1.0]})
        from clarikit.retrieval import split_embeddings

        with pytest.raises(DataError, match="no corpus document vectors"):
            split_embeddings(table, corpus)

    @pytest.mark.parametrize(
        "facets, message",
        [
            (None, "cannot resolve 'oracle:2' without the instance"),
            (("a",), "'oracle:2' out of range for instance 'i'"),
            (("a", "b"), None),
        ],
    )
    def test_resolve_texts_oracle_pool_errors_in_entry_order(self, tiny_corpus, facets, message):
        # An oracle pool never reads the corpus, even where one is given.
        entries = (
            PoolEntry("oracle:2", 1.0, frozenset({"F2"})),
            PoolEntry("oracle:1", 1.0, frozenset({"F1"})),
        )
        cfg = RetrievalConfig(alignment="oracle")
        pool = EvidencePool(instance_id="i", entries=entries, builder_config=cfg)
        inst = None if facets is None else ClarificationInstance(id="i", query="q", facets=facets)
        if message is None:
            assert resolve_texts(pool, tiny_corpus, inst) == ["b", "a"]
            return
        with pytest.raises(DataError) as exc_info:
            resolve_texts(pool, tiny_corpus, inst)
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("doc_id", ["oracle", "oracle:", "oracle:x", "oracle:0", "d1"])
    def test_resolve_texts_oracle_pool_rejects_other_ids(self, doc_id):
        entries = (PoolEntry(doc_id, 1.0, frozenset({"F1"})),)
        pool = EvidencePool(
            instance_id="i", entries=entries, builder_config=RetrievalConfig(alignment="oracle")
        )
        inst = ClarificationInstance(id="i", query="q", facets=("a",))
        with pytest.raises(DataError, match=f"^'{doc_id}' out of range for instance 'i'$"):
            resolve_texts(pool, instance=inst)

    @pytest.mark.parametrize(
        "corpus, message",
        [
            (None, "cannot resolve 'd1' without a corpus"),
            ("tiny", "unknown document id 'oracle:1'"),
        ],
    )
    def test_resolve_texts_corpus_pool_errors(self, tiny_corpus, corpus, message):
        # Outside an oracle pool an "oracle:" id is a corpus id like any other.
        entries = (
            PoolEntry("d1", 1.0, frozenset({"Q"})),
            PoolEntry("oracle:1", 1.0, frozenset({"Q"})),
        )
        pool = EvidencePool(instance_id="i", entries=entries, builder_config=RetrievalConfig())
        inst = ClarificationInstance(id="i", query="q", facets=("a",))
        corpus = tiny_corpus if corpus == "tiny" else None
        with pytest.raises(DataError) as exc_info:
            resolve_texts(pool, corpus, inst)
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("doc_id", ["oracle:1", "oracle:x"])
    def test_corpus_doc_with_oracle_id_is_not_a_facet(self, doc_id):
        # A query-only pool that retrieves a document named like an oracle
        # entry gets the document's text, never the instance's facet.
        corpus = corpus_of({doc_id: "penny lane", "d2": "abbey road"})
        inst = ClarificationInstance(id="i", query="penny", facets=("secret facet",))
        cfg = RetrievalConfig(alignment="query_only", k=2)
        pool = build_pool(cfg, inst, index=build_inverted_index(corpus))
        assert [e.doc_id for e in pool.entries] == [doc_id]
        assert resolve_texts(pool, corpus, inst) == ["penny lane"]

    def test_dense_pool_missing_key_errors(self):
        table = EmbeddingTable.from_dict({"d1": [1.0, 0.0]})
        inst = ClarificationInstance(id="i", query="leiden", facets=("weather",))
        cfg = RetrievalConfig(mode="dense", alignment="query_only", k=1)
        with pytest.raises(DataError, match="leiden"):
            build_pool(cfg, inst, table=table)


# Text that stresses the case and punctuation rules of normalize at a join:
# Σ lowercases to ς only at the end of a word, İ to two code points, ß stays
# one; combining marks and soft hyphens attach to their neighbours and
# apostrophes count as case-ignorable.
_JOIN_CHARS = "aAzΣσςİıßé\u0301\u0308\u00ad'’.,!?-—«» \t\n0"
join_texts = st.text(st.sampled_from(_JOIN_CHARS) | st.characters(), max_size=12)

_POOL_PIECES = _NOISY_PIECES + ["zebra"]  # zebra occurs in no document
pool_texts = st.lists(st.sampled_from(_POOL_PIECES), min_size=1, max_size=4).map(" ".join)


@st.composite
def lexical_configs(draw):
    mmr_lambda = draw(st.none() | st.floats(0.0, 1.0))
    k = draw(st.integers(1, 8))
    candidate_n = draw(st.integers(k if mmr_lambda is not None else 1, 12))
    return RetrievalConfig(
        alignment=draw(st.sampled_from(["query_only", "facet_aligned"])),
        k=k,
        candidate_n=candidate_n,
        mmr_lambda=mmr_lambda,
        bm25_k1=draw(st.floats(0.0, 3.0)),
        bm25_b=draw(st.floats(0.0, 1.0)),
    )


class TestSharedQueryPrefix:
    """Lexical pools score the query once and add each facet's terms to it."""

    @settings(max_examples=500)
    @given(query=join_texts, facet=join_texts)
    @example(query="ΟΔΟΣ", facet="Σ")
    @example(query="aΣ", facet="\u0301b")
    @example(query="İ", facet="İx")
    @example(query="word.", facet=",next")
    @example(query="don'", facet="'t")
    @example(query="a\u00ad", facet="\u00adb")
    def test_normalize_of_a_join_is_the_concatenation(self, query, facet):
        assert normalize(f"{query} {facet}") == normalize(query) + normalize(facet)

    @settings(deadline=None, max_examples=300)
    @given(
        texts=noisy_corpora,
        query=pool_texts,
        facets=st.lists(pool_texts, min_size=1, max_size=4),
        config=lexical_configs(),
    )
    def test_matches_one_bm25_retrieve_per_sub_query(self, texts, query, facets, config):
        index = build_inverted_index(corpus_of(texts))
        inst = ClarificationInstance(id="i", query=query, facets=tuple(facets))
        if not normalize(query):
            for build in (build_pool, pool_oracle):
                with pytest.raises(DataError) as exc_info:
                    build(config, inst, index=index)
                assert str(exc_info.value) == "empty query"
            return
        pool = build_pool(config, inst, index=index)
        got = [
            (e.doc_id, rank, e.score.hex(), sorted(e.provenance))
            for rank, e in enumerate(pool.entries, start=1)
        ]
        assert got == pool_oracle(config, inst, index)

    NO_FACETS = "instance 'i' has no facets for aligned retrieval"
    NO_INDEX = "lexical retrieval requires an inverted index"

    @pytest.mark.parametrize(
        "mode, facets, with_index, error, message",
        [
            ("lexical", (), False, DataError, NO_FACETS),
            ("lexical", ("cast",), False, ValueError, NO_INDEX),
            ("lexical", ("cast",), True, DataError, "empty query"),
            ("dense", (), False, DataError, NO_FACETS),
            ("dense", ("cast",), True, ValueError, "dense retrieval requires an embedding table"),
        ],
    )
    def test_error_order(self, tiny_corpus, mode, facets, with_index, error, message):
        # Skip reasons land in report.json, so which error wins is fixed.
        index = build_inverted_index(tiny_corpus) if with_index else None
        inst = ClarificationInstance(id="i", query="!!!", facets=facets)
        with pytest.raises(error) as exc_info:
            build_pool(RetrievalConfig(mode=mode, alignment="facet_aligned"), inst, index=index)
        assert str(exc_info.value) == message


class TestMmr:
    @staticmethod
    def matrix_sim(matrix, ids):
        lookup = {doc_id: i for i, doc_id in enumerate(ids)}
        return lambda a, b: matrix[lookup[a]][lookup[b]]

    def test_lambda_one_is_relevance_order(self):
        candidates = [ScoredDoc("a", 3.0, 1), ScoredDoc("b", 2.0, 2), ScoredDoc("c", 1.0, 3)]
        sim = lambda a, b: 1.0
        out = mmr_rerank(candidates, 1.0, 2, sim)
        assert [d.doc_id for d in out] == ["a", "b"]

    def test_hand_case_duplicate_then_distinct(self):
        # Docs 1 and 2 identical (sim 1), doc 3 distinct; lambda 0.5, k 2:
        # step 1 picks rank 1; step 2 compares 0.5*0.5 - 0.5*1 = -0.25 for
        # doc 2 against 0.5*0 - 0.5*0 = 0 for doc 3, so doc 3 wins.
        candidates = [ScoredDoc("d1", 3.0, 1), ScoredDoc("d2", 2.0, 2), ScoredDoc("d3", 1.0, 3)]
        matrix = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        sim = self.matrix_sim(matrix, ["d1", "d2", "d3"])
        out = mmr_rerank(candidates, 0.5, 2, sim)
        assert [d.doc_id for d in out] == ["d1", "d3"]

    def test_full_k_is_permutation(self):
        candidates = [ScoredDoc(c, s, i + 1) for i, (c, s) in enumerate([("a", 1.0), ("b", 5.0), ("c", 3.0)])]
        out = mmr_rerank(candidates, 0.3, 3, lambda a, b: 0.5)
        assert sorted(d.doc_id for d in out) == ["a", "b", "c"]

    def test_first_pick_is_max_relevance_even_at_lambda_zero(self):
        candidates = [ScoredDoc("low", 1.0, 1), ScoredDoc("high", 9.0, 2)]
        out = mmr_rerank(candidates, 0.0, 1, lambda a, b: 0.0)
        assert out[0].doc_id == "high"

    def test_errors(self):
        with pytest.raises(DataError):
            mmr_rerank([], 0.5, 1, lambda a, b: 0.0)
        with pytest.raises(ValueError):
            mmr_rerank([ScoredDoc("a", 1.0, 1)], 2.0, 1, lambda a, b: 0.0)
        with pytest.raises(ValueError):
            mmr_rerank([ScoredDoc("a", 1.0, 1)], 0.5, 2, lambda a, b: 0.0)

    def test_no_duplicates_in_output(self):
        candidates = [ScoredDoc(f"d{i}", float(10 - i), i + 1) for i in range(6)]
        out = mmr_rerank(candidates, 0.5, 4, lambda a, b: 0.2)
        ids = [d.doc_id for d in out]
        assert len(set(ids)) == len(ids)

    def test_greedy_matches_brute_force_three_candidates(self):
        # All score orderings of three candidates against a fixed similarity
        # matrix; brute-force re-derives each greedy step by enumeration.
        import itertools

        matrix = [[1.0, 0.8, 0.1], [0.8, 1.0, 0.4], [0.1, 0.4, 1.0]]
        ids = ["x", "y", "z"]
        sim = self.matrix_sim(matrix, ids)
        for scores in itertools.permutations([3.0, 2.0, 1.0]):
            candidates = [ScoredDoc(ids[i], scores[i], i + 1) for i in range(3)]
            for lam in (0.0, 0.3, 0.5, 0.7, 1.0):
                for k in (1, 2, 3):
                    got = [d.doc_id for d in mmr_rerank(candidates, lam, k, sim)]
                    assert got == brute_force_mmr(candidates, lam, k, sim)

    @settings(deadline=None, max_examples=100)
    @given(
        n=st.integers(1, 8),
        data=st.data(),
        lam=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    )
    def test_greedy_matches_brute_force_one_sim_call_per_remaining(self, n, data, lam):
        # Coarse scores and similarities force ties on value; after each pick
        # but the last, every remaining candidate is compared once with it.
        k = data.draw(st.integers(1, n), label="k")
        scores = data.draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=n, max_size=n))
        grid = data.draw(
            st.lists(st.sampled_from([-0.5, 0.0, 0.5, 1.0]), min_size=n * n, max_size=n * n)
        )
        ids = [f"c{i}" for i in range(n)]
        sim = self.matrix_sim([grid[i * n : (i + 1) * n] for i in range(n)], ids)
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return sim(a, b)

        candidates = [ScoredDoc(ids[i], scores[i], i + 1) for i in range(n)]
        got = [d.doc_id for d in mmr_rerank(candidates, lam, k, counted)]
        assert got == brute_force_mmr(candidates, lam, k, sim)
        assert len(calls) == sum(n - s for s in range(1, k))

    def test_mmr_inside_build_pool(self, planted):
        from dataclasses import replace

        cfg = replace(planted["aligned"], mmr_lambda=0.5, candidate_n=10, k=4)
        inst = planted["instances"][3]
        pool = build_pool(cfg, inst, index=planted["index"])
        assert 0 < len(pool.entries) <= 4
        ids = [e.doc_id for e in pool.entries]
        assert len(set(ids)) == len(ids)

    def test_mmr_dense_pool_prefers_novelty(self):
        # Three near-duplicate docs along [1,0] and one distinct doc along
        # [0,1]; with lambda=0.5 the distinct doc must enter the top 2.
        table = EmbeddingTable.from_dict(
            {
                "a1": [1.0, 0.0],
                "a2": [0.98, 0.02],
                "a3": [0.97, 0.03],
                "b1": [0.0, 1.0],
                "q": [1.0, 0.05],
            }
        )
        inst = ClarificationInstance(id="i", query="q", facets=("x",))
        cfg = RetrievalConfig(
            mode="dense", alignment="query_only", k=2, candidate_n=4, mmr_lambda=0.5
        )
        doc_table = EmbeddingTable.from_dict(
            {k: table.vector(k) for k in table.ids if k != "q"}
        )
        pool = build_pool(cfg, inst, table=doc_table, query_embedder=table.vector)
        ids = [e.doc_id for e in pool.entries]
        assert ids[0] == "a1"
        assert "b1" in ids


def brute_force_mmr(candidates, lam, k, sim):
    """Re-derive each greedy step by enumerating all remaining candidates."""
    scores = [c.score for c in candidates]
    lo, hi = min(scores), max(scores)
    rel = [(s - lo) / (hi - lo) if hi > lo else 1.0 for s in scores]
    selected: list[int] = []
    remaining = list(range(len(candidates)))
    while len(selected) < k:
        options = []
        for pos in remaining:
            if selected:
                value = lam * rel[pos] - (1 - lam) * max(
                    sim(candidates[pos].doc_id, candidates[s].doc_id) for s in selected
                )
            else:
                value = rel[pos]
            options.append((value, pos))
        best_value = max(v for v, _ in options)
        pick = min(pos for v, pos in options if v == best_value)
        selected.append(pick)
        remaining.remove(pick)
    return [candidates[i].doc_id for i in selected]


class TestSimilarities:
    def test_embedding_similarity(self):
        table = EmbeddingTable.from_dict({"a": [1.0, 0.0], "b": [1.0, 0.0], "c": [0.0, 2.0]})
        sim = embedding_similarity(table)
        assert sim("a", "b") == pytest.approx(1.0)
        assert sim("a", "c") == pytest.approx(0.0)

    def test_tfidf_similarity(self, tiny_corpus):
        index = build_inverted_index(tiny_corpus)
        sim = tfidf_similarity(index)
        assert sim("d1", "d1") == pytest.approx(1.0)
        assert sim("d1", "d3") == 0.0
        assert 0.0 < sim("d1", "d2") < 1.0

    def test_tfidf_similarity_of_a_document_without_tokens(self):
        sim = tfidf_similarity(build_inverted_index(corpus_of({"d1": "cast", "blank": "?!"})))
        assert sim("d1", "blank") == sim("blank", "d1") == sim("blank", "blank") == 0.0

    @settings(deadline=None, max_examples=100)
    @given(texts=small_corpora)
    def test_tfidf_similarity_matches_brute_force_cosine(self, texts):
        sim = tfidf_similarity(build_inverted_index(corpus_of(texts)))
        for a in texts:
            for b in texts:
                assert sim(a, b) == pytest.approx(tfidf_cosine_oracle(texts, a, b), abs=1e-12)


class TestPoolValidation:
    def test_duplicate_ids_rejected(self):
        cfg = RetrievalConfig()
        entries = (
            PoolEntry("d1", 1.0, frozenset({"Q"})),
            PoolEntry("d1", 0.5, frozenset({"Q"})),
        )
        with pytest.raises(DataError, match="duplicate"):
            EvidencePool(instance_id="i", entries=entries, builder_config=cfg)

    def test_empty_provenance_rejected(self):
        cfg = RetrievalConfig()
        with pytest.raises(DataError, match="provenance"):
            EvidencePool(
                instance_id="i",
                entries=(PoolEntry("d1", 1.0, frozenset()),),
                builder_config=cfg,
            )
