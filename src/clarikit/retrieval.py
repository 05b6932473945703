"""Evidence-pool construction: lexical and dense retrieval, interleaving, MMR.

Pools are built per clarification instance in one of four alignment modes:

* query_only     - one retrieval round with the raw query
* facet_aligned  - one round per sub-query (the query, then the query
                   expanded with each ground-truth facet), round-robin
                   interleaved without back-filling duplicates
* oracle         - the ground-truth facets themselves as synthetic documents
* closed_book    - an empty pool

Everything here is deterministic: ranking ties break on ascending document
id, interleaving preserves within-list order, and MMR ties break on the
candidate's original rank.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Hashable, Sequence, TypeVar

import numpy as np

from .corpus import (
    ClarificationInstance,
    Corpus,
    EmbeddingTable,
    _check_count,
    _check_vectors,
    _is_finite_number,
    normalize,
)
from .errors import DataError
from .ioutils import atomic_write_text

__all__ = [
    "InvertedIndex",
    "ScoredDoc",
    "PoolEntry",
    "EvidencePool",
    "RetrievalConfig",
    "build_inverted_index",
    "bm25_retrieve",
    "dense_retrieve",
    "interleave_round_robin",
    "build_pool",
    "mmr_rerank",
    "embedding_similarity",
    "tfidf_similarity",
    "resolve_texts",
    "write_pools",
    "ORACLE_ID_PREFIX",
]

T = TypeVar("T")

ORACLE_ID_PREFIX = "oracle:"

QUERY_LABEL = "Q"


def facet_label(facet_index: int) -> str:
    """Provenance label for the 0-based facet index: F1, F2, ..."""
    return f"F{facet_index + 1}"


@dataclass(frozen=True)
class ScoredDoc:
    doc_id: str
    score: float
    rank: int


@dataclass(frozen=True, eq=False)
class InvertedIndex:
    """Term postings over a corpus, tokenized with the shared normalizer.

    Postings are stored once, as a term-major CSR (compressed sparse row)
    layout of the (term, document, tf) triples: the postings of term id
    ``t`` are ``ordinals[offsets[t]:offsets[t + 1]]`` with their ``tfs``,
    in ascending document ordinal.  ``tfs`` has the narrowest unsigned
    type that holds the longest run: uint8 up to a tf of 255, then uint16,
    then uint32.  The doc-major layout, the forward index, is derived from
    it on first use (see :attr:`forward`).

    ``term_ids`` maps each term to its id.  Indexes compare by identity,
    since a field-wise ``==`` would compare numpy arrays.
    """

    term_ids: dict[str, int]
    offsets: np.ndarray
    ordinals: np.ndarray
    tfs: np.ndarray
    doc_lengths: np.ndarray
    doc_ids: tuple[str, ...]
    avg_doc_len: float

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)

    @cached_property
    def ordinal_of(self) -> dict[str, int]:
        return {doc_id: i for i, doc_id in enumerate(self.doc_ids)}

    @cached_property
    def forward(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The forward index ``(doc_offsets, doc_terms, doc_tfs)``, read-only.

        The terms of document ordinal ``d`` are
        ``doc_terms[doc_offsets[d]:doc_offsets[d + 1]]`` with their
        ``doc_tfs``, in ascending term id; ``doc_tfs`` has the type of ``tfs``.
        """
        arrays = _transpose(self.offsets, self.ordinals, self.tfs, self.doc_count)
        for arr in arrays:
            arr.flags.writeable = False
        return arrays

    def posting(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(ordinals, tfs) of one term; empty arrays for an unknown term.

        The tfs have the index's narrowest unsigned type that holds them all.
        """
        t = self.term_ids.get(term)
        if t is None:
            return self.ordinals[:0], self.tfs[:0]
        lo, hi = self.offsets[t], self.offsets[t + 1]
        return self.ordinals[lo:hi], self.tfs[lo:hi]


def _transpose(
    offsets: np.ndarray, cols: np.ndarray, vals: np.ndarray, n_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR of the transposed matrix: (offsets, row ids, values) per column.

    Entry ``i`` gets the unique key ``cols[i] * n + i``, ``n`` entries in
    all.  One in-place sort orders the keys by column and then by entry, so
    within each column the rows stay ascending, and ``keys % n`` is the
    order in which to gather rows and values.  Column ``c`` starts at the
    first key at or above the probe ``c * n``.
    """
    n = len(cols)
    # Keys and probes are at most n_cols * n: int32 holds them below 2**31.
    key_type = np.int32 if n_cols * n < 2**31 else np.int64
    keys = np.multiply(cols, n, dtype=key_type)
    keys += np.arange(n, dtype=key_type)
    keys.sort()
    t_offsets = np.searchsorted(keys, np.arange(n_cols + 1, dtype=key_type) * n)
    keys %= n
    rows = np.repeat(np.arange(len(offsets) - 1, dtype=np.int32), np.diff(offsets))[keys]
    return t_offsets, rows, vals[keys]


class _TermIds(dict):
    """term -> id, where looking up a new term gives it the next id."""

    def __missing__(self, term: str) -> int:
        self[term] = term_id = len(self)
        return term_id


# The build's temporaries are one block of documents' ordinals and one chunk
# of sorted keys' run starts at a time: about 125 KB at 60 tokens a document.
_ORDINAL_BLOCK = 512  # documents
_RUN_CHUNK = 8192  # keys


def _add_ordinals(keys: np.ndarray, doc_lengths: np.ndarray) -> None:
    """Add to each token's key the ordinal of its document, a block at a time."""
    lo = 0
    for d0 in range(0, len(doc_lengths), _ORDINAL_BLOCK):
        block = doc_lengths[d0 : d0 + _ORDINAL_BLOCK]
        hi = lo + int(block.sum())
        keys[lo:hi] += np.repeat(np.arange(d0, d0 + len(block), dtype=np.int32), block)
        lo = hi


def _run_starts(keys: np.ndarray):
    """Yield, a chunk at a time, the positions in the sorted ``keys`` at
    which a run of equal keys starts.

    Each chunk is compared only when it is drawn, so between draws the
    caller may write over the chunks drawn so far, as long as the last key
    of the latest one, which the next chunk compares with, keeps its value.
    """
    n = len(keys)
    for lo in range(0, n, _RUN_CHUNK):
        chunk = keys[lo : lo + _RUN_CHUNK]
        is_start = np.empty(len(chunk), dtype=bool)
        is_start[0] = lo == 0 or keys[lo] != keys[lo - 1]
        np.not_equal(chunk[1:], chunk[:-1], out=is_start[1:])
        starts = np.flatnonzero(is_start)
        starts += lo
        yield starts


def _compact_runs(keys: np.ndarray) -> np.ndarray:
    """Move the first key of each run to the front of the sorted ``keys``,
    in order, and return the length of each run.

    A first pass counts the runs and finds the longest, so the lengths are
    allocated once, in the narrowest unsigned type that holds every one.
    The second writes each chunk's starting keys to the front: to positions
    below the chunk, and where it writes over a key the next chunk compares
    with, it writes that key's own value.  Each run's length is the
    distance from its start to the next one, or to the end; the start of
    the run still open is carried across chunks, even those with no start.
    """
    n = len(keys)
    n_runs = longest = last = 0
    for starts in _run_starts(keys):
        if len(starts):
            longest = max(longest, int(np.diff(starts, prepend=last).max()))
            last = int(starts[-1])
            n_runs += len(starts)
    tfs = np.empty(n_runs, dtype=np.min_scalar_type(max(longest, n - last)))
    n_runs = last = 0
    for starts in _run_starts(keys):
        m = len(starts)
        if not m:
            continue
        keys[n_runs : n_runs + m] = keys[starts]
        if n_runs:
            tfs[n_runs - 1] = starts[0] - last
        np.subtract(starts[1:], starts[:-1], out=tfs[n_runs : n_runs + m - 1], casting="unsafe")
        last = int(starts[-1])
        n_runs += m
    tfs[-1:] = n - last
    return tfs


def build_inverted_index(corpus: Corpus) -> InvertedIndex:
    """Index ``corpus``; term ids are given in first-seen token order.

    Every token becomes one key ``term * n_docs + ordinal``.  After one sort
    the keys are grouped by term, then by document, and each run of equal
    keys is one posting whose length is its tf.  Equal keys are
    indistinguishable, so the result does not depend on the sort algorithm.

    Int32 keys are made, sorted and compacted inside the buffer of the token
    stream, which ends up holding the postings' ordinals; so at its peak the
    build holds little more than the stream, the tfs and what it keeps.
    """
    if len(corpus) == 0:
        raise DataError("cannot index an empty corpus")
    term_ids = _TermIds()
    stream = array("i")  # the term id of every token, document by document
    lengths = array("q")
    for doc in corpus.docs:
        tokens = normalize(doc.text)
        lengths.append(len(tokens))
        stream.extend(map(term_ids.__getitem__, tokens))
    n_docs, n_tokens, n_terms = len(lengths), len(stream), len(term_ids)
    doc_lengths = np.array(lengths, dtype=np.int64)
    ids = np.frombuffer(stream, dtype=np.int32)  # a writable view of the stream
    # Every key is below n_terms * n_docs: int32 holds them below 2**31.
    if n_terms * n_docs < 2**31:
        keys = ids
        keys *= n_docs
    else:
        keys = np.multiply(ids, n_docs, dtype=np.int64)
    _add_ordinals(keys, doc_lengths)
    keys.sort()
    tfs = _compact_runs(keys)
    n_postings = len(tfs)
    # Term t's postings start at the first key at or above the probe t * n_docs.
    probes = np.arange(n_terms + 1, dtype=keys.dtype)
    probes *= n_docs
    offsets = np.searchsorted(keys[:n_postings], probes)
    np.remainder(keys[:n_postings], n_docs, out=ids[:n_postings], casting="unsafe")
    del keys, ids, probes
    del stream[n_postings:]  # no view of the buffer is left, so it may shrink
    ordinals = np.frombuffer(stream, dtype=np.int32)
    return InvertedIndex(
        term_ids=dict(term_ids),  # a plain dict: looking up an unknown term inserts nothing
        offsets=offsets,
        ordinals=ordinals,
        tfs=tfs,
        doc_lengths=doc_lengths,
        doc_ids=tuple(d.id for d in corpus.docs),
        avg_doc_len=n_tokens / n_docs,
    )


def _idf(doc_count: int, df: int) -> float:
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


# The largest k1 accepted.  With tf < 2**31 and fewer than 2**31 documents,
# idf < 22 and len(d) / avgdl < 2**31, so at k1 <= 1e9 every intermediate of
# the term formula stays below 22 * 2**31 * (1e9 + 1) < 1e20, and a term adds
# at most idf * (k1 + 1), since its norm is at least tf: no score overflows.
_BM25_K1_MAX = 1e9


def _check_bm25_params(k1: float, b: float) -> None:
    """BM25's free parameters: k1 in [0, 1e9], b in [0, 1]; NaN fails both."""
    if not (_is_finite_number(k1) and 0.0 <= k1 <= _BM25_K1_MAX):
        raise ValueError(f"BM25 k1 must be in [0, {_BM25_K1_MAX:.0e}], got {k1}")
    if not (_is_finite_number(b) and 0.0 <= b <= 1.0):
        raise ValueError(f"BM25 b must be in [0, 1], got {b}")


def _add_bm25(
    index: InvertedIndex,
    terms: Sequence[str],
    k1: float,
    b: float,
    scores: np.ndarray,
    matched: np.ndarray,
) -> None:
    """Add each term's BM25 contribution into ``scores``, in ``terms`` order,
    and mark the documents it reaches in ``matched``."""
    n_docs = index.doc_count
    for term in terms:
        ords, tf = index.posting(term)
        if not len(ords):
            continue
        # The scalar math.log and this exact operation order keep every
        # score bit-identical to the per-posting formula (see bm25_retrieve).
        idf = _idf(n_docs, len(ords))
        norm = tf + k1 * (1.0 - b + b * index.doc_lengths[ords] / index.avg_doc_len)
        scores[ords] += idf * tf * (k1 + 1.0) / norm
        matched[ords] = True


def _bm25_rankings(
    index: InvertedIndex,
    query: str,
    suffixes: Sequence[str],
    k: int,
    k1: float,
    b: float,
) -> list[list[ScoredDoc]]:
    """The BM25 top-k of ``query``, then of ``f"{query} {s}"`` for each suffix.

    The query's terms are scored once.  Each suffix copies that base and
    adds only its own terms: the additions a from-scratch scoring of the
    joined text makes, in the same order, because ``normalize(f"{q} {s}")
    == normalize(q) + normalize(s)``.  So every score keeps its bits.
    """
    terms = normalize(query)
    if not terms:
        raise DataError("empty query")
    base_scores = np.zeros(index.doc_count, dtype=np.float64)
    base_matched = np.zeros(index.doc_count, dtype=bool)
    _add_bm25(index, terms, k1, b, base_scores, base_matched)

    def ranking(scores: np.ndarray, matched: np.ndarray) -> list[ScoredDoc]:
        hits = np.flatnonzero(matched)
        return _top_k(hits, scores[hits], index.doc_ids, k)

    rankings = [ranking(base_scores, base_matched)]
    for suffix in suffixes:
        scores, matched = base_scores.copy(), base_matched.copy()
        _add_bm25(index, normalize(suffix), k1, b, scores, matched)
        rankings.append(ranking(scores, matched))
    return rankings


def bm25_retrieve(
    index: InvertedIndex,
    query: str,
    k: int,
    k1: float = 0.9,
    b: float = 0.4,
) -> list[ScoredDoc]:
    """Top-k documents by BM25.

    score(d) = sum over query tokens t of
        idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(d) / avgdl))
    with idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)).  Repeated query
    tokens contribute once per occurrence.  Ties break on ascending doc id;
    only documents sharing at least one term with the query are returned.
    """
    _check_count("k", k)
    _check_bm25_params(k1, b)
    (ranking,) = _bm25_rankings(index, query, (), k, k1, b)
    return ranking


def dense_retrieve(
    table: EmbeddingTable,
    query_vector: "np.ndarray | Sequence[float]",
    k: int,
) -> list[ScoredDoc]:
    """Top-k entries by inner product with the query vector.

    An exact scan over the table's matrix; ties break on ascending id.
    The query vector passes the check every table row passes, with the
    table's dimension: a wrong width, a ragged or non-numeric list and a
    non-finite value each raise :class:`DataError`.
    """
    _check_count("k", k)
    query = _check_vectors([("query vector", query_vector)], table.dim)[0]
    scores = table.matrix @ query
    return _top_k(np.arange(len(scores)), scores, table.ids, k)


def _top_k(rows: np.ndarray, scores: np.ndarray, ids: Sequence[str], k: int) -> list[ScoredDoc]:
    """The k best ``rows`` in (-score, id) order, ranked from 1.

    ``scores[i]`` is the score of row ``rows[i]``, whose id is ``ids[rows[i]]``.
    """
    if len(rows) > k:
        # Keep every row tied with the k-th score, so that the exact
        # (-score, id) order below decides which of them make the cut.
        kth = scores[np.argpartition(-scores, k - 1)[k - 1]]
        keep = scores >= kth
        rows, scores = rows[keep], scores[keep]
    ranked = sorted(
        zip(scores.tolist(), rows.tolist()), key=lambda item: (-item[0], ids[item[1]])
    )
    return [
        ScoredDoc(doc_id=ids[row], score=score, rank=rank)
        for rank, (score, row) in enumerate(ranked[:k], start=1)
    ]


def interleave_round_robin(
    lists: Sequence[Sequence[T]],
    max_items: int,
    key: Callable[[T], Hashable] | None = None,
) -> list[T]:
    """Merge ranked lists by taking rank 1 of each, then rank 2, and so on.

    An item already emitted (compared by ``key``, identity by default) is
    skipped without back-filling from deeper in its own list, so the output
    can be shorter than max_items.  Within-list relative order is preserved.
    """
    _check_count("max_items", max_items)
    keyfn = key if key is not None else lambda item: item
    seen: set[Hashable] = set()
    out: list[T] = []
    for depth in range(max((len(lst) for lst in lists), default=0)):
        for lst in lists:
            if depth >= len(lst):
                continue
            item = lst[depth]
            k = keyfn(item)
            if k in seen:
                continue
            seen.add(k)
            out.append(item)
            if len(out) == max_items:
                return out
    return out


@dataclass(frozen=True)
class RetrievalConfig:
    """Pool-builder configuration.

    mode: "lexical" (BM25) or "dense" (embedding inner product).
    alignment: "query_only", "facet_aligned", "oracle" or "closed_book".
    k: pool size; candidate_n: candidate count gathered before MMR.
    mmr_lambda: enables MMR reranking when set (1.0 = pure relevance).
    """

    mode: str = "lexical"
    alignment: str = "query_only"
    k: int = 10
    candidate_n: int = 50
    mmr_lambda: float | None = None
    bm25_k1: float = 0.9
    bm25_b: float = 0.4

    def __post_init__(self) -> None:
        if self.mode not in ("lexical", "dense"):
            raise ValueError(f"unknown retrieval mode {self.mode!r}")
        if self.alignment not in ("query_only", "facet_aligned", "oracle", "closed_book"):
            raise ValueError(f"unknown alignment {self.alignment!r}")
        for name in ("k", "candidate_n"):
            _check_count(name, getattr(self, name))
        if self.mmr_lambda is not None:
            if not (_is_finite_number(self.mmr_lambda) and 0.0 <= self.mmr_lambda <= 1.0):
                raise ValueError(f"mmr_lambda must be in [0, 1], got {self.mmr_lambda}")
            if self.k > self.candidate_n:
                raise ValueError(
                    f"k ({self.k}) must not exceed candidate_n ({self.candidate_n}) "
                    "when MMR is enabled"
                )
        _check_bm25_params(self.bm25_k1, self.bm25_b)


@dataclass(frozen=True)
class PoolEntry:
    doc_id: str
    score: float
    provenance: frozenset[str]


@dataclass(frozen=True)
class EvidencePool:
    instance_id: str
    entries: tuple[PoolEntry, ...]
    builder_config: RetrievalConfig

    def __post_init__(self) -> None:
        ids = [e.doc_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise DataError(f"pool for {self.instance_id!r} contains duplicate doc ids")
        for entry in self.entries:
            if not entry.provenance:
                raise DataError(
                    f"pool for {self.instance_id!r}: entry {entry.doc_id!r} "
                    "has empty provenance"
                )


QueryEmbedder = Callable[[str], "np.ndarray | Sequence[float]"]


def split_embeddings(
    table: EmbeddingTable, corpus: Corpus
) -> tuple[EmbeddingTable, QueryEmbedder]:
    """Split a mixed embedding table into document vectors and a query lookup.

    Entries keyed by a corpus document id become the scannable document
    table; every other entry is treated as a query/sub-query text vector.
    Returns (doc_table, query_embedder) ready for :func:`build_pool`, which
    keeps query keys from ever being retrieved as documents.
    """
    rows = [i for i, key in enumerate(table.ids) if key in corpus]
    if not rows:
        raise DataError("embedding table contains no corpus document vectors")
    doc_table = EmbeddingTable(ids=tuple(table.ids[i] for i in rows), matrix=table.matrix[rows])
    return doc_table, table.vector


def build_pool(
    config: RetrievalConfig,
    instance: ClarificationInstance,
    index: InvertedIndex | None = None,
    table: EmbeddingTable | None = None,
    query_embedder: QueryEmbedder | None = None,
) -> EvidencePool:
    """Build the evidence pool for one instance under the given config.

    For facet-aligned pools each sub-query fetches a full ranking and the
    rankings are interleaved; a document retrieved by several sub-queries
    keeps the score from the list that first emitted it and the union of
    all retrieving sub-query labels as provenance.  Lexical sub-queries
    score the query's terms once and share them (see ``_bm25_rankings``);
    each ranking equals :func:`bm25_retrieve` of its sub-query.

    In dense mode the table is scanned as the document collection, so it
    must hold document vectors only; supply query vectors through
    ``query_embedder`` (see :func:`split_embeddings`) unless the table's
    text keys double as them.
    """
    if config.alignment == "closed_book":
        return EvidencePool(instance_id=instance.id, entries=(), builder_config=config)
    if config.alignment == "oracle":
        entries = tuple(
            PoolEntry(
                doc_id=f"{ORACLE_ID_PREFIX}{i + 1}",
                score=1.0,
                provenance=frozenset({facet_label(i)}),
            )
            for i in range(len(instance.facets))
        )
        return EvidencePool(instance_id=instance.id, entries=entries, builder_config=config)

    use_mmr = config.mmr_lambda is not None
    fetch_n = config.candidate_n if use_mmr else config.k
    # Sub-query 0 is the query, labelled Q; sub-query i is the query and facet i, labelled Fi.
    facets = instance.facets if config.alignment == "facet_aligned" else ()
    if config.alignment == "facet_aligned" and not facets:
        raise DataError(f"instance {instance.id!r} has no facets for aligned retrieval")
    if config.mode == "lexical":
        if index is None:
            raise ValueError("lexical retrieval requires an inverted index")
        lists = _bm25_rankings(
            index, instance.query, facets, fetch_n, config.bm25_k1, config.bm25_b
        )
    else:
        if table is None:
            raise ValueError("dense retrieval requires an embedding table")
        # Without an embedder, sub-query vectors are looked up by the sub-query text itself.
        embed = query_embedder if query_embedder is not None else table.vector
        texts = [instance.query, *(f"{instance.query} {facet}" for facet in facets)]
        lists = [dense_retrieve(table, embed(text), fetch_n) for text in texts]

    provenance: dict[str, set[str]] = {}
    for label, ranking in zip([QUERY_LABEL, *map(facet_label, range(len(facets)))], lists):
        for doc in ranking:
            provenance.setdefault(doc.doc_id, set()).add(label)

    merged = interleave_round_robin(lists, fetch_n, key=lambda d: d.doc_id)

    if use_mmr and merged:
        sim = (
            embedding_similarity(table)
            if config.mode == "dense"
            else tfidf_similarity(index)
        )
        merged = mmr_rerank(merged, config.mmr_lambda, min(config.k, len(merged)), sim)

    entries = tuple(
        PoolEntry(
            doc_id=d.doc_id,
            score=d.score,
            provenance=frozenset(provenance[d.doc_id]),
        )
        for d in merged[: config.k]
    )
    return EvidencePool(instance_id=instance.id, entries=entries, builder_config=config)


def mmr_rerank(
    candidates: Sequence[ScoredDoc],
    lam: float,
    k: int,
    sim: Callable[[str, str], float],
) -> list[ScoredDoc]:
    """Greedy maximal-marginal-relevance selection of k candidates.

    Each step picks argmax of lam * rel - (1 - lam) * max similarity to the
    already-selected set, where rel is the min-max normalized candidate
    score.  The first pick is the most relevant candidate; ties break on
    original rank (candidate position).  Scores on the returned docs are
    the original relevance scores, so they need not be monotone.
    """
    if not (_is_finite_number(lam) and 0.0 <= lam <= 1.0):
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    _check_count("k", k, 0)
    if not candidates:
        if k > 0:
            raise DataError("cannot rerank an empty candidate list")
        return []
    if k > len(candidates):
        raise ValueError(f"k ({k}) exceeds candidate count ({len(candidates)})")
    scores = [c.score for c in candidates]
    lo, hi = min(scores), max(scores)
    if hi > lo:
        rel = [(s - lo) / (hi - lo) for s in scores]
    else:
        rel = [1.0] * len(scores)

    selected: list[int] = []
    remaining = list(range(len(candidates)))
    # penalty[pos]: max similarity of candidate pos to the selected set,
    # updated with one sim call per remaining candidate after each pick.
    penalty = [-math.inf] * len(candidates)
    while len(selected) < k:
        best_pos = None
        best_val = -math.inf
        for pos in remaining:
            if selected:
                value = lam * rel[pos] - (1.0 - lam) * penalty[pos]
            else:
                value = rel[pos]
            if value > best_val:
                best_val = value
                best_pos = pos
        selected.append(best_pos)
        remaining.remove(best_pos)
        if len(selected) < k:
            chosen = candidates[best_pos].doc_id
            for pos in remaining:
                penalty[pos] = max(penalty[pos], sim(candidates[pos].doc_id, chosen))
    return [
        ScoredDoc(doc_id=candidates[pos].doc_id, score=candidates[pos].score, rank=i + 1)
        for i, pos in enumerate(selected)
    ]


def embedding_similarity(table: EmbeddingTable) -> Callable[[str, str], float]:
    """Cosine similarity over an embedding table, keyed by doc id."""
    cache: dict[str, np.ndarray] = {}

    def unit(doc_id: str) -> np.ndarray:
        vec = cache.get(doc_id)
        if vec is None:
            raw = table.vector(doc_id)
            norm = float(np.linalg.norm(raw))
            vec = raw / norm if norm > 0 else raw
            cache[doc_id] = vec
        return vec

    def sim(a: str, b: str) -> float:
        return float(np.dot(unit(a), unit(b)))

    return sim


def tfidf_similarity(index: InvertedIndex) -> Callable[[str, str], float]:
    """Cosine over tf-idf document vectors derived from the inverted index.

    Fallback similarity for MMR on lexical-only runs; idf matches the
    lexical scorer's formula.  Vectors are built on first use from the
    forward index, so only the documents actually compared cost anything.
    """
    n_docs = index.doc_count
    cache: dict[str, tuple[dict[int, float], float]] = {}

    def vector(doc_id: str) -> tuple[dict[int, float], float]:
        hit = cache.get(doc_id)
        if hit is None:
            doc_offsets, doc_terms, doc_tfs = index.forward
            ordinal = index.ordinal_of[doc_id]
            lo, hi = doc_offsets[ordinal], doc_offsets[ordinal + 1]
            terms = doc_terms[lo:hi]
            dfs = index.offsets[terms + 1] - index.offsets[terms]
            vec = {
                t: tf * _idf(n_docs, df)
                for t, tf, df in zip(terms.tolist(), doc_tfs[lo:hi].tolist(), dfs.tolist())
            }
            hit = cache[doc_id] = (vec, math.sqrt(sum(w * w for w in vec.values())))
        return hit

    def sim(a: str, b: str) -> float:
        (va, na), (vb, nb) = vector(a), vector(b)
        if not va or not vb:
            return 0.0
        if len(vb) < len(va):
            va, vb = vb, va
        dot = sum(w * vb[t] for t, w in va.items() if t in vb)
        return dot / (na * nb)

    return sim


def resolve_texts(
    pool: EvidencePool,
    corpus: Corpus | None = None,
    instance: ClarificationInstance | None = None,
) -> list[str]:
    """Texts of all pool entries, in pool order.

    In an oracle pool every entry is synthetic: "oracle:<i>" resolves to the
    instance's i-th facet.  Every other pool looks all its ids up in the
    corpus, so a corpus document whose id starts with "oracle:" is a
    document like any other.
    """
    oracle = pool.builder_config.alignment == "oracle"
    texts = []
    for entry in pool.entries:
        doc_id = entry.doc_id
        if oracle:
            if instance is None:
                raise DataError(f"cannot resolve {doc_id!r} without the instance")
            position = doc_id[len(ORACLE_ID_PREFIX):]
            if not (
                doc_id.startswith(ORACLE_ID_PREFIX)
                and position.isdecimal()
                and 1 <= int(position) <= len(instance.facets)
            ):
                raise DataError(f"{doc_id!r} out of range for instance {instance.id!r}")
            texts.append(instance.facets[int(position) - 1])
        elif corpus is None:
            raise DataError(f"cannot resolve {doc_id!r} without a corpus")
        else:
            texts.append(corpus.doc(doc_id).text)
    return texts


# --- serialization -------------------------------------------------------


def write_pools(pools: Sequence[EvidencePool], path: str | Path) -> None:
    lines = (
        json.dumps(
            {
                "instance_id": p.instance_id,
                "config": asdict(p.builder_config),
                "entries": [
                    {"doc_id": e.doc_id, "score": e.score, "provenance": sorted(e.provenance)}
                    for e in p.entries
                ],
            },
            sort_keys=True,
        )
        + "\n"
        for p in pools
    )
    atomic_write_text(path, lines)
