"""Facet-set evaluation metrics.

Generated and ground-truth facet lists are compared after shared
normalization (see :func:`clarikit.corpus.normalize`):

* term_overlap  - word-level precision/recall/F1 over the union of facet tokens
* exact_match   - facet-level precision/recall/F1 over whole normalized facets
* set_bleu      - per-order 1..4 sentence BLEU averaged over best-matching
                  facet pairs, with unmatched facets scoring zero
* set_sim       - embedding cosine averaged over the same best-matching pairs,
                  with a pluggable embedder

All four read one comparison: each facet is tokenized once, one table holds
BLEU-1..4 per (generated, truth) pair, and one assignment is solved on its
BLEU-1 column.  A facet counts its order-k n-grams only when a cell first
reads them: a cell reads order k only when both facets have at least k
tokens, and a cell whose facets share no token is scored zero from their
token sets, before either facet counts a gram.  Set-Sim hands the
canonical text straight to the lookup inside table_embedder and
indicator_embedder, since normalizing it again would give it back.  A
punctuation-only facet normalizes to "" and earns no exact-match and no
indicator Set-Sim credit.

Pair matching forms min(|F|, |G|) pairs maximizing total BLEU-1.  A total
is the math.fsum of its scores (the exact sum rounded once), totals are
compared after rounding, and ties go to the lexicographically smallest
(generated, truth) index sequence.  The rounding matters: for
['alpha beta gamma', 'alpha beta cast'] vs ['gamma', 'alpha beta gamma'],
(0,0),(1,1) sums to 1 - 2**-54, which rounds to 1.0, ties with (0,1),(1,0)
at exactly 1.0 and wins.  The matcher is an exact dynamic program over
(generated row, set of used truth columns) with at most
|F| * sum(C(|G|, k) for k <= min(|F|, |G|)) states: still exponential
when both lists are long.  Its subset masks are memoised per
(|G|, min(|F|, |G|)) for |G| <= 10, about 0.3 MB when every such shape
has been seen.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence, TypeVar

import numpy as np

from .corpus import _check_count, normalize
from .errors import DataError

__all__ = [
    "PRF",
    "FacetAssignment",
    "MetricReport",
    "METRIC_COLUMNS",
    "normalized_facet",
    "cosine",
    "term_overlap",
    "exact_match",
    "bleu_n",
    "match_facet_pairs",
    "set_bleu",
    "set_sim",
    "evaluate_instance",
    "indicator_embedder",
    "table_embedder",
    "mean_report",
]

Embedder = Callable[[str], "np.ndarray | Sequence[float]"]
_T = TypeVar("_T")


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "PRF":
        if precision + recall > 0:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
        return cls(precision=precision, recall=recall, f1=f1)


@dataclass(frozen=True)
class FacetAssignment:
    """Best BLEU-1 pairing between generated and ground-truth facets.

    ``pairs`` holds (generated index, truth index, BLEU-1 score) sorted by
    generated index; exactly min(|F|, |G|) pairs are formed.
    """

    pairs: tuple[tuple[int, int, float], ...]


# Canonical column order for CSV/JSON report emission.
METRIC_COLUMNS = (
    "term_overlap_precision",
    "term_overlap_recall",
    "term_overlap_f1",
    "exact_match_precision",
    "exact_match_recall",
    "exact_match_f1",
    "set_sim_precision",
    "set_sim_recall",
    "set_sim_f1",
    "set_bleu1",
    "set_bleu2",
    "set_bleu3",
    "set_bleu4",
)


@dataclass(frozen=True)
class MetricReport:
    term_overlap: PRF
    exact_match: PRF
    set_sim: PRF
    set_bleu: tuple[float, float, float, float]

    def to_flat_dict(self) -> dict[str, float]:
        prfs = (self.term_overlap, self.exact_match, self.set_sim)
        values = [x for prf in prfs for x in (prf.precision, prf.recall, prf.f1)]
        return dict(zip(METRIC_COLUMNS, [*values, *self.set_bleu]))

    @classmethod
    def from_flat_dict(cls, flat: dict[str, float]) -> "MetricReport":
        v = [flat[col] for col in METRIC_COLUMNS]
        return cls(PRF(*v[0:3]), PRF(*v[3:6]), PRF(*v[6:9]), (v[9], v[10], v[11], v[12]))


def normalized_facet(facet: str) -> str:
    """Canonical single-space form of a facet, used for facet-level equality."""
    return " ".join(normalize(facet))


def cosine(u: "np.ndarray | Sequence[float]", v: "np.ndarray | Sequence[float]") -> float:
    """Cosine similarity; zero-norm vectors compare as 0.0."""
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"vector shapes differ: {a.shape} vs {b.shape}")
    return _cosine((a, float(np.linalg.norm(a))), (b, float(np.linalg.norm(b))))


def _cosine(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float]) -> float:
    """Cosine of two (vector, norm) pairs; a zero norm compares as 0.0."""
    (u, nu), (v, nv) = a, b
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


_NO_BLEU = (0.0, 0.0, 0.0, 0.0)


class _Facet:
    """One facet, tokenized once: its tokens, canonical text and n-gram counts."""

    __slots__ = ("raw", "tokens", "text", "_grams")

    def __init__(self, raw: str):
        self.raw = raw
        self.tokens = normalize(raw)
        self.text = " ".join(self.tokens)
        self._grams: list[Counter] = []

    def grams(self, order: int) -> Counter:
        """Counts of the facet's n-grams of this order, built on first read."""
        grams, tokens = self._grams, self.tokens
        while len(grams) < order:
            k = len(grams) + 1
            # Unigrams are counted as plain tokens, longer n-grams as tuples.
            grams.append(Counter(tokens if k == 1 else zip(*(tokens[i:] for i in range(k)))))
        return grams[order - 1]


def _bleu(cand: _Facet, ref: _Facet) -> tuple[float, float, float, float]:
    """Sentence BLEU of orders 1..4 in one pass (see :func:`bleu_n`).

    Order k is counted only when both facets have at least k tokens; a
    shorter facet has no k-grams, so that order matches nothing.  A cell
    with no shared unigram returns before any higher order is built.
    """
    c, r = len(cand.tokens), len(ref.tokens)
    matches = _matches(cand, ref, 1) if c and r else 0
    if not matches:
        return _NO_BLEU
    bp = math.exp(1 - r / c) if c < r else 1.0
    log_sum = math.log(matches / c)
    scores = [bp * math.exp(log_sum)]
    shared = min(c, r)
    for order in (2, 3, 4):
        matches = _matches(cand, ref, order) if order <= shared else 0
        log_sum += math.log((matches + 1) / (max(c - order + 1, 1) + 1))
        scores.append(bp * math.exp(log_sum / order))
    return (scores[0], scores[1], scores[2], scores[3])


def _matches(cand: _Facet, ref: _Facet, order: int) -> int:
    """Clipped count of the candidate's n-grams of this order found in the reference."""
    ref_grams = ref.grams(order)
    return sum(min(count, ref_grams[gram]) for gram, count in cand.grams(order).items())


# Subset masks are memoised for truth lists up to this length only, which
# bounds the memo at 55 entries (about 0.3 MB); longer lists recompute them.
_MEMO_MAX_TRUTH = 10


@lru_cache(maxsize=None)
def _subset_masks(n: int, n_pairs: int) -> tuple[tuple[int, ...], ...]:
    """Bit masks of the k-subsets of n columns, in combinations order, for k <= n_pairs."""
    return tuple(
        tuple(sum(1 << t for t in cols) for cols in itertools.combinations(range(n), k))
        for k in range(n_pairs + 1)
    )


def _best_pairs(score: list[list[float]]) -> list[tuple[int, int]]:
    """Lexicographically smallest min(m, n) pairs with the largest fsum total.

    Scores become integers over one power-of-two denominator, so sums are
    exact; dividing a sum by that denominator rounds it once, as math.fsum
    does. ``best[i][mask]`` is the largest sum rows i.. can still add when
    the truth columns in ``mask`` are taken, kept only for states that can
    still complete all pairs. The walk then takes, row by row, the first
    move whose best rounded total equals the optimum: free columns
    ascending, then leaving the row unmatched.
    """
    m, n = len(score), len(score[0])
    n_pairs = min(m, n)
    ratios = [[value.as_integer_ratio() for value in row] for row in score]
    scale = max(den for row in ratios for _, den in row)
    gain = [[num * (scale // den) for num, den in row] for row in ratios]
    subsets = _subset_masks if n <= _MEMO_MAX_TRUTH else _subset_masks.__wrapped__
    masks = subsets(n, n_pairs)
    best = [{} for _ in range(m)] + [dict.fromkeys(masks[n_pairs], 0)]
    for i in range(m - 1, -1, -1):
        row, later = best[i], best[i + 1]
        for k in range(max(0, n_pairs - (m - i)), min(i, n_pairs) + 1):
            can_skip = m - i - 1 >= n_pairs - k
            for mask in masks[k]:
                top = later[mask] if can_skip else -1
                if k < n_pairs:
                    for t, value in enumerate(gain[i]):
                        if not mask >> t & 1:
                            total = value + later[mask | 1 << t]
                            if total > top:
                                top = total
                row[mask] = top

    target = best[0][0] / scale
    pairs: list[tuple[int, int]] = []
    mask = prefix = 0
    for i in range(m):
        if len(pairs) == n_pairs:
            break
        for t, value in enumerate(gain[i]):
            if mask >> t & 1:
                continue
            if (prefix + value + best[i + 1][mask | 1 << t]) / scale == target:
                pairs.append((i, t))
                mask |= 1 << t
                prefix += value
                break
    return pairs


class _Comparison:
    """One generated-vs-truth comparison, which every metric reads.

    Each facet is tokenized once; the BLEU table and the assignment on its
    BLEU-1 column are built once, on first use.
    """

    def __init__(self, generated: Sequence[str], truth: Sequence[str]):
        for side, facets in (("generated", generated), ("truth", truth)):
            if not facets:
                raise DataError(f"{side} facet list is empty")
        self.generated = [_Facet(f) for f in generated]
        self.truth = [_Facet(g) for g in truth]

    @cached_property
    def bleu(self) -> list[list[tuple[float, float, float, float]]]:
        # A cell whose facets share no token is _bleu's zero-unigram exit,
        # taken here before either facet counts a gram.
        truth = [(g, set(g.tokens)) for g in self.truth]
        return [
            [_NO_BLEU if vocab.isdisjoint(f.tokens) else _bleu(f, g) for g, vocab in truth]
            for f in self.generated
        ]

    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        return _best_pairs([[cell[0] for cell in row] for row in self.bleu])

    def term_overlap(self) -> PRF:
        return _overlap(
            {token for f in self.generated for token in f.tokens},
            {token for g in self.truth for token in g.tokens},
        )

    def exact_match(self) -> PRF:
        return _overlap(
            {f.text for f in self.generated} - {""}, {g.text for g in self.truth} - {""}
        )

    def set_bleu(self) -> tuple[float, float, float, float]:
        denom = max(len(self.generated), len(self.truth))
        b1, b2, b3, b4 = (
            math.fsum(self.bleu[g][t][k] for g, t in self.pairs) / denom for k in range(4)
        )
        return (b1, b2, b3, b4)

    def set_sim(self, embedder: Embedder | None) -> PRF:
        """Without an embedder, pairs score what :func:`indicator_embedder`
        gives them: 1.0 for equal non-empty canonical texts, else 0.0."""
        sims = []
        for g, t in self.pairs:
            a, b = self.generated[g], self.truth[t]
            if embedder is None:
                sims.append(1.0 if a.text == b.text != "" else 0.0)
            else:
                sims.append(min(max(_similarity(embedder, a, b), 0.0), 1.0))
        total = math.fsum(sims)
        return PRF.from_pr(total / len(self.generated), total / len(self.truth))


def _overlap(generated: set[str], truth: set[str]) -> PRF:
    """Precision and recall of one side's set against the other's."""
    for side, items in (("generated", generated), ("truth", truth)):
        if not items:
            raise DataError(f"{side} facets normalize to an empty token set")
    inter = len(generated & truth)
    return PRF.from_pr(inter / len(generated), inter / len(truth))


def _similarity(embedder: Embedder, a: _Facet, b: _Facet) -> float:
    # The embedders made here also carry a lookup by canonical text, which
    # facet.text already is, so it is not normalized a second time.  That
    # lookup gives each vector with its norm, taken once per text.
    lookup = getattr(embedder, "_lookup", None)
    if lookup is None:
        return cosine(_embed(embedder, a), _embed(embedder, b))
    return _cosine(_embed(lookup, a), _embed(lookup, b))


def _embed(lookup: Callable[[str], _T], facet: _Facet) -> _T:
    try:
        return lookup(facet.text)
    except Exception as exc:
        raise DataError(f"embedder failed for facet {facet.raw!r}: {exc}") from exc


def term_overlap(generated: Sequence[str], truth: Sequence[str]) -> PRF:
    """Word-level overlap between the token sets of the two facet lists."""
    return _Comparison(generated, truth).term_overlap()


def exact_match(generated: Sequence[str], truth: Sequence[str]) -> PRF:
    """Facet-level overlap: whole facets equal after normalization, sets deduplicated."""
    return _Comparison(generated, truth).exact_match()


def bleu_n(candidate: str, reference: str, n: int) -> float:
    """Sentence BLEU with uniform weights over orders 1..n.

    Orders >= 2 use add-one smoothing, (matches+1)/(total+1), with the total
    floored at one n-gram so degenerate short candidates score below 1.0
    rather than dividing by zero.  Brevity penalty is exp(1 - r/c) for c < r.
    An order-1 precision of zero short-circuits to 0.0.
    """
    _check_count("n", n, 1, 4)
    return _bleu(_Facet(candidate), _Facet(reference))[n - 1]


def match_facet_pairs(generated: Sequence[str], truth: Sequence[str]) -> FacetAssignment:
    """Optimal BLEU-1 assignment between the two facet lists (see the module docstring)."""
    comparison = _Comparison(generated, truth)
    return FacetAssignment(tuple((g, t, comparison.bleu[g][t][0]) for g, t in comparison.pairs))


def set_bleu(generated: Sequence[str], truth: Sequence[str]) -> tuple[float, float, float, float]:
    """Mean BLEU-1..4 over matched pairs; unmatched facets count as zeros."""
    return _Comparison(generated, truth).set_bleu()


def set_sim(generated: Sequence[str], truth: Sequence[str], embedder: Embedder) -> PRF:
    """Embedding-similarity counterpart of set_bleu over the same pairing.

    Facet texts are normalized before embedding; per-pair similarity is the
    cosine of the two facet vectors clipped to [0, 1].
    """
    return _Comparison(generated, truth).set_sim(embedder)


def indicator_embedder(*facet_lists: Sequence[str]) -> Embedder:
    """One-hot embedder over the distinct non-empty normalized facets given.

    Identical normalized facets get cosine 1, distinct ones 0, so set_sim
    degrades to an exact-match similarity when no real embeddings exist.
    Unknown strings and the empty string, which is what a punctuation-only
    facet normalizes to, map to the zero vector (similarity 0).
    """
    vocab = sorted({normalized_facet(f) for lst in facet_lists for f in lst} - {""})
    position = {text: i for i, text in enumerate(vocab)}
    dim = max(len(vocab), 1)

    def vector(text: str) -> np.ndarray:
        vec = np.zeros(dim, dtype=np.float64)
        idx = position.get(text)
        if idx is not None:
            vec[idx] = 1.0
        return vec

    def embed(text: str) -> np.ndarray:
        return vector(normalized_facet(text))

    embed._lookup = _with_norms(vector)
    return embed


def table_embedder(table) -> Embedder:
    """Embedder that looks facets up in an EmbeddingTable by normalized text."""

    def embed(text: str) -> np.ndarray:
        return table.vector(normalized_facet(text))

    embed._lookup = _with_norms(table.vector)
    return embed


def _with_norms(vector: Callable[[str], np.ndarray]) -> Callable[[str], tuple[np.ndarray, float]]:
    """Lookup of (vector, norm) by canonical text, with norms cached per text.

    Each norm is the ``np.linalg.norm`` that :func:`cosine` takes, so a
    cosine of looked-up pairs keeps its bits.  Only the norms are kept: a
    cached vector would cost a numpy object per text.
    """
    norms: dict[str, float] = {}

    def lookup(text: str) -> tuple[np.ndarray, float]:
        vec = vector(text)
        norm = norms.get(text)
        if norm is None:
            norm = norms[text] = float(np.linalg.norm(vec))
        return vec, norm

    return lookup


def evaluate_instance(
    generated: Sequence[str],
    truth: Sequence[str],
    embedder: Embedder | None = None,
) -> MetricReport:
    """Full metric suite for one generated-vs-truth facet comparison.

    Without an embedder, set_sim scores the indicator embedding over the
    two facet lists, i.e. exact match of the normalized facets.
    """
    comparison = _Comparison(generated, truth)
    return MetricReport(
        term_overlap=comparison.term_overlap(),
        exact_match=comparison.exact_match(),
        set_sim=comparison.set_sim(embedder),
        set_bleu=comparison.set_bleu(),
    )


def mean_report(reports: Sequence[MetricReport]) -> MetricReport:
    """Field-wise mean of metric reports; an empty sequence raises :class:`DataError`."""
    if not reports:
        raise DataError("no metric reports to average")
    return _mean_of_columns(list(zip(*(report.to_flat_dict().values() for report in reports))))


def _mean_of_columns(columns: Sequence[Sequence[float]]) -> MetricReport:
    """Report of the column means, one non-empty column per METRIC_COLUMNS entry in order.

    Each mean is the math.fsum of its column over the column's length.
    """
    return MetricReport.from_flat_dict(
        {col: math.fsum(values) / len(values) for col, values in zip(METRIC_COLUMNS, columns)}
    )
