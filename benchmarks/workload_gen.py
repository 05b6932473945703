"""Seeded synthetic inputs for the benchmark workloads.

Everything written here depends only on the seed and the scale, never on
the program under test: clarikit sees nothing but the files.  The one
exception is the stopword list, taken from ``clarikit.stopwords()`` so the
head of the Zipfian filler is what stopword filtering removes on real text.

Shapes (facet counts, planted-document counts, list lengths, the size of
the near-duplicate slice) come from fixed histograms that are shuffled by
the seed, so two seeds do the same amount of work on different content.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]

VOCAB = 20_000  # filler vocabulary, stopwords first
DOC_LEN = (45, 75)  # filler tokens per document, inclusive
FACET_VOCAB = 400  # words all retrieval instances draw their facets from
EVAL_FACET_VOCAB = 40  # small, so that many BLEU-1 scores tie
DIM = 64  # embedding dimension


@dataclass(frozen=True)
class ExperimentScale:
    """Sizes for the lexical experiment and MMR pool corpora."""

    docs: int
    instances: int


@dataclass(frozen=True)
class EvaluateScale:
    """Sizes for the generated-vs-truth evaluation lists."""

    lists: int


# Facets per instance and planted documents per facet, as (value, weight).
FACETS_PER_INSTANCE = ((2, 25), (3, 35), (4, 25), (5, 15))
PLANTED_PER_FACET = ((0, 10), (1, 30), (2, 35), (3, 25))
DISTRACTORS_PER_INSTANCE = ((3, 30), (4, 40), (5, 30))
# Evaluation list lengths: mostly 1-5 facets, with a tail up to 8.
LIST_LENGTHS = ((1, 10), (2, 20), (3, 25), (4, 20), (5, 14), (6, 6), (7, 3), (8, 2))
# Sizes of the near-duplicate lists whose BLEU-1 matrices are all-equal.
NEAR_DUP_SIZES = (3, 4, 5, 6, 7, 8)
NEAR_DUP_SHARE = 0.01


def make_vocab(size: int, stop: frozenset[str]) -> list[str]:
    """Stopwords (the Zipf head) followed by distinct pronounceable words."""
    words = sorted(stop)
    taken = set(words)
    n = len(_SYLLABLES)  # every synthetic word has at least two syllables
    while len(words) < size:
        digits, value = [], n
        while value:
            digits.append(_SYLLABLES[value % len(_SYLLABLES)])
            value //= len(_SYLLABLES)
        n += 1
        word = "".join(digits)
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _shuffled_histogram(rng: np.random.Generator, hist, count: int) -> list[int]:
    """``count`` values whose frequencies follow the weights exactly, shuffled."""
    total = sum(w for _, w in hist)
    values: list[int] = []
    for value, weight in hist:
        values.extend([value] * (count * weight // total))
    while len(values) < count:
        values.append(hist[len(values) % len(hist)][0])
    rng.shuffle(values)
    return values


class _Zipf:
    """Token sampler with p(rank) proportional to 1 / (rank + 2.7)."""

    def __init__(self, vocab: list[str], rng: np.random.Generator):
        weights = 1.0 / (np.arange(len(vocab)) + 2.7)
        self.cdf = np.cumsum(weights / weights.sum())
        self.vocab = vocab
        self.rng = rng

    def tokens(self, n: int) -> list[str]:
        ranks = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        ranks = np.minimum(ranks, len(self.vocab) - 1)
        return [self.vocab[r] for r in ranks]


def token_vector(token: str, dim: int, cache: dict[str, np.ndarray]) -> np.ndarray:
    """Hashed embedding of one token, seeded from a stable CRC32 of the token."""
    vec = cache.get(token)
    if vec is None:
        vec = np.random.default_rng(zlib.crc32(token.encode("utf-8"))).standard_normal(dim)
        cache[token] = vec
    return vec


def text_vector(
    text: str, dim: int, stop: frozenset[str], cache: dict[str, np.ndarray]
) -> list[float]:
    """Unit-norm bag-of-words vector of the non-stopword tokens, 6 decimals."""
    vec = np.zeros(dim)
    for token in text.split():
        if token not in stop:
            vec += token_vector(token, dim, cache)
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec /= norm
    return [round(float(x), 6) for x in vec]


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _insert(rng: np.random.Generator, filler: list[str], phrases: list[list[str]]) -> str:
    """Insert each phrase into the filler at a random token boundary."""
    tokens = list(filler)
    for phrase in phrases:
        at = int(rng.integers(0, len(tokens) + 1))
        tokens[at:at] = phrase
    return " ".join(tokens)


def write_retrieval_inputs(
    out_dir: Path,
    seed: int,
    scale: ExperimentScale,
    stop: frozenset[str],
    embeddings: bool,
) -> dict:
    """Corpus, instances and (optionally) embeddings for a retrieval workload.

    Each instance has a two-word query drawn from the filler distribution
    and facets of one or two words drawn from a vocabulary shared by all
    instances.  Each facet is planted, together with the query, in 0-3
    documents; 3-5 distractor documents hold the query twice but no facet.
    Returns the input sizes.
    """
    rng = np.random.default_rng(seed)
    vocab = make_vocab(VOCAB, stop)
    zipf = _Zipf(vocab, rng)
    first = len(stop)
    # Facets use mid-frequency words, like real topical terms.
    facet_pool = [
        vocab[int(i)]
        for i in rng.choice(np.arange(first + 300, first + 8000), FACET_VOCAB, replace=False)
    ]

    def filler() -> list[str]:
        return zipf.tokens(int(rng.integers(DOC_LEN[0], DOC_LEN[1] + 1)))

    texts: list[str] = []
    instances = []
    facet_counts = _shuffled_histogram(rng, FACETS_PER_INSTANCE, scale.instances)
    planted_counts = iter(
        _shuffled_histogram(rng, PLANTED_PER_FACET, sum(facet_counts))
    )
    distractor_counts = _shuffled_histogram(rng, DISTRACTORS_PER_INSTANCE, scale.instances)
    queries: set[str] = set()
    for i in range(scale.instances):
        while True:
            # Query words are drawn like text, so stopwords and other
            # frequent words are common, but a query is never all stopwords.
            words = zipf.tokens(2)
            query = " ".join(words)
            if words[0] != words[1] and not set(words) <= stop and query not in queries:
                queries.add(query)
                break
        chosen = rng.choice(len(facet_pool), 2 * facet_counts[i], replace=False)
        facets: list[str] = []
        for f in range(facet_counts[i]):
            words = [facet_pool[int(chosen[2 * f])]]
            if rng.random() < 0.5:
                words.append(facet_pool[int(chosen[2 * f + 1])])
            facets.append(" ".join(words))
        for facet in facets:
            for _ in range(next(planted_counts)):
                reps = int(rng.integers(1, 3))
                texts.append(_insert(rng, filler(), [query.split()] + [facet.split()] * reps))
        for _ in range(distractor_counts[i]):
            texts.append(_insert(rng, filler(), [query.split(), query.split()]))
        instances.append({"id": f"q{i:05d}", "query": query, "facets": facets})
    while len(texts) < scale.docs:
        texts.append(" ".join(filler()))
    order = rng.permutation(len(texts))
    docs = [{"id": f"d{n:06d}", "text": texts[int(j)]} for n, j in enumerate(order)]

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out_dir / "corpus.jsonl", docs)
    _write_jsonl(out_dir / "instances.jsonl", instances)
    sizes = {
        "docs": len(docs),
        "instances": len(instances),
        "facets": sum(len(inst["facets"]) for inst in instances),
        "tokens": sum(len(d["text"].split()) for d in docs),
    }
    if embeddings:
        cache: dict[str, np.ndarray] = {}
        rows = [{"id": d["id"], "vector": text_vector(d["text"], DIM, stop, cache)} for d in docs]
        keys: list[str] = []
        for inst in instances:
            keys.append(inst["query"])
            keys.extend(f"{inst['query']} {facet}" for facet in inst["facets"])
            keys.extend(inst["facets"])
        seen: set[str] = set()
        for key in keys:
            if key not in seen:
                seen.add(key)
                rows.append({"id": key, "vector": text_vector(key, DIM, stop, cache)})
        _write_jsonl(out_dir / "embeddings.jsonl", rows)
        sizes["embeddings"] = len(rows)
        sizes["dim"] = DIM
    return sizes


def write_evaluate_inputs(
    out_dir: Path, seed: int, scale: EvaluateScale, stop: frozenset[str]
) -> dict:
    """Truth instances, generated facet lists and facet embeddings.

    Facets are one to three words from a small shared vocabulary, so many
    BLEU-1 scores tie.  About 1% of the lists are near-duplicates such as
    ["red a1", "red a2", ...] against ["red b1", "red b2", ...], whose
    BLEU-1 matrices have every entry equal.  Returns the input sizes.
    """
    rng = np.random.default_rng(seed)
    vocab = make_vocab(len(stop) + 5000, stop)[len(stop) :]
    words = [vocab[int(i)] for i in rng.choice(len(vocab), EVAL_FACET_VOCAB, replace=False)]
    chosen = set(words)
    spare = [w for w in vocab if w not in chosen]

    def facet() -> str:
        n = int(rng.integers(1, 4))
        return " ".join(words[int(i)] for i in rng.choice(len(words), n, replace=False))

    def facet_list(n: int) -> list[str]:
        out: list[str] = []
        while len(out) < n:
            f = facet()
            if f not in out:
                out.append(f)
        return out

    n_dup = max(len(NEAR_DUP_SIZES), round(scale.lists * NEAR_DUP_SHARE))
    dup_sizes = [NEAR_DUP_SIZES[i % len(NEAR_DUP_SIZES)] for i in range(n_dup)]
    is_dup = [True] * n_dup + [False] * (scale.lists - n_dup)
    rng.shuffle(is_dup)
    truth_lengths = iter(_shuffled_histogram(rng, LIST_LENGTHS, scale.lists))
    gen_lengths = iter(_shuffled_histogram(rng, LIST_LENGTHS, scale.lists))
    dup_sizes_iter = iter(dup_sizes)
    spare_iter = iter(spare[int(rng.integers(0, 100)) :])

    truth_rows, gen_rows, dup_ids = [], [], []
    for i in range(scale.lists):
        t_len, g_len = next(truth_lengths), next(gen_lengths)
        if is_dup[i]:
            size = next(dup_sizes_iter)
            head = words[int(rng.integers(0, len(words)))]
            truth = [f"{head} {next(spare_iter)}" for _ in range(size)]
            generated = [f"{head} {next(spare_iter)}" for _ in range(size)]
            dup_ids.append(f"e{i:05d}")
        else:
            truth = facet_list(t_len)
            # A generated list mixes copies of truth facets with fresh ones.
            generated = []
            for _ in range(g_len):
                f = truth[int(rng.integers(0, len(truth)))] if rng.random() < 0.4 else facet()
                if f not in generated:
                    generated.append(f)
        truth_rows.append({"id": f"e{i:05d}", "query": facet(), "facets": truth})
        gen_rows.append({"id": f"e{i:05d}", "facets": generated})

    cache: dict[str, np.ndarray] = {}
    keys: list[str] = []
    seen: set[str] = set()
    for row in truth_rows + gen_rows:
        for f in row["facets"]:
            if f not in seen:
                seen.add(f)
                keys.append(f)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out_dir / "truth.jsonl", truth_rows)
    _write_jsonl(out_dir / "generated.jsonl", gen_rows)
    # Read by the benchmark's checks only, never by clarikit.
    (out_dir / "near_duplicates.json").write_text(json.dumps(dup_ids) + "\n", encoding="utf-8")
    _write_jsonl(
        out_dir / "embeddings.jsonl",
        ({"id": k, "vector": text_vector(k, DIM, stop, cache)} for k in keys),
    )
    return {
        "lists": scale.lists,
        "near_duplicate_lists": n_dup,
        "facets": sum(len(r["facets"]) for r in truth_rows + gen_rows),
        "embeddings": len(keys),
        "dim": DIM,
    }
