"""Facet generators: an offline extractive baseline, a remote HTTP client,
and round-robin fusion of facet lists.

The remote wire protocol (HTTP POST, JSON) is:

    request:  {"query": str, "evidence": [str], "max_facets": int,
               "emit_question": bool}
    response: {"question": str|null, "facets": [str]}   (status 200)

Any generator plugs into the harness as a callable taking a
GeneratorRequest and returning a Clarification.
"""

from __future__ import annotations

import heapq
import logging
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .corpus import _check_count, normalize
from .errors import GeneratorError, RetriableGeneratorError
from .retrieval import interleave_round_robin

__all__ = [
    "Clarification",
    "GeneratorRequest",
    "DEFAULT_QUESTION",
    "extractive_generate",
    "remote_generate",
    "fuse_round_robin",
]

logger = logging.getLogger(__name__)

DEFAULT_QUESTION = "Select one to refine your search"


@dataclass(frozen=True)
class Clarification:
    question: str | None
    facets: tuple[str, ...]


@dataclass(frozen=True)
class GeneratorRequest:
    query: str
    evidence_texts: tuple[str, ...]
    max_facets: int = 5
    emit_question: bool = False

    def __post_init__(self) -> None:
        _check_count("max_facets", self.max_facets)


def extractive_generate(request: GeneratorRequest) -> Clarification:
    """Deterministic extractive baseline: frequent evidence n-grams as facets.

    Candidates are the unigrams and bigrams of the stopword-filtered
    evidence token streams, minus n-grams made up entirely of query tokens.
    Each candidate scores occurrence count times the number of distinct
    evidence texts containing it; ties go to the earlier first occurrence,
    ordered by (text, position, length), so a unigram precedes the bigram
    that starts at the same position.  Faithful by construction: every
    emitted facet appears contiguously in some evidence text's normalized
    token stream.

    Cost: linear in the evidence tokens (two ``Counter`` updates per text)
    plus a top-``max_facets`` selection over the distinct candidates.
    """
    if not request.evidence_texts:
        raise GeneratorError("no evidence")
    query_tokens = set(normalize(request.query))

    # A unigram is its token, a bigram a 2-tuple; tokens hold no whitespace,
    # so " ".join tells them apart.  ``counts`` keeps first-insertion order,
    # and each text's grams go in by position with the unigram first, so
    # iterating ``counts`` visits grams in first-seen order.
    counts: Counter[str | tuple[str, str]] = Counter()
    docs: Counter[str | tuple[str, str]] = Counter()
    for text in request.evidence_texts:
        tokens = normalize(text, drop_stopwords=True)
        grams: list = [None] * max(2 * len(tokens) - 1, 0)
        grams[::2] = tokens
        grams[1::2] = zip(tokens, tokens[1:])
        counts.update(grams)
        docs.update(set(grams))

    # Drop the query-only candidates: the query unigrams and the bigrams
    # over them, enumerated from whichever side is smaller.
    present = query_tokens.intersection(counts)
    if len(present) ** 2 <= len(counts):
        pairs = [(a, b) for a in present for b in present]
    else:
        pairs = [g for g in counts if type(g) is tuple and present.issuperset(g)]
    for gram in [*present, *pairs]:
        counts.pop(gram, None)
    if not counts:
        raise GeneratorError("no candidates")

    # Stable, so equal scores keep first-seen order.
    ranked = heapq.nsmallest(request.max_facets, counts, key=lambda g: -counts[g] * docs[g])
    facets = tuple(g if type(g) is str else " ".join(g) for g in ranked)
    question = DEFAULT_QUESTION if request.emit_question else None
    return Clarification(question=question, facets=facets)


def remote_generate(
    endpoint: str,
    request: GeneratorRequest,
    timeout: float = 30.0,
) -> Clarification:
    """Call an external generator service and validate its clarification.

    Timeouts and connection failures raise RetriableGeneratorError; any
    non-200 status or malformed body raises GeneratorError with the raw
    response attached.  Returned facets are normalized and deduplicated,
    and truncated to max_facets with a logged warning if the service
    over-produces.

    ``requests`` is imported here, on the first call, so the offline paths
    never load an HTTP client; Python's import lock makes that first import
    safe from many worker threads at once.
    """
    import requests

    payload = {
        "query": request.query,
        "evidence": list(request.evidence_texts),
        "max_facets": request.max_facets,
        "emit_question": request.emit_question,
    }
    try:
        response = requests.post(endpoint, json=payload, timeout=timeout)
    except requests.Timeout as exc:
        raise RetriableGeneratorError(f"generator timed out after {timeout}s") from exc
    except requests.ConnectionError as exc:
        raise RetriableGeneratorError(f"cannot reach generator at {endpoint}: {exc}") from exc
    except requests.RequestException as exc:
        raise GeneratorError(f"generator request failed: {exc}") from exc

    if response.status_code != 200:
        raise GeneratorError(
            f"generator returned status {response.status_code}: {response.text[:500]}"
        )
    try:
        body = response.json()
    except ValueError as exc:
        raise GeneratorError(f"malformed generator response: {response.text[:500]}") from exc
    if not isinstance(body, dict) or not isinstance(body.get("facets"), list):
        raise GeneratorError(f"malformed generator response: {response.text[:500]}")
    question = body.get("question")
    if question is not None and not isinstance(question, str):
        raise GeneratorError(f"malformed generator response: {response.text[:500]}")

    facets: list[str] = []
    seen: set[str] = set()
    for raw in body["facets"]:
        if not isinstance(raw, str):
            raise GeneratorError(f"malformed generator response: {response.text[:500]}")
        norm = " ".join(normalize(raw))
        if not norm or norm in seen:
            continue
        seen.add(norm)
        facets.append(norm)
    if not facets:
        raise GeneratorError("generator returned no facets")
    if len(facets) > request.max_facets:
        logger.warning(
            "generator returned %d facets, truncating to max_facets=%d",
            len(facets),
            request.max_facets,
        )
        facets = facets[: request.max_facets]
    return Clarification(question=question, facets=tuple(facets))


def fuse_round_robin(
    facet_lists: Sequence[Sequence[str]], max_facets: int = 5
) -> list[str]:
    """Round-robin fusion of facet lists from several generators.

    Facets are normalized first; duplicates are skipped without back-fill,
    and the output is capped at max_facets.
    """
    _check_count("max_facets", max_facets)
    normalized: list[list[str]] = []
    for lst in facet_lists:
        norm = [" ".join(normalize(f)) for f in lst]
        normalized.append([f for f in norm if f])
    if not any(normalized):
        raise ValueError("all facet lists are empty")
    return interleave_round_robin(normalized, max_facets)
