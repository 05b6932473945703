"""Extractive baseline, remote generator client, and round-robin fusion."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import endpoint_url as _url
from clarikit.corpus import normalize
from clarikit.errors import GeneratorError, RetriableGeneratorError
from clarikit.generator import (
    DEFAULT_QUESTION,
    Clarification,
    GeneratorRequest,
    extractive_generate,
    fuse_round_robin,
    remote_generate,
)


def extractive_oracle(request: GeneratorRequest) -> Clarification:
    """The per-gram loop ``extractive_generate`` was first written as."""
    if not request.evidence_texts:
        raise GeneratorError("no evidence")
    query_tokens = set(normalize(request.query))

    counts: dict[tuple[str, ...], int] = {}
    docs: dict[tuple[str, ...], set[int]] = {}
    first_seen: dict[tuple[str, ...], tuple[int, int, int]] = {}

    def record(gram: tuple[str, ...], doc_idx: int, tok_idx: int) -> None:
        if all(tok in query_tokens for tok in gram):
            return
        counts[gram] = counts.get(gram, 0) + 1
        docs.setdefault(gram, set()).add(doc_idx)
        first_seen.setdefault(gram, (doc_idx, tok_idx, len(gram)))

    for doc_idx, text in enumerate(request.evidence_texts):
        tokens = normalize(text, drop_stopwords=True)
        for tok_idx, token in enumerate(tokens):
            record((token,), doc_idx, tok_idx)
            if tok_idx + 1 < len(tokens):
                record((token, tokens[tok_idx + 1]), doc_idx, tok_idx)

    if not counts:
        raise GeneratorError("no candidates")

    ranked = sorted(
        counts,
        key=lambda gram: (-counts[gram] * len(docs[gram]), first_seen[gram]),
    )
    facets = tuple(" ".join(gram) for gram in ranked[: request.max_facets])
    question = DEFAULT_QUESTION if request.emit_question else None
    return Clarification(question=question, facets=facets)


def _outcome(generate, request):
    """The clarification, or the message of the GeneratorError raised."""
    try:
        return generate(request)
    except GeneratorError as exc:
        return str(exc)


# Words as they may appear in raw text: case and punctuation noise, two
# stopwords (so some texts are empty once they are dropped), and a
# non-ASCII letter whose case folds.
_NOISY_WORD = st.builds(
    lambda word, upper, punct: (word.upper() if upper else word) + punct,
    st.sampled_from(["red", "blue", "x", "cast", "café", "the", "and"]),
    st.booleans(),
    st.sampled_from(["", "", ",", "!", "'s", "-"]),
)
_TEXT = st.lists(_NOISY_WORD, min_size=0, max_size=7).map(" ".join)


class TestExtractive:
    def test_frequency_times_coverage(self):
        # "symptom" occurs twice across two docs (score 4); every other
        # candidate scores at most 1.
        req = GeneratorRequest(
            query="adhd", evidence_texts=("symptom list", "symptom guide"), max_facets=1
        )
        assert extractive_generate(req).facets == ("symptom",)

    def test_query_only_evidence_has_no_candidates(self):
        req = GeneratorRequest(query="adhd", evidence_texts=("adhd", "adhd adhd"))
        with pytest.raises(GeneratorError, match="no candidates"):
            extractive_generate(req)

    def test_empty_evidence(self):
        req = GeneratorRequest(query="q", evidence_texts=())
        with pytest.raises(GeneratorError, match="no evidence"):
            extractive_generate(req)

    def test_caps_and_extracts_verbatim(self):
        req = GeneratorRequest(query="q", evidence_texts=("alpha beta", "gamma"), max_facets=5)
        clar = extractive_generate(req)
        assert 1 <= len(clar.facets) <= 5
        streams = [normalize(t, drop_stopwords=True) for t in req.evidence_texts]
        for facet in clar.facets:
            grams = facet.split()
            assert any(
                stream[i : i + len(grams)] == grams
                for stream in streams
                for i in range(len(stream))
            )

    def test_tie_break_first_occurrence(self):
        req = GeneratorRequest(query="q", evidence_texts=("zeta alpha",), max_facets=2)
        clar = extractive_generate(req)
        # All candidates score 1; earlier stream position wins, with the
        # unigram at a position ordered before the bigram starting there.
        assert clar.facets == ("zeta", "zeta alpha")

    def test_question_toggle(self):
        req = GeneratorRequest(query="q", evidence_texts=("alpha",), emit_question=True)
        assert extractive_generate(req).question == DEFAULT_QUESTION
        req2 = GeneratorRequest(query="q", evidence_texts=("alpha",))
        assert extractive_generate(req2).question is None

    def test_deterministic(self):
        req = GeneratorRequest(query="news", evidence_texts=("alpha beta alpha", "beta gamma"))
        assert extractive_generate(req) == extractive_generate(req)

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(["red", "green", "blue", "cast", "zip", "code"]),
                min_size=1,
                max_size=6,
            ).map(" ".join),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=1, max_value=5),
    )
    def test_faithful_by_construction(self, texts, max_facets):
        req = GeneratorRequest(query="unrelatedquery", evidence_texts=tuple(texts), max_facets=max_facets)
        clar = extractive_generate(req)
        streams = [normalize(t, drop_stopwords=True) for t in texts]
        for facet in clar.facets:
            grams = facet.split()
            assert any(
                stream[i : i + len(grams)] == grams
                for stream in streams
                for i in range(len(stream) - len(grams) + 1)
            )
        assert len(clar.facets) <= max_facets
        assert len(set(clar.facets)) == len(clar.facets)

    def test_invalid_max_facets(self):
        with pytest.raises(ValueError):
            GeneratorRequest(query="q", evidence_texts=("a",), max_facets=0)

    def test_query_bigrams_dropped_in_both_orders(self):
        req = GeneratorRequest(
            query="red blue", evidence_texts=("red blue x", "blue red x"), max_facets=5
        )
        # Left after dropping red, blue, "red blue" and "blue red":
        # x (2 occurrences x 2 texts = 4), then "blue x" and "red x" at 1,
        # in first-seen order.
        assert extractive_generate(req).facets == ("x", "blue x", "red x")

    def test_earlier_bigram_beats_later_unigram_on_equal_score(self):
        req = GeneratorRequest(
            query="alpha",
            evidence_texts=("alpha beta", "alpha beta", "gamma", "gamma"),
            max_facets=2,
        )
        # "alpha beta", beta and gamma all score 2 x 2 = 4; the bigram is
        # first seen in text 0 at position 0, before beta (position 1) and
        # gamma (text 2).
        assert extractive_generate(req).facets == ("alpha beta", "beta")

    def test_all_query_grams_have_no_candidates(self):
        req = GeneratorRequest(
            query="red blue", evidence_texts=("red blue red", "Blue, RED!", "the red")
        )
        with pytest.raises(GeneratorError, match="no candidates"):
            extractive_generate(req)

    def test_long_query_drops_its_bigrams(self):
        # Four query tokens occur in the evidence, and 4 x 4 pairs outnumber
        # the 11 distinct grams, so the query-only bigrams are found by
        # scanning the grams.  Left: x (2 x 2 = 4), then "q4 x" and "x q2"
        # at 1, in first-seen order; "q2 q1" goes like "q1 q2".
        query = " ".join(f"q{i}" for i in range(20))
        req = GeneratorRequest(query=query, evidence_texts=("q1 q2 q3 q4 x", "x q2 q1"))
        assert extractive_generate(req).facets == ("x", "q4 x", "x q2")

    @settings(deadline=None, max_examples=400)
    @given(
        st.lists(_TEXT, min_size=0, max_size=5),
        st.booleans(),
        st.lists(_NOISY_WORD, min_size=0, max_size=8).map(" ".join),
        st.integers(min_value=1, max_value=12),
        st.booleans(),
    )
    def test_matches_oracle(self, texts, repeat, query, max_facets, emit_question):
        # Repeating the texts in reverse order makes exact count x docs ties
        # across texts.
        evidence = tuple(texts + texts[::-1]) if repeat else tuple(texts)
        req = GeneratorRequest(query, evidence, max_facets, emit_question)
        assert _outcome(extractive_generate, req) == _outcome(extractive_oracle, req)


class TestRemote:
    def test_echo(self, mock_endpoint):
        mock_endpoint.behavior = lambda req: (
            200,
            {"question": None, "facets": ["cast", "trailer"]},
            0,
        )
        req = GeneratorRequest(query="penny", evidence_texts=("some doc",), max_facets=5)
        clar = remote_generate(_url(mock_endpoint), req)
        assert clar.facets == ("cast", "trailer")

    def test_wire_format(self, mock_endpoint):
        req = GeneratorRequest(
            query="penny", evidence_texts=("d one", "d two"), max_facets=3, emit_question=True
        )
        remote_generate(_url(mock_endpoint), req)
        (sent,) = mock_endpoint.requests
        assert sent == {
            "query": "penny",
            "evidence": ["d one", "d two"],
            "max_facets": 3,
            "emit_question": True,
        }

    def test_overlong_response_truncated(self, mock_endpoint):
        mock_endpoint.behavior = lambda req: (
            200,
            {"question": None, "facets": [f"f{i}" for i in range(6)]},
            0,
        )
        req = GeneratorRequest(query="q", evidence_texts=("doc",), max_facets=5)
        clar = remote_generate(_url(mock_endpoint), req)
        assert clar.facets == ("f0", "f1", "f2", "f3", "f4")

    def test_duplicates_normalized_away(self, mock_endpoint):
        mock_endpoint.behavior = lambda req: (
            200,
            {"question": None, "facets": ["cast", "Cast", "CAST!"]},
            0,
        )
        req = GeneratorRequest(query="q", evidence_texts=("doc",))
        assert remote_generate(_url(mock_endpoint), req).facets == ("cast",)

    def test_non_200_status(self, mock_endpoint):
        mock_endpoint.behavior = lambda req: (503, {"error": "down"}, 0)
        req = GeneratorRequest(query="q", evidence_texts=("doc",))
        with pytest.raises(GeneratorError, match="503"):
            remote_generate(_url(mock_endpoint), req)

    def test_malformed_body_carries_raw(self, mock_endpoint):
        mock_endpoint.behavior = lambda req: (200, b"not json at all", 0)
        req = GeneratorRequest(query="q", evidence_texts=("doc",))
        with pytest.raises(GeneratorError, match="not json at all"):
            remote_generate(_url(mock_endpoint), req)

    @pytest.mark.parametrize(
        "body",
        [
            {"question": None, "facets": "cast"},
            {"question": 5, "facets": ["cast"]},
            {"question": None, "facets": ["cast", 5]},
        ],
        ids=["facets-not-a-list", "question-not-a-string", "facet-not-a-string"],
    )
    def test_malformed_body_shapes(self, mock_endpoint, body):
        mock_endpoint.behavior = lambda req: (200, body, 0)
        req = GeneratorRequest(query="q", evidence_texts=("doc",))
        with pytest.raises(GeneratorError, match="^malformed generator response: "):
            remote_generate(_url(mock_endpoint), req)

    def test_url_without_host(self):
        # Refused while the request is prepared, before any connection.
        req = GeneratorRequest(query="q", evidence_texts=("doc",))
        with pytest.raises(GeneratorError, match="^generator request failed: .*No host supplied"):
            remote_generate("http://", req)

    def test_empty_facets(self, mock_endpoint):
        mock_endpoint.behavior = lambda req: (200, {"question": None, "facets": []}, 0)
        req = GeneratorRequest(query="q", evidence_texts=("doc",))
        with pytest.raises(GeneratorError, match="no facets"):
            remote_generate(_url(mock_endpoint), req)

    def test_timeout_is_retriable(self, mock_endpoint):
        mock_endpoint.behavior = lambda req: (
            200,
            {"question": None, "facets": ["cast"]},
            1.5,
        )
        req = GeneratorRequest(query="q", evidence_texts=("doc",))
        with pytest.raises(RetriableGeneratorError):
            remote_generate(_url(mock_endpoint), req, timeout=0.2)

    def test_connection_refused_is_retriable(self):
        req = GeneratorRequest(query="q", evidence_texts=("doc",))
        with pytest.raises(RetriableGeneratorError):
            remote_generate("http://127.0.0.1:9/generate", req, timeout=0.5)


class TestFuseRoundRobin:
    def test_interleaves(self):
        assert fuse_round_robin([["a", "b"], ["c"]], 5) == ["a", "c", "b"]

    def test_dedup(self):
        assert fuse_round_robin([["a"], ["a"]], 5) == ["a"]

    def test_cap_at_five(self):
        lists = [["a1", "a2", "a3"], ["b1", "b2", "b3"], ["c1", "c2", "c3"]]
        fused = fuse_round_robin(lists)
        assert len(fused) == 5

    def test_normalized_dedup(self):
        assert fuse_round_robin([["Cast "], ["cast"]], 5) == ["cast"]

    def test_max_facets_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^max_facets must be >= 1, got 0$"):
            fuse_round_robin([["a"]], max_facets=0)

    def test_all_empty_errors(self):
        with pytest.raises(ValueError):
            fuse_round_robin([[], []], 5)

    @settings(deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(["a", "b", "c", "d", "e", "f", "g"]),
                max_size=6,
            ),
            min_size=1,
            max_size=4,
        ).filter(lambda ls: any(ls_i for ls_i in ls))
    )
    def test_properties(self, lists):
        fused = fuse_round_robin(lists, 5)
        assert len(fused) <= 5
        assert len(set(fused)) == len(fused)
        universe = {f for lst in lists for f in lst}
        assert set(fused) <= universe
