"""Metric suite: hand-derived values, brute-force oracles, and properties."""

import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import clarikit.metrics as metrics_module
from clarikit.corpus import normalize
from clarikit.errors import DataError
from clarikit.metrics import (
    PRF,
    bleu_n,
    cosine,
    evaluate_instance,
    exact_match,
    indicator_embedder,
    match_facet_pairs,
    mean_report,
    normalized_facet,
    set_bleu,
    set_sim,
    table_embedder,
    term_overlap,
)

WORDS = ["alpha", "beta", "gamma", "delta", "omega", "cast", "zip", "code", "red", "blue"]

facet_st = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
facet_list_st = st.lists(facet_st, min_size=1, max_size=4)
facet_list6_st = st.lists(facet_st, min_size=1, max_size=6)


def brute_force_pairs(generated, truth):
    """Exhaustive optimal BLEU-1 assignment, lexicographically smallest on ties."""
    m, n = len(generated), len(truth)
    score = [[bleu_n(f, g, 1) for g in truth] for f in generated]
    n_pairs = min(m, n)
    best_pairs = None
    best_total = -math.inf
    for gens in itertools.combinations(range(m), n_pairs):
        for perm in itertools.permutations(range(n), n_pairs):
            pairs = tuple(zip(gens, perm))
            total = math.fsum(score[g][t] for g, t in pairs)
            if total > best_total or (total == best_total and pairs < best_pairs):
                best_total = total
                best_pairs = pairs
    return best_pairs, best_total, score


def set_bleu_from_pairs(generated, truth, pairs):
    """Independent Set-BLEU computation from an explicit pairing."""
    denom = max(len(generated), len(truth))
    return tuple(
        math.fsum(bleu_n(generated[g], truth[t], order) for g, t in pairs) / denom
        for order in range(1, 5)
    )


def set_sim_from_pairs(generated, truth, pairs, embedder):
    from clarikit.metrics import PRF, cosine, normalized_facet

    sims = [
        min(max(cosine(embedder(normalized_facet(generated[g])),
                       embedder(normalized_facet(truth[t]))), 0.0), 1.0)
        for g, t in pairs
    ]
    total = math.fsum(sims)
    return PRF.from_pr(total / len(generated), total / len(truth))


def eager_bleu(candidate, reference):
    """Sentence BLEU-1..4 with all four n-gram orders counted up front."""
    cand, ref = normalize(candidate), normalize(reference)
    cand_grams, ref_grams = (
        [Counter(zip(*(tokens[k:] for k in range(order)))) for order in range(1, 5)]
        for tokens in (cand, ref)
    )
    c, r = len(cand), len(ref)
    if not c:
        return (0.0, 0.0, 0.0, 0.0)
    bp = math.exp(1 - r / c) if c < r else 1.0
    scores = []
    log_sum = 0.0
    for order, (grams, other) in enumerate(zip(cand_grams, ref_grams), 1):
        matches = sum(min(count, other[gram]) for gram, count in grams.items())
        if order == 1:
            if matches == 0:
                return (0.0, 0.0, 0.0, 0.0)
            precision = matches / c
        else:
            precision = (matches + 1) / (max(c - order + 1, 1) + 1)
        log_sum += math.log(precision)
        scores.append(bp * math.exp(log_sum / order))
    return tuple(scores)


def uncached_best_pairs(score):
    """The matcher's dynamic program with its subset masks rebuilt on every call."""
    m, n = len(score), len(score[0])
    n_pairs = min(m, n)
    ratios = [[value.as_integer_ratio() for value in row] for row in score]
    scale = max(den for row in ratios for _, den in row)
    gain = [[num * (scale // den) for num, den in row] for row in ratios]
    masks = [
        [sum(1 << t for t in cols) for cols in itertools.combinations(range(n), k)]
        for k in range(n_pairs + 1)
    ]
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
    pairs = []
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


# Facets of 0-8 tokens from a small mixed-case vocabulary (so tokens repeat),
# each token followed by a space or punctuation and the whole wrapped in more:
# with no tokens, a facet is empty, blank or punctuation-only ("...!", "¡ ").
noisy_token_st = st.sampled_from(["red", "Red", "RED", "zip", "Zip", "code", "a", "b"])
noisy_sep_st = st.sampled_from([" ", "  ", "-", ", ", "!?", " ... ", "\t"])
noisy_facet_st = st.builds(
    lambda pre, tokens, seps, post: pre + "".join(t + s for t, s in zip(tokens, seps)) + post,
    st.sampled_from(["", " ", "...", "¡"]),
    st.lists(noisy_token_st, max_size=8),
    st.lists(noisy_sep_st, min_size=8, max_size=8),
    st.sampled_from(["", "!", " "]),
)
noisy_list_st = st.lists(noisy_facet_st, min_size=1, max_size=4)

# BLEU-1-like cell scores, with thirds whose fsum totals round into ties.
cell_st = st.sampled_from([0.0, 0.0, 0.25, 1 / 3, 0.5, 0.5, 2 / 3, math.exp(-1), 1.0])


@st.composite
def score_matrix_st(draw):
    m = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=1, max_value=8))
    return [draw(st.lists(cell_st, min_size=n, max_size=n)) for _ in range(m)]


class TestTermOverlap:
    def test_hand_derived(self):
        # WF = {windows, 10}; WG = {windows, 10, 7}
        prf = term_overlap(["windows 10"], ["windows 10", "windows 7"])
        assert prf.precision == 1.0
        assert prf.recall == pytest.approx(2 / 3)
        assert prf.f1 == pytest.approx(0.8)

    def test_identity(self):
        prf = term_overlap(["cast", "trailer"], ["cast", "trailer"])
        assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        prf = term_overlap(["cats"], ["dogs"])
        assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)

    def test_empty_side_errors(self):
        with pytest.raises(DataError):
            term_overlap([], ["a"])
        with pytest.raises(DataError):
            term_overlap(["!!!"], ["a"])

    @given(facet_list_st, facet_list_st)
    def test_swap_symmetry(self, f, g):
        assert term_overlap(f, g).precision == term_overlap(g, f).recall
        assert term_overlap(f, g).recall == term_overlap(g, f).precision


class TestExactMatch:
    def test_hand_derived(self):
        prf = exact_match(["cast", "trailer"], ["cast", "quotes"])
        assert (prf.precision, prf.recall, prf.f1) == (0.5, 0.5, 0.5)

    def test_identity(self):
        prf = exact_match(["a", "b"], ["a", "b"])
        assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)

    def test_normalization_matches(self):
        prf = exact_match(["Cast "], ["cast"])
        assert prf.precision == 1.0

    @given(facet_list_st, facet_list_st)
    def test_swap_symmetry(self, f, g):
        assert exact_match(f, g).precision == exact_match(g, f).recall


class TestBleuN:
    def test_identical_four_tokens(self):
        assert bleu_n("alpha beta gamma delta", "alpha beta gamma delta", 1) == 1.0

    def test_hand_derived_bleu1(self):
        # modified precision 1/2, no brevity penalty
        assert bleu_n("a b", "a c", 1) == pytest.approx(0.5)

    def test_short_identical_smoothed_below_one(self):
        # 2-token identity at order 3: p1 = 1, p2 = (1+1)/(1+1) = 1,
        # p3 = (0+1)/(1+1) = 1/2, so the score is (1/2)^(1/3).
        got = bleu_n("zip code", "zip code", 3)
        assert got == pytest.approx(math.exp(math.log(0.5) / 3))
        assert got < 1.0

    def test_brevity_penalty(self):
        # p1 = 1 but candidate is half the reference length.
        assert bleu_n("alpha", "alpha beta", 1) == pytest.approx(math.exp(1 - 2 / 1))

    def test_empty_candidate(self):
        assert bleu_n("", "a b", 2) == 0.0
        assert bleu_n("...", "a b", 2) == 0.0

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            bleu_n("a", "a", 5)

    @given(facet_st)
    def test_self_bleu1_is_one(self, facet):
        assert bleu_n(facet, facet, 1) == 1.0

    @given(facet_st, facet_st, st.integers(min_value=1, max_value=4))
    def test_normalization_invariant(self, cand, ref, n):
        noisy = "  " + cand.upper() + "! "
        assert bleu_n(noisy, ref, n) == bleu_n(cand, ref, n)

    @given(facet_st, facet_st, st.integers(min_value=1, max_value=4))
    def test_in_unit_interval(self, cand, ref, n):
        assert 0.0 <= bleu_n(cand, ref, n) <= 1.0

    @settings(max_examples=300)
    @given(noisy_list_st, noisy_list_st)
    def test_lazy_orders_match_eager_oracle(self, generated, truth):
        # One comparison shares each facet's lazily built orders across its
        # cells, so a facet first read at order 1 is later read at order 4.
        table = metrics_module._Comparison(generated, truth).bleu
        for f, row in zip(generated, table):
            for g, cell in zip(truth, row):
                assert cell == eager_bleu(f, g)

    @pytest.mark.parametrize(
        "cand, ref",
        [
            ("a b c d", "a b"),
            ("a b", "a b c d"),
            ("a a a a", "a a a a"),
            ("Zip, zip", "zip-ZIP"),
            ("zip code", "...!"),
            ("", "zip code"),
        ],
    )
    def test_short_facets_skip_higher_orders(self, cand, ref):
        f, g = metrics_module._Facet(cand), metrics_module._Facet(ref)
        assert metrics_module._bleu(f, g) == eager_bleu(cand, ref)
        shared = min(len(f.tokens), len(g.tokens))
        assert len(f._grams) == len(g._grams) == shared

    def test_zero_unigram_cell_builds_no_higher_order(self):
        f, g = metrics_module._Facet("alpha beta gamma"), metrics_module._Facet("delta omega")
        assert metrics_module._bleu(f, g) == (0.0, 0.0, 0.0, 0.0)
        assert len(f._grams) == len(g._grams) == 1

    def test_disjoint_cells_build_no_grams(self):
        # Every cell shares no token, so the table is all zeros and no facet
        # counts even its unigrams.
        generated, truth = ["alpha beta", "gamma", "..."], ["delta omega", "epsilon"]
        comparison = metrics_module._Comparison(generated, truth)
        assert comparison.bleu == [[(0.0, 0.0, 0.0, 0.0)] * 2] * 3
        assert [f._grams for f in comparison.generated + comparison.truth] == [[]] * 5
        for f, row in zip(generated, comparison.bleu):
            assert row == [eager_bleu(f, g) for g in truth]


class TestMatchFacetPairs:
    def test_single_positive_pair(self):
        a = match_facet_pairs(["cast"], ["cast", "quotes"])
        assert a.pairs == ((0, 0, 1.0),)

    def test_permutation_symmetry(self):
        a = match_facet_pairs(["x", "y"], ["y", "x"])
        assert {(g, t) for g, t, _ in a.pairs} == {(0, 1), (1, 0)}
        assert all(s == 1.0 for _, _, s in a.pairs)

    def test_three_by_three_vs_brute_force(self):
        generated = ["alpha beta", "gamma", "delta omega"]
        truth = ["gamma delta", "alpha beta", "omega"]
        expected, _, score = brute_force_pairs(generated, truth)
        got = match_facet_pairs(generated, truth)
        assert tuple((g, t) for g, t, _ in got.pairs) == expected
        for g, t, s in got.pairs:
            assert s == score[g][t]

    def test_more_generated_than_truth(self):
        a = match_facet_pairs(["a", "b", "cast"], ["cast"])
        assert a.pairs == ((2, 0, 1.0),)

    def test_all_zero_ties_take_diagonal(self):
        a = match_facet_pairs(["aa", "bb"], ["cc", "dd", "ee"])
        assert tuple((g, t) for g, t, _ in a.pairs) == ((0, 0), (1, 1))

    def test_rounded_total_tie_takes_lexicographic_pairing(self):
        # (0,0),(1,1) sums 1/3 + 2/3 = 1 - 2**-54 exactly, which fsum rounds
        # to 1.0: a tie with (0,1),(1,0) at exactly 1.0, won by the first.
        generated = ["alpha beta gamma", "alpha beta cast"]
        truth = ["gamma", "alpha beta gamma"]
        got = match_facet_pairs(generated, truth)
        assert tuple((g, t) for g, t, _ in got.pairs) == ((0, 0), (1, 1))
        assert math.fsum(s for _, _, s in got.pairs) == 1.0
        assert brute_force_pairs(generated, truth)[:2] == (((0, 0), (1, 1)), 1.0)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_all_equal_scores_take_diagonal(self, n):
        # Every pair shares one of its two words, so every BLEU-1 is 0.5.
        generated = [f"red a{i}" for i in range(n)]
        truth = [f"red b{i}" for i in range(n)]
        got = match_facet_pairs(generated, truth)
        assert got.pairs == tuple((i, i, 0.5) for i in range(n))

    @settings(deadline=None, max_examples=150)
    @given(facet_list6_st, facet_list6_st)
    def test_matches_brute_force(self, generated, truth):
        expected, expected_total, _ = brute_force_pairs(generated, truth)
        got = match_facet_pairs(generated, truth)
        assert tuple((g, t) for g, t, _ in got.pairs) == expected
        assert math.fsum(s for _, _, s in got.pairs) == expected_total

    @settings(deadline=None, max_examples=150)
    @given(st.lists(score_matrix_st(), min_size=1, max_size=6))
    def test_memoised_masks_match_uncached_oracle(self, matrices):
        # Start from an empty memo and run the shapes twice, so entries made
        # for one shape are read by later shapes with the same (n, n_pairs).
        metrics_module._subset_masks.cache_clear()
        for score in matrices + matrices[::-1]:
            assert metrics_module._best_pairs(score) == uncached_best_pairs(score)

    def test_long_truth_lists_are_not_memoised(self):
        before = metrics_module._subset_masks.cache_info().currsize
        for n in (11, 12):
            got = match_facet_pairs(["red a0", "red a1"], [f"red b{i}" for i in range(n)])
            assert got.pairs == ((0, 0, 0.5), (1, 1, 0.5))
        assert metrics_module._subset_masks.cache_info().currsize == before

    def test_ten_truth_facets_are_memoised(self):
        truth = [f"red b{i}" for i in range(10)]
        match_facet_pairs(["red a0", "red a1", "red a2"], truth)
        hits = metrics_module._subset_masks.cache_info().hits
        got = match_facet_pairs(["red a3", "red a4", "red a5"], truth)
        assert got.pairs == ((0, 0, 0.5), (1, 1, 0.5), (2, 2, 0.5))
        assert metrics_module._subset_masks.cache_info().hits == hits + 1


class TestSetBleu:
    def test_identity_long_facet(self):
        got = set_bleu(["alpha beta gamma delta"], ["alpha beta gamma delta"])
        assert got == (1.0, 1.0, 1.0, 1.0)

    def test_unmatched_penalty(self):
        got = set_bleu(["alpha"], ["alpha", "beta"])
        assert got[0] == pytest.approx(0.5)

    def test_disjoint(self):
        assert set_bleu(["alpha"], ["beta"]) == (0.0, 0.0, 0.0, 0.0)

    def test_identity_short_facets_smoothing_direction(self):
        got = set_bleu(["zip code"], ["zip code"])
        assert got[0] == 1.0
        assert got[1] == 1.0
        assert got[2] < 1.0
        assert got[3] < 1.0


class TestSetSim:
    def test_identity_indicator(self):
        emb = indicator_embedder(["cast", "trailer"], ["cast", "trailer"])
        prf = set_sim(["cast", "trailer"], ["cast", "trailer"], emb)
        assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)

    def test_disjoint_indicator(self):
        emb = indicator_embedder(["cats"], ["dogs"])
        prf = set_sim(["cats"], ["dogs"], emb)
        assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)

    def test_unmatched_denominators(self):
        emb = indicator_embedder(["alpha"], ["alpha", "beta"])
        prf = set_sim(["alpha"], ["alpha", "beta"], emb)
        assert prf.precision == 1.0
        assert prf.recall == 0.5
        assert prf.f1 == pytest.approx(2 / 3)

    def test_embedder_failure_names_facet(self):
        def broken(text):
            raise RuntimeError("boom")

        with pytest.raises(DataError, match="cast"):
            set_sim(["cast"], ["cast"], broken)

    def test_vectors_of_different_shapes_rejected(self):
        with pytest.raises(DataError, match=r"^vector shapes differ: \(2,\) vs \(3,\)$"):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(DataError, match="vector shapes differ"):
            set_sim(["a"], ["b"], lambda text: [1.0] * (2 if text == "a" else 3))

    def test_punctuation_only_facets_earn_no_credit(self):
        f, g = ["...", "alpha"], ["!!!", "beta"]
        zero = PRF(0.0, 0.0, 0.0)
        assert evaluate_instance(f, g).set_sim == zero
        assert set_sim(f, g, indicator_embedder(f, g)) == zero
        assert exact_match(f, g) == zero
        assert term_overlap(f, g) == zero

    def test_table_embedder_similarity(self):
        from clarikit.corpus import EmbeddingTable

        table = EmbeddingTable.from_dict({"cast": [1.0, 0.0], "crew": [0.8, 0.6]})
        prf = set_sim(["cast"], ["crew"], table_embedder(table))
        assert prf.precision == pytest.approx(0.8)

    def test_public_embedders_still_normalize(self):
        from clarikit.corpus import EmbeddingTable

        table = EmbeddingTable.from_dict({"zip code": [0.6, 0.8]})
        assert table_embedder(table)("Zip-Code").tolist() == [0.6, 0.8]
        indicator = indicator_embedder(["zip code", "cast"])
        assert indicator("Zip-Code").tolist() == indicator("zip code").tolist() == [0.0, 1.0]

    def test_each_facet_is_normalized_once(self, monkeypatch):
        # Set-Sim looks the canonical text up directly, so an instance with
        # either embedder normalizes each of its facets exactly once.
        from clarikit.corpus import EmbeddingTable

        calls = []

        def counting_normalize(text, *args, **kwargs):
            calls.append(text)
            return normalize(text, *args, **kwargs)

        f, g = ["Cast", "zip code", "crew!"], ["cast", "Zip-Code"]
        table = EmbeddingTable.from_dict(
            {"cast": [1.0, 0.0], "crew": [0.8, 0.6], "zip code": [0.0, 1.0]}
        )
        for embedder in (table_embedder(table), indicator_embedder(f, g)):
            monkeypatch.setattr(metrics_module, "normalize", counting_normalize)
            calls.clear()
            report = evaluate_instance(f, g, embedder)
            monkeypatch.undo()
            assert sorted(calls) == sorted(f + g)
            assert report.set_sim == set_sim_from_pairs(f, g, [(0, 0), (1, 1)], embedder)

    @settings(deadline=None, max_examples=200)
    @given(
        vectors=st.lists(
            st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=3, max_size=3),
            min_size=len(WORDS),
            max_size=len(WORDS),
        ),
        f=facet_list_st,
        g=facet_list_st,
    )
    def test_cached_norms_keep_the_bits_of_cosine(self, vectors, f, g):
        # Set-Sim reads each text's norm from a per-embedder cache; every
        # value must equal the public cosine of the same vectors exactly.
        from clarikit.corpus import EmbeddingTable

        texts = {normalized_facet(x) for x in f + g}
        table = EmbeddingTable.from_dict(
            {text: vectors[i % len(vectors)] for i, text in enumerate(sorted(texts))}
        )
        pairs = [(a, b) for a, b, _ in match_facet_pairs(f, g).pairs]
        for embedder in (table_embedder(table), indicator_embedder(f, g)):
            for _ in range(2):  # the second pass reads the cache
                expected = set_sim_from_pairs(f, g, pairs, embedder)
                assert set_sim(f, g, embedder) == expected
                assert evaluate_instance(f, g, embedder).set_sim == expected

    def test_each_row_norm_is_taken_once(self, monkeypatch):
        import numpy as np
        from clarikit.corpus import EmbeddingTable

        table = EmbeddingTable.from_dict({"cast": [1.0, 0.0], "crew": [0.8, 0.6]})
        embedder = table_embedder(table)
        norms = []
        real_norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda v: norms.append(v) or real_norm(v))
        for _ in range(3):
            evaluate_instance(["cast", "crew"], ["crew", "cast"], embedder)
        assert len(norms) == 2

    def test_canonical_text_is_a_fixed_point(self):
        # Why the direct lookup is exact: normalizing a canonical text again
        # gives it back, for every code point between two letters.
        for lo in range(0, 0x110000, 0x10000):
            text = " ".join(f"a{chr(cp)}b" for cp in range(lo, lo + 0x10000))
            canonical = normalized_facet(text)
            assert normalized_facet(canonical) == canonical


class TestEvaluateInstance:
    def test_composition(self):
        f, g = ["windows 10"], ["windows 10", "windows 7"]
        report = evaluate_instance(f, g)
        assert report.term_overlap == term_overlap(f, g)
        assert report.exact_match == exact_match(f, g)
        assert report.set_bleu == set_bleu(f, g)
        assert report.set_sim == set_sim(f, g, indicator_embedder(f, g))

    def test_identity_report(self):
        report = evaluate_instance(["zip code"], ["zip code"])
        assert report.term_overlap.f1 == 1.0
        assert report.exact_match.f1 == 1.0
        assert report.set_sim.f1 == 1.0
        assert report.set_bleu[0] == 1.0
        assert report.set_bleu[2] < 1.0

    def test_disjoint_report(self):
        report = evaluate_instance(["cats"], ["dogs"])
        flat = report.to_flat_dict()
        assert all(v == 0.0 for v in flat.values())

    def test_pure_function(self):
        f, g = ["alpha beta", "gamma"], ["gamma delta", "alpha"]
        first = evaluate_instance(f, g)
        second = evaluate_instance(f, g)
        assert first == second

    @given(facet_list_st, facet_list_st)
    @settings(deadline=None, max_examples=60)
    def test_all_values_in_unit_interval(self, f, g):
        flat = evaluate_instance(f, g).to_flat_dict()
        assert all(0.0 <= v <= 1.0 for v in flat.values())

    def test_f1_zero_iff_pr_zero(self):
        report = evaluate_instance(["cats"], ["dogs"])
        assert report.term_overlap.f1 == 0.0

    def test_round_trip_flat_dict(self):
        report = evaluate_instance(["alpha"], ["alpha", "beta"])
        from clarikit.metrics import MetricReport

        assert MetricReport.from_flat_dict(report.to_flat_dict()) == report


class TestMeanReport:
    def test_empty_raises(self):
        # A mean over nothing is no measurement, not a row of zeros.
        with pytest.raises(DataError, match="no metric reports to average"):
            mean_report([])

    def test_mean_of_identical(self):
        r = evaluate_instance(["a"], ["a"])
        assert mean_report([r, r, r]) == r
