"""Metric suite: hand-derived values, brute-force oracles, and properties."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from clarikit.errors import DataError
from clarikit.metrics import (
    PRF,
    bleu_n,
    evaluate_instance,
    exact_match,
    indicator_embedder,
    match_facet_pairs,
    mean_report,
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


class TestMatchFacetPairs:
    def test_single_positive_pair(self):
        a = match_facet_pairs(["cast"], ["cast", "quotes"])
        assert a.pairs == ((0, 0, 1.0),)
        assert a.unmatched_generated == ()
        assert a.unmatched_truth == (1,)

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
        assert a.unmatched_generated == (0, 1)

    def test_all_zero_ties_take_diagonal(self):
        a = match_facet_pairs(["aa", "bb"], ["cc", "dd", "ee"])
        assert tuple((g, t) for g, t, _ in a.pairs) == ((0, 0), (1, 1))
        assert a.unmatched_truth == (2,)

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
    def test_empty_is_zero(self):
        flat = mean_report([]).to_flat_dict()
        assert all(v == 0.0 for v in flat.values())

    def test_mean_of_identical(self):
        r = evaluate_instance(["a"], ["a"])
        assert mean_report([r, r, r]) == r
