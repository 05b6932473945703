"""Experiment runners: alignment stats, LOO faithfulness, sweeps, taxonomy,
full runs, and the paired bootstrap."""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import constant_generator
from clarikit import harness, metrics
from clarikit.corpus import ClarificationInstance, Corpus, Document, normalize
from clarikit.errors import DataError, GeneratorError
from clarikit.generator import extractive_generate
from clarikit.harness import (
    alignment_stats,
    evidence_size_sweep,
    load_resources,
    loo_faithfulness,
    paired_bootstrap,
    run_experiment,
    taxonomy_analysis,
)
from clarikit.retrieval import (
    EvidencePool,
    PoolEntry,
    RetrievalConfig,
    build_inverted_index,
    build_pool,
)


def oracle_builder(k=5):
    cfg = RetrievalConfig(alignment="oracle", k=k)
    return lambda inst: build_pool(cfg, inst)


def closed_book_builder(k=5):
    cfg = RetrievalConfig(alignment="closed_book", k=k)
    return lambda inst: build_pool(cfg, inst)


class TestAlignmentStats:
    def test_oracle_pools_are_fully_aligned(self, planted):
        report = alignment_stats(planted["instances"], oracle_builder())
        assert report.term_overlap_recall == 1.0
        assert report.exact_match_recall == 1.0
        assert report.evaluated_count == len(planted["instances"])

    def test_closed_book_pools_are_unaligned(self, planted):
        report = alignment_stats(planted["instances"], closed_book_builder())
        assert report.term_overlap_recall == 0.0
        assert report.exact_match_recall == 0.0

    def test_half_planted_hand_case(self):
        # Exactly one of two facets appears verbatim in the retrievable docs.
        corpus = Corpus.from_docs(
            [
                Document("d1", "leiden zip code info"),
                Document("d2", "leiden tourism guide"),
            ]
        )
        index = build_inverted_index(corpus)
        inst = ClarificationInstance(id="t", query="leiden", facets=("zip code", "weather"))
        cfg = RetrievalConfig(alignment="query_only", k=2)
        report = alignment_stats(
            [inst], lambda i: build_pool(cfg, i, index=index), corpus=corpus
        )
        assert report.exact_match_recall == 0.5
        assert report.term_overlap_recall == pytest.approx(2 / 3)

    def test_directional_gap_on_planted_corpus(self, planted):
        aligned = alignment_stats(
            planted["instances"],
            lambda i: build_pool(planted["aligned"], i, index=planted["index"]),
            corpus=planted["corpus"],
        )
        query_only = alignment_stats(
            planted["instances"],
            lambda i: build_pool(planted["query_only"], i, index=planted["index"]),
            corpus=planted["corpus"],
        )
        assert aligned.exact_match_recall == 1.0
        assert query_only.exact_match_recall == 0.0
        assert aligned.exact_match_recall >= query_only.exact_match_recall + 0.3

    def test_skip_accounting(self, planted):
        calls = {"n": 0}

        def flaky(inst):
            calls["n"] += 1
            if inst.id == "inst3":
                raise DataError("synthetic failure")
            return build_pool(planted["aligned"], inst, index=planted["index"])

        report = alignment_stats(planted["instances"], flaky, corpus=planted["corpus"])
        assert report.skipped_count == 1
        assert report.skip_reasons == (("inst3", "synthetic failure"),)
        assert report.evaluated_count == len(planted["instances"]) - 1

    def test_ragged_query_vector_is_a_skip(self):
        # A ragged query vector breaks the embedding contract, a DataError,
        # so its instance is skipped rather than ending the run.
        from clarikit.corpus import EmbeddingTable

        table = EmbeddingTable.from_dict({"d1": [1.0, 0.0]})
        vectors = {"ragged": [[1], [1, 2]], "fine": [1.0, 0.0]}
        cfg = RetrievalConfig(mode="dense", alignment="query_only", k=1)
        instances = [
            ClarificationInstance(id=q, query=q, facets=("f",)) for q in ("ragged", "fine")
        ]
        report = alignment_stats(
            instances,
            lambda i: build_pool(cfg, i, table=table, query_embedder=vectors.__getitem__),
            corpus=Corpus.from_docs([Document("d1", "f")]),
        )
        assert report.skip_reasons == (("ragged", "'vector' must be a list of numbers"),)
        assert report.evaluated_count == 1

    @pytest.mark.parametrize("fault", ["unknown document", "empty truth"])
    def test_resolve_and_scoring_errors_are_skips(self, planted, fault):
        # Not only a pool that fails to build: any clarikit error in an
        # instance's step skips it, and the run goes on.
        inst = planted["instances"][0]
        aligned = lambda i: build_pool(planted["aligned"], i, index=planted["index"])
        if fault == "unknown document":
            entry = PoolEntry(doc_id="nope", score=1.0, provenance=frozenset({"Q"}))
            pool = EvidencePool(inst.id, (entry,), planted["aligned"])
            builder = lambda i: pool if i is inst else aligned(i)
            reason = "unknown document id 'nope'"
        else:
            inst = replace(inst, facets=("?!",))
            builder, reason = aligned, "truth facets normalize to an empty token set"
        later = planted["instances"][1]
        report = alignment_stats([inst, later], builder, corpus=planted["corpus"])
        ((skipped_id, why),) = report.skip_reasons
        assert skipped_id == inst.id and reason in why
        assert [iid for iid, _, _ in report.per_instance] == [later.id]
        assert report.config == planted["aligned"]

    def test_aggregates_equal_per_instance_means(self, planted):
        report = alignment_stats(
            planted["instances"],
            lambda i: build_pool(planted["aligned"], i, index=planted["index"]),
            corpus=planted["corpus"],
        )
        to_mean = math.fsum(t for _, t, _ in report.per_instance) / len(report.per_instance)
        em_mean = math.fsum(e for _, _, e in report.per_instance) / len(report.per_instance)
        assert abs(report.term_overlap_recall - to_mean) < 1e-12
        assert abs(report.exact_match_recall - em_mean) < 1e-12

    def test_empty_instances_rejected(self):
        with pytest.raises(DataError):
            alignment_stats([], oracle_builder())

    def test_tokenizes_each_text_once(self, planted, monkeypatch):
        calls = []

        def counting_normalize(text, drop_stopwords=False):
            calls.append(text)
            return normalize(text, drop_stopwords)

        # The metrics module is where term_overlap would tokenize again.
        for module in (harness, metrics):
            monkeypatch.setattr(module, "normalize", counting_normalize)
        report = alignment_stats(
            planted["instances"],
            lambda i: build_pool(planted["aligned"], i, index=planted["index"]),
            corpus=planted["corpus"],
        )
        assert report.exact_match_recall == 1.0
        # One evidence text per instance, then each of its facets.
        assert len(calls) == sum(1 + len(i.facets) for i in planted["instances"])


class TestLooFaithfulness:
    def test_extractive_generator_is_faithful(self, planted):
        report = loo_faithfulness(
            planted["instances"],
            extractive_generate,
            planted["aligned"],
            corpus=planted["corpus"],
            index=planted["index"],
            seed=13,
        )
        assert report.evaluated_count == len(planted["instances"])
        for _, _, recall, recall_loo in report.per_instance:
            assert recall == 1.0
            assert recall_loo == 0.0
        assert report.recall == 1.0
        assert report.recall_loo == 0.0
        assert report.delta_pct == -100.0
        assert report.delta_pct <= -50.0

    def test_constant_generator_is_perfectly_unfaithful(self, planted):
        generator = constant_generator(planted["instances"])
        report = loo_faithfulness(
            planted["instances"],
            generator,
            planted["aligned"],
            corpus=planted["corpus"],
            index=planted["index"],
            seed=13,
        )
        assert report.recall == 1.0
        assert report.recall_loo == 1.0
        assert report.delta_pct == 0.0

    def test_same_seed_byte_identical(self, planted):
        kwargs = dict(
            corpus=planted["corpus"], index=planted["index"], seed=99
        )
        first = loo_faithfulness(
            planted["instances"], extractive_generate, planted["aligned"], **kwargs
        )
        second = loo_faithfulness(
            planted["instances"], extractive_generate, planted["aligned"], **kwargs
        )
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )

    def test_draws_keyed_by_instance_id(self, planted):
        # Dropping instances must not shift the remaining instances' draws.
        full = loo_faithfulness(
            planted["instances"],
            extractive_generate,
            planted["aligned"],
            corpus=planted["corpus"],
            index=planted["index"],
            seed=5,
        )
        partial = loo_faithfulness(
            planted["instances"][7:],
            extractive_generate,
            planted["aligned"],
            corpus=planted["corpus"],
            index=planted["index"],
            seed=5,
        )
        full_draws = {i: fi for i, fi, _, _ in full.per_instance}
        for inst_id, facet_idx, _, _ in partial.per_instance:
            assert facet_idx == full_draws[inst_id]

    def test_term_overlap_metric_kind(self, planted):
        report = loo_faithfulness(
            planted["instances"],
            extractive_generate,
            planted["aligned"],
            corpus=planted["corpus"],
            index=planted["index"],
            seed=3,
            metric_kind="term_overlap",
        )
        assert report.metric_kind == "term_overlap"
        assert report.recall == 1.0
        assert report.recall_loo == 0.0

    def test_requires_facet_aligned_config(self, planted):
        with pytest.raises(ValueError, match="facet_aligned"):
            loo_faithfulness(
                planted["instances"],
                extractive_generate,
                planted["query_only"],
                corpus=planted["corpus"],
                index=planted["index"],
            )

    def test_sole_provenance_flag(self, planted):
        # In the planted corpus every facet document has singleton
        # provenance, so both removal policies agree.
        strict = loo_faithfulness(
            planted["instances"],
            extractive_generate,
            planted["aligned"],
            corpus=planted["corpus"],
            index=planted["index"],
            seed=13,
            sole_provenance_only=True,
        )
        assert strict.recall_loo == 0.0


class TestEvidenceSizeSweep:
    def single_token_setup(self):
        instances = [
            ClarificationInstance(id="i1", query="penny", facets=("cast",)),
            ClarificationInstance(id="i2", query="movie", facets=("trailer",)),
            ClarificationInstance(id="i3", query="series", facets=("quotes",)),
        ]
        return instances

    def test_oracle_single_facet_recall_one(self):
        instances = self.single_token_setup()
        cfg = RetrievalConfig(alignment="oracle", k=5)
        report = evidence_size_sweep(instances, extractive_generate, cfg, [1])
        (point,) = report.points
        assert point.n_evidence == 1
        assert point.report.exact_match.recall == 1.0
        assert point.evaluated_count == 3

    def test_shape_strictly_increasing(self, planted):
        report = evidence_size_sweep(
            planted["instances"][:5],
            extractive_generate,
            planted["aligned"],
            [1, 2, 3],
            corpus=planted["corpus"],
            index=planted["index"],
        )
        assert [p.n_evidence for p in report.points] == [1, 2, 3]

    def test_invalid_n_values(self, planted):
        for bad in ([], [3, 2], [0, 1], [1, 1]):
            with pytest.raises(ValueError):
                evidence_size_sweep(
                    planted["instances"][:2],
                    extractive_generate,
                    planted["aligned"],
                    bad,
                    corpus=planted["corpus"],
                    index=planted["index"],
                )

    def test_closed_book_fails_the_whole_sweep(self, planted):
        # The extractive generator has no evidence to draw on at any n, so
        # the first point skips every instance and the sweep fails.
        cfg = RetrievalConfig(alignment="closed_book", k=5)
        with pytest.raises(
            GeneratorError, match=r"^all 4 instances skipped; first inst0: n=1: no evidence"
        ):
            evidence_size_sweep(
                planted["instances"][:4],
                extractive_generate,
                cfg,
                [1, 2],
                corpus=planted["corpus"],
            )

    def test_no_pool_fails_the_sweep_with_its_prefix(self, planted):
        with pytest.raises(DataError, match=r"^all 1 instances skipped; first blank: pool: empty"):
            evidence_size_sweep(
                [BLANK], extractive_generate, planted["aligned"], [1], index=planted["index"]
            )

    def test_skip_reasons_keep_their_prefix_and_order(self, planted):
        def refuse_topic1(request):
            if request.query == "topic1":
                raise GeneratorError("refused")
            return extractive_generate(request)

        instances = planted["instances"][:2] + [BLANK] + planted["instances"][2:3]
        report = evidence_size_sweep(
            instances,
            refuse_topic1,
            planted["aligned"],
            [1, 3],
            corpus=planted["corpus"],
            index=planted["index"],
        )
        assert report.skip_reasons == (
            ("blank", "pool: empty query"),
            ("inst1", "n=1: refused"),
            ("inst1", "n=3: refused"),
        )
        assert [(p.evaluated_count, p.skipped_count) for p in report.points] == [(2, 1)] * 2

    def test_more_aligned_evidence_helps_on_planted(self, planted):
        # With one document the pool holds only a distractor; by n=3 both
        # facet documents are present.
        report = evidence_size_sweep(
            planted["instances"],
            extractive_generate,
            planted["aligned"],
            [1, 3],
            corpus=planted["corpus"],
            index=planted["index"],
        )
        first, second = report.points
        assert second.report.exact_match.recall > first.report.exact_match.recall


class TestTaxonomyAnalysis:
    def test_single_repeated_word(self):
        instances = [
            ClarificationInstance(id=f"i{k}", query="q", facets=("cast",))
            for k in range(4)
        ]
        report = taxonomy_analysis(instances)
        assert report.top_words == (("cast", 4),)
        assert report.biased_fraction == 1.0

    def test_exact_fraction_with_planted_taxonomy(self):
        taxonomy_words = [f"tax{j:02d}" for j in range(20)]
        instances = []
        for i in range(20):
            instances.append(
                ClarificationInstance(
                    id=f"biased{i}", query="q", facets=tuple(taxonomy_words)
                )
            )
        for i in range(80):
            instances.append(
                ClarificationInstance(id=f"plain{i}", query="q", facets=(f"uniq{i}",))
            )
        report = taxonomy_analysis(instances, top_k=20)
        assert [w for w, _ in report.top_words] == taxonomy_words
        assert all(count == 20 for _, count in report.top_words)
        assert report.biased_fraction == 0.200

    def test_degenerate_full_vocabulary(self):
        instances = [
            ClarificationInstance(id="a", query="q", facets=("red",)),
            ClarificationInstance(id="b", query="q", facets=("blue",)),
        ]
        report = taxonomy_analysis(instances, top_k=20)
        assert report.biased_fraction == 1.0

    def test_ties_alphabetical(self):
        instances = [
            ClarificationInstance(id="a", query="q", facets=("zebra apple",)),
        ]
        report = taxonomy_analysis(instances, top_k=2)
        assert report.top_words == (("apple", 1), ("zebra", 1))

    def test_stopwords_excluded(self):
        instances = [
            ClarificationInstance(id="a", query="q", facets=("things to do",)),
        ]
        report = taxonomy_analysis(instances, top_k=5)
        # "to" and "do" are stopwords; only "things" is counted.
        assert report.top_words == (("things", 1),)

    @given(
        facet_lists=st.lists(
            st.lists(
                st.lists(st.sampled_from(["the", "red", "Red!", "blue", "to", "green"]))
                .map(" ".join),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=6,
        ),
        top_k=st.integers(1, 4),
    )
    def test_matches_two_pass_oracle_tokenizing_each_facet_once(self, facet_lists, top_k):
        instances = [
            ClarificationInstance(id=f"i{n}", query="q", facets=tuple(facets))
            for n, facets in enumerate(facet_lists)
        ]
        # Oracle: count, then tokenize every facet again for the biased test.
        counts: dict[str, int] = {}
        for facets in facet_lists:
            for facet in facets:
                for token in normalize(facet, drop_stopwords=True):
                    counts[token] = counts.get(token, 0) + 1
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:top_k]
        top = {word for word, _ in ranked}
        biased = sum(
            any(top.intersection(normalize(f, drop_stopwords=True)) for f in facets)
            for facets in facet_lists
        )
        calls = []

        def counting_normalize(text, drop_stopwords=False):
            calls.append(text)
            return normalize(text, drop_stopwords)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "normalize", counting_normalize)
            report = taxonomy_analysis(instances, top_k=top_k)
        assert report.top_words == tuple(ranked)
        assert report.biased_fraction == biased / len(instances)
        assert len(calls) == sum(len(facets) for facets in facet_lists)


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def experiment_config(tmp_path, corpus, instances, retrieval, generator=None, seed=7):
    corpus_path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus_path, [{"id": d.id, "text": d.text} for d in corpus.docs])
    inst_path = tmp_path / "instances.jsonl"
    write_jsonl(
        inst_path,
        [
            {"id": i.id, "query": i.query, "question": i.question, "facets": list(i.facets)}
            for i in instances
        ],
    )
    out_dir = tmp_path / "out"
    return {
        "corpus": str(corpus_path),
        "instances": str(inst_path),
        "embeddings": None,
        "retrieval": retrieval,
        "generator": generator or {"kind": "extractive", "max_facets": 5},
        "seed": seed,
        "output_dir": str(out_dir),
    }


class TestRunExperiment:
    def test_oracle_extractive_single_token_facets(self, tmp_path):
        instances = [
            ClarificationInstance(id="i1", query="penny", facets=("cast",)),
            ClarificationInstance(id="i2", query="movie", facets=("trailer",)),
        ]
        corpus = Corpus.from_docs([Document("d1", "filler text")])
        config = experiment_config(
            tmp_path, corpus, instances, {"alignment": "oracle", "k": 5}
        )
        report = run_experiment(config)
        assert report.evaluated_count == 2
        assert report.mean.exact_match.f1 > 0.99
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_determinism_across_parallelism(self, planted, tmp_path):
        config = experiment_config(
            tmp_path,
            planted["corpus"],
            planted["instances"],
            {"alignment": "facet_aligned", "k": 5},
        )
        run_experiment(dict(config), parallelism=1)
        first = (tmp_path / "out" / "summary.csv").read_bytes()
        first_report = (tmp_path / "out" / "report.json").read_bytes()
        run_experiment(dict(config), parallelism=4)
        assert (tmp_path / "out" / "summary.csv").read_bytes() == first
        assert (tmp_path / "out" / "report.json").read_bytes() == first_report

    @pytest.mark.parametrize(
        "kind, parallelism, workers",
        [
            pytest.param("extractive", None, None, id="extractive-None"),
            pytest.param("remote", None, 3, id="remote-3"),  # the patched CPU count
            pytest.param("extractive", 4, None, id="extractive-4"),
            pytest.param("remote", 2, 2, id="remote-2"),
        ],
    )
    def test_default_parallelism_threads_only_remote(
        self, planted, tmp_path, monkeypatch, mock_endpoint, kind, parallelism, workers
    ):
        import concurrent.futures

        import clarikit.harness as harness
        from conftest import endpoint_url

        started = []

        class RecordingExecutor(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        # run_experiment imports the executor from its package when it needs one.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        mock_endpoint.behavior = lambda req: (200, {"question": None, "facets": ["x"]}, 0.0)
        generator = {"kind": kind, "endpoint": endpoint_url(mock_endpoint)}
        config = experiment_config(
            tmp_path,
            planted["corpus"],
            planted["instances"],
            {"alignment": "oracle", "k": 5},
            generator=generator,
        )
        report = run_experiment(config, parallelism=parallelism)
        assert report.evaluated_count == len(planted["instances"])
        assert started == ([] if workers is None else [workers])

    @pytest.mark.parametrize("parallelism", [0, -3, True, 2.0, "2"])
    def test_bad_parallelism_raises_before_loading(self, tmp_path, parallelism):
        config = {
            "corpus": str(tmp_path / "nope.jsonl"),
            "instances": str(tmp_path / "also-nope.jsonl"),
            "retrieval": {"alignment": "oracle", "k": 5},
            "generator": {"kind": "extractive"},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        }
        with pytest.raises(ValueError, match="parallelism must be an integer >= 1"):
            run_experiment(config, parallelism=parallelism)
        assert not (tmp_path / "out").exists()

    def test_remote_outputs_identical_across_parallelism(
        self, planted, tmp_path, mock_endpoint
    ):
        from conftest import endpoint_url

        # Replies depend on the request alone, and each takes a moment, so
        # four threads finish their calls out of input order.
        mock_endpoint.behavior = lambda req: (
            200,
            {"question": None, "facets": req["evidence"][: req["max_facets"]]},
            0.002 * (len(req["query"]) % 3),
        )
        config = experiment_config(
            tmp_path,
            planted["corpus"],
            planted["instances"],
            {"alignment": "facet_aligned", "k": 5},
            generator={"kind": "remote", "endpoint": endpoint_url(mock_endpoint),
                       "max_facets": 2},
        )
        out, outputs = tmp_path / "out", []
        for parallelism in (1, 4):
            report = run_experiment(dict(config), parallelism=parallelism)
            assert report.evaluated_count == len(planted["instances"])
            outputs.append([(out / n).read_bytes() for n in ("report.json", "summary.csv")])
        assert outputs[0] == outputs[1]
        assert len(mock_endpoint.requests) == 2 * len(planted["instances"])

    def test_unwritable_output_dir_fails_before_any_pool(
        self, planted, tmp_path, monkeypatch
    ):
        built = []

        def counting_build_pool(*args, **kwargs):
            built.append(args[1].id)
            return build_pool(*args, **kwargs)

        monkeypatch.setattr(harness, "build_pool", counting_build_pool)
        config = experiment_config(
            tmp_path,
            planted["corpus"],
            planted["instances"],
            {"alignment": "facet_aligned", "k": 5},
        )
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        with pytest.raises(FileExistsError):
            run_experiment({**config, "output_dir": str(blocker)})
        assert built == []
        assert blocker.read_text() == "a file, not a directory\n"
        run_experiment(config)
        assert len(built) == len(planted["instances"])

    def test_missing_corpus_fails_fast_without_output(self, tmp_path):
        config = {
            "corpus": str(tmp_path / "nope.jsonl"),
            "instances": str(tmp_path / "also-nope.jsonl"),
            "retrieval": {"alignment": "oracle", "k": 5},
            "generator": {"kind": "extractive"},
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
        }
        with pytest.raises(DataError, match="corpus"):
            run_experiment(config)
        assert not (tmp_path / "out").exists()

    def test_dense_experiment_end_to_end(self, tmp_path):
        # Embeddings carry both document vectors (by doc id) and sub-query
        # vectors (keyed by the sub-query text itself).
        corpus = Corpus.from_docs(
            [
                Document("d1", "cast and crew listing"),
                Document("d2", "weather forecast page"),
            ]
        )
        instances = [
            ClarificationInstance(id="i1", query="penny", facets=("cast",)),
        ]
        config = experiment_config(
            tmp_path,
            corpus,
            instances,
            {"mode": "dense", "alignment": "facet_aligned", "k": 2},
        )
        emb_path = tmp_path / "embeddings.jsonl"
        write_jsonl(
            emb_path,
            [
                {"id": "d1", "vector": [1.0, 0.0]},
                {"id": "d2", "vector": [0.0, 1.0]},
                {"id": "penny", "vector": [0.6, 0.4]},
                {"id": "penny cast", "vector": [1.0, 0.1]},
            ],
        )
        config["embeddings"] = str(emb_path)
        report = run_experiment(config)
        assert report.evaluated_count == 1
        # d1 ("cast and crew listing") dominates both sub-queries, so the
        # extractive generator recovers the facet.
        assert report.per_instance[0][1].exact_match.recall == 1.0

    def test_remote_generator_experiment_with_parallelism(self, tmp_path, mock_endpoint):
        from conftest import endpoint_url

        # Echo generator: returns the first evidence text as the only facet.
        mock_endpoint.behavior = lambda req: (
            200,
            {"question": None, "facets": req["evidence"][:1]},
            0.01,
        )
        instances = [
            ClarificationInstance(id=f"i{k}", query=f"q{k}", facets=(f"facet{k}",))
            for k in range(8)
        ]
        corpus = Corpus.from_docs([Document("d1", "unused text")])
        config = experiment_config(
            tmp_path,
            corpus,
            instances,
            {"alignment": "oracle", "k": 5},
            generator={"kind": "remote", "endpoint": endpoint_url(mock_endpoint),
                       "max_facets": 5, "timeout": 10},
        )
        report = run_experiment(config, parallelism=4)
        assert report.evaluated_count == 8
        assert report.mean.exact_match.f1 == 1.0
        assert len(mock_endpoint.requests) == 8

    def test_remote_generator_failing_everywhere_fails_the_run(self, tmp_path, mock_endpoint):
        from conftest import endpoint_url

        mock_endpoint.behavior = lambda req: (500, {"error": "down"}, 0)
        instances = [ClarificationInstance(id="i1", query="q", facets=("cast",))]
        corpus = Corpus.from_docs([Document("d1", "unused text")])
        config = experiment_config(
            tmp_path,
            corpus,
            instances,
            {"alignment": "oracle", "k": 5},
            generator={"kind": "remote", "endpoint": endpoint_url(mock_endpoint)},
        )
        with pytest.raises(GeneratorError, match=r"^all 1 instances skipped; first i1: .*500"):
            run_experiment(config)
        assert list((tmp_path / "out").iterdir()) == []

    def test_set_sim_table_embedder(self, tmp_path):
        # Facet vectors keyed by normalized facet text drive Set-Sim; "cast"
        # and "crew" are similar but not identical.
        instances = [ClarificationInstance(id="i1", query="penny", facets=("cast",))]
        corpus = Corpus.from_docs([Document("d1", "unused text")])
        config = experiment_config(
            tmp_path, corpus, instances, {"alignment": "oracle", "k": 5}
        )
        emb_path = tmp_path / "facet_vectors.jsonl"
        write_jsonl(emb_path, [{"id": "cast", "vector": [1.0, 0.0]}])
        config["embeddings"] = str(emb_path)
        config["set_sim"] = "table"
        report = run_experiment(config)
        assert report.evaluated_count == 1
        assert report.per_instance[0][1].set_sim.f1 == 1.0

    def test_config_hash_names_the_experiment_not_its_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the relative output_dir "out" lands here
        corpus = Corpus.from_docs([Document("d1", "cast and crew")])
        instances = [ClarificationInstance(id="i1", query="penny", facets=("cast",))]
        hashes = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            config = experiment_config(d, corpus, instances, {"alignment": "oracle", "k": 5})
            config.update(corpus="corpus.jsonl", instances="instances.jsonl", output_dir="out")
            (d / "config.json").write_text(json.dumps(config))
            report = run_experiment(d / "config.json")
            hashes.append(report.config_hash)
        assert hashes[0] == hashes[1]
        # One byte of the corpus changes the hash.
        corpus_path = tmp_path / "b" / "corpus.jsonl"
        corpus_path.write_text(corpus_path.read_text().replace("cast", "cost"))
        report = run_experiment(tmp_path / "b" / "config.json")
        assert report.config_hash != hashes[0]

    def test_config_hash_ignores_the_output_dir(self, tmp_path):
        corpus = Corpus.from_docs([Document("d1", "cast and crew")])
        instances = [ClarificationInstance(id="i1", query="penny", facets=("cast",))]
        config = experiment_config(tmp_path, corpus, instances, {"alignment": "oracle", "k": 5})
        reports = [
            run_experiment({**config, "output_dir": str(tmp_path / name)})
            for name in ("out", "out2")
        ]
        assert reports[0].config_hash == reports[1].config_hash
        first, second = ((tmp_path / name / "report.json").read_bytes() for name in ("out", "out2"))
        assert first == second

    def test_config_hash_ignores_absolute_input_paths(self, tmp_path):
        # Identical files in two directories, each config naming its own by
        # absolute path: only the files' bytes enter the hash.
        corpus = Corpus.from_docs([Document("d1", "cast and crew")])
        instances = [ClarificationInstance(id="i1", query="penny", facets=("cast",))]
        reports = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            config = experiment_config(
                tmp_path / name, corpus, instances, {"alignment": "oracle", "k": 5}
            )
            assert Path(config["corpus"]).is_absolute()
            reports.append(run_experiment(config))
        assert reports[0].config_hash == reports[1].config_hash
        first, second = ((tmp_path / name / "out" / "report.json").read_bytes() for name in "ab")
        assert first == second

    def test_config_validation_errors(self, tmp_path):
        corpus = Corpus.from_docs([Document("d1", "text here")])
        instances = [ClarificationInstance(id="i", query="q", facets=("a",))]
        config = experiment_config(tmp_path, corpus, instances, {"alignment": "oracle", "k": 5})
        bad = dict(config)
        del bad["seed"]
        with pytest.raises(DataError, match="seed"):
            run_experiment(bad)
        bad = dict(config, generator={"kind": "remote"})
        with pytest.raises(DataError, match="endpoint"):
            run_experiment(bad)
        bad = dict(config, retrieval={"mode": "dense", "alignment": "query_only", "k": 5})
        with pytest.raises(DataError, match="embeddings"):
            run_experiment(bad)


# An instance whose query normalizes to nothing, so every lexical pool built
# for it fails with "empty query".
BLANK = ClarificationInstance(id="blank", query="?!", facets=("fct0x0a fct0x0b",))


def run_alignment_stats(planted, instances, generator, tmp_path):
    return alignment_stats(
        instances,
        lambda inst: build_pool(planted["aligned"], inst, index=planted["index"]),
        corpus=planted["corpus"],
    )


def run_loo(planted, instances, generator, tmp_path):
    return loo_faithfulness(
        instances, generator, planted["aligned"], corpus=planted["corpus"], index=planted["index"]
    )


def run_sweep(planted, instances, generator, tmp_path):
    return evidence_size_sweep(
        instances,
        generator,
        planted["aligned"],
        [1, 3],
        corpus=planted["corpus"],
        index=planted["index"],
    )


def experiment_runner(kind):
    """run_experiment with ``generator`` in place of the config's own; a
    remote kind takes the thread-pool path without calling its endpoint."""

    def run(planted, instances, generator, tmp_path):
        config = experiment_config(
            tmp_path,
            planted["corpus"],
            instances,
            {"mode": "lexical", "alignment": "facet_aligned", "k": 5},
            generator={"kind": kind, "endpoint": "http://127.0.0.1:9/unused"},
        )
        res = replace(load_resources(config), generator=generator)
        return run_experiment(res, parallelism=2)

    return run


GENERATING_RUNNERS = {
    "loo_faithfulness": run_loo,
    "evidence_size_sweep": run_sweep,
    "run_experiment": experiment_runner("extractive"),
    "run_experiment-remote": experiment_runner("remote"),
}
RUNNERS = {"alignment_stats": run_alignment_stats, **GENERATING_RUNNERS}


class TestSkipRule:
    """A ClarikitError on one instance skips it with its message as the
    reason, and the run goes on; any other error propagates."""

    @pytest.mark.parametrize("name", RUNNERS)
    def test_failing_pool_is_skipped(self, planted, tmp_path, name):
        instances = planted["instances"][:2] + [BLANK] + planted["instances"][2:4]
        report = RUNNERS[name](planted, instances, extractive_generate, tmp_path)
        prefix = "pool: " if name == "evidence_size_sweep" else ""
        assert report.skip_reasons == (("blank", f"{prefix}empty query"),)
        points = getattr(report, "points", [report])
        assert [p.evaluated_count for p in points] == [4] * len(points)

    @pytest.mark.parametrize("runner", GENERATING_RUNNERS.values(), ids=GENERATING_RUNNERS)
    def test_other_errors_propagate(self, planted, tmp_path, runner):
        def broken(request):
            raise RuntimeError("generator bug")

        with pytest.raises(RuntimeError, match="generator bug"):
            runner(planted, planted["instances"][:3], broken, tmp_path)


class TestPairedBootstrap:
    @staticmethod
    def rows(values):
        return [
            {"instance_id": f"i{k}", "exact_match_f1": v} for k, v in enumerate(values)
        ]

    def test_identical_runs(self):
        a = self.rows([0.2, 0.4, 0.6])
        result = paired_bootstrap(a, a, "exact_match_f1", iterations=500, seed=1)
        assert result.mean_diff == 0.0
        assert result.ci_low <= 0.0 <= result.ci_high

    def test_constant_shift(self):
        a = self.rows([0.2, 0.4, 0.6, 0.1])
        b = [dict(r, exact_match_f1=r["exact_match_f1"] + 0.1) for r in a]
        result = paired_bootstrap(a, b, "exact_match_f1", iterations=1000, seed=1)
        assert result.mean_diff == pytest.approx(0.1)
        assert result.ci_low == pytest.approx(0.1)
        assert result.ci_high == pytest.approx(0.1)
        assert not (result.ci_low <= 0.0 <= result.ci_high)

    def test_mismatched_ids_error(self):
        a = self.rows([0.2, 0.4])
        b = self.rows([0.2, 0.4, 0.6])
        with pytest.raises(DataError, match="i2"):
            paired_bootstrap(a, b, "exact_match_f1")

    def test_deterministic_under_seed(self):
        a = self.rows([0.1, 0.5, 0.9, 0.3])
        b = self.rows([0.2, 0.4, 0.8, 0.5])
        r1 = paired_bootstrap(a, b, "exact_match_f1", iterations=200, seed=42)
        r2 = paired_bootstrap(a, b, "exact_match_f1", iterations=200, seed=42)
        assert r1 == r2

    def test_missing_metric_key(self):
        a = self.rows([0.2])
        with pytest.raises(DataError, match="term_overlap_f1"):
            paired_bootstrap(a, a, "term_overlap_f1")

    @pytest.mark.parametrize(
        "rows, match",
        [
            pytest.param(5, "rows must be a list of objects", id="rows-not-a-list"),
            pytest.param([7], "rows must be a list of objects", id="row-not-an-object"),
            pytest.param(
                [{"instance_id": ["a"], "exact_match_f1": 0.5}],
                "instance_id must be a string",
                id="id-not-a-string",
            ),
            pytest.param(
                [{"instance_id": "a", "exact_match_f1": 0.5}] * 2,
                "instance_id 'a' is repeated",
                id="id-repeated",
            ),
            *(
                pytest.param(
                    [{"instance_id": "a", "exact_match_f1": value}],
                    "exact_match_f1 of 'a' must be a finite number",
                    id=f"metric-{name}",
                )
                for name, value in [
                    ("list", [1]),
                    ("nan", float("nan")),
                    ("inf", float("-inf")),
                    ("bool", True),
                    ("string", "0.5"),
                    ("int-beyond-float", 10**400),
                ]
            ),
        ],
    )
    def test_malformed_rows_are_data_errors(self, rows, match):
        good = self.rows([0.2])
        with pytest.raises(DataError, match=match):
            paired_bootstrap(rows, good, "exact_match_f1")
        with pytest.raises(DataError, match=match):
            paired_bootstrap(good, rows, "exact_match_f1")

    def test_int_metric_values_are_accepted(self):
        a = [{"instance_id": "a", "exact_match_f1": 0}, {"instance_id": "b", "exact_match_f1": 1}]
        assert paired_bootstrap(a, a, "exact_match_f1", iterations=10).mean_diff == 0.0
