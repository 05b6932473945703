"""CLI: subcommand wiring, exit codes, atomic output, determinism."""

import csv
import hashlib
import json
import os
import random
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import endpoint_url, make_planted
from clarikit.cli import main
from clarikit.corpus import (
    iter_generated,
    load_corpus,
    load_embeddings,
    load_instances,
    normalize,
)
from clarikit.ioutils import atomic_write_text


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


@pytest.fixture()
def data(tmp_path):
    corpus, instances = make_planted(6)
    corpus_path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus_path, [{"id": d.id, "text": d.text} for d in corpus.docs])
    inst_path = tmp_path / "instances.jsonl"
    write_jsonl(
        inst_path,
        [
            {"id": i.id, "query": i.query, "question": None, "facets": list(i.facets)}
            for i in instances
        ],
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "corpus": str(corpus_path),
                "instances": str(inst_path),
                "embeddings": None,
                "retrieval": {"mode": "lexical", "alignment": "facet_aligned", "k": 5},
                "generator": {"kind": "extractive", "max_facets": 5},
                "seed": 11,
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    return {
        "tmp": tmp_path,
        "corpus": corpus_path,
        "instances": inst_path,
        "config": config_path,
        "instances_list": instances,
    }


class TestParsing:
    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        [
            "retrieve",
            "pool",
            "evaluate",
            "align-stats",
            "loo",
            "sweep",
            "taxonomy",
            "experiment",
            "bootstrap",
        ],
    )
    def test_every_subcommand_supports_help(self, command, capsys):
        assert main([command, "--help"]) == 0
        assert "--json" in capsys.readouterr().out

    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["taxonomy", "--instances", "x", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1


class TestRetrieve:
    def test_flow(self, data, capsys):
        assert (
            main(
                [
                    "retrieve",
                    "--corpus",
                    str(data["corpus"]),
                    "--query",
                    "topic0",
                    "--k",
                    "3",
                    "--json",
                ]
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert len(out["results"]) == 3
        assert out["results"][0]["rank"] == 1

    def test_retrieve_empty_query_is_data_error(self, data):
        assert (
            main(["retrieve", "--corpus", str(data["corpus"]), "--query", "!!!", "--k", "3"]) == 2
        )

    @pytest.mark.parametrize(
        "flag, expected",
        [
            (
                ["--json"],
                '{"query": "the cat", "results": [{"doc_id": "a", "rank": 1, '
                '"score": 1.2018935337374126}, {"doc_id": "b", "rank": 2, '
                '"score": 0.8586604765066322}]}\n',
            ),
            ([], "  1  1.201894  a\n  2  0.858660  b\n2 results for 'the cat'\n"),
        ],
        ids=["json", "text"],
    )
    def test_output_is_pinned(self, tmp_path, capsys, flag, expected):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(
            corpus,
            [
                {"id": "b", "text": "Cat sat on the mat."},
                {"id": "a", "text": "the cat, the CAT!"},
                {"id": "c", "text": "dog"},
            ],
        )
        argv = ["retrieve", "--corpus", str(corpus), "--query", "the cat", "--k", "5", *flag]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_missing_corpus_is_data_error(self, tmp_path):
        argv = ["retrieve", "--corpus", str(tmp_path / "none.jsonl"), "--query", "x", "--k", "1"]
        assert main(argv) == 2

    @pytest.mark.parametrize(
        "flag, value", [("--k1", "nan"), ("--k1", "inf"), ("--k1", "-1"), ("--b", "nan")]
    )
    def test_bad_bm25_parameter_is_data_error(self, data, capsys, flag, value):
        argv = ["retrieve", "--corpus", str(data["corpus"]), "--query", "topic0", "--k", "3"]
        argv += [flag, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: BM25 ")
        assert captured.err.count("\n") == 1


class TestPool:
    def test_writes_pools(self, data, tmp_path, capsys):
        out = tmp_path / "pools.jsonl"
        assert main(["pool", "--config", str(data["config"]), "--out", str(out)]) == 0
        pools = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [p["instance_id"] for p in pools] == [f"inst{i}" for i in range(6)]
        assert all(1 <= len(p["entries"]) <= 5 for p in pools)
        assert all(set(p) == {"instance_id", "config", "entries"} for p in pools)
        entries = [e for p in pools for e in p["entries"]]
        assert all(set(e) == {"doc_id", "score", "provenance"} for e in entries)

    def test_failing_pool_is_skipped(self, data, tmp_path, capsys):
        rows = [json.loads(line) for line in data["instances"].read_text().splitlines()]
        rows.insert(2, {"id": "blank", "query": "?!", "facets": ["fct0x0a"]})
        write_jsonl(data["instances"], rows)
        out = tmp_path / "pools.jsonl"
        assert main(["pool", "--config", str(data["config"]), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "skipped blank: empty query\n"
        assert captured.out == f"wrote 6 pools to {out} (1 skipped)\n"
        assert "blank" not in out.read_text()

    @pytest.mark.parametrize("own_instances", ["missing", "malformed"])
    def test_instances_override_never_reads_config_instances(
        self, data, tmp_path, own_instances
    ):
        # The config sits in its own directory with a relative corpus path;
        # its instances file is missing or malformed, the override is valid.
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        (cfg_dir / "corpus.jsonl").write_bytes(data["corpus"].read_bytes())
        if own_instances == "malformed":
            (cfg_dir / "instances.jsonl").write_text("{not json\n", encoding="utf-8")
        config = json.loads(data["config"].read_text())
        config.update(corpus="corpus.jsonl", instances="instances.jsonl")
        (cfg_dir / "config.json").write_text(json.dumps(config))
        out = tmp_path / "pools.jsonl"
        argv = ["pool", "--config", str(cfg_dir / "config.json"), "--out", str(out)]
        assert main(argv) == 2
        assert main(argv + ["--instances", str(data["instances"])]) == 0
        expected = tmp_path / "expected.jsonl"
        assert main(["pool", "--config", str(data["config"]), "--out", str(expected)]) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_missing_instances_override_names_the_flag(self, data, tmp_path, capsys):
        out = tmp_path / "pools.jsonl"
        argv = ["pool", "--config", str(data["config"]), "--out", str(out)]
        missing = tmp_path / "nope.jsonl"
        assert main(argv + ["--instances", str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"data error: --instances file not found: {missing}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("bm25_k1", 10**400, f"BM25 k1 must be in [0, 1e+09], got {10**400}"),
            ("bm25_k1", -(10**400), f"BM25 k1 must be in [0, 1e+09], got {-(10**400)}"),
            ("bm25_k1", True, "BM25 k1 must be in [0, 1e+09], got True"),
            ("bm25_b", "x", "BM25 b must be in [0, 1], got x"),
            ("bm25_b", False, "BM25 b must be in [0, 1], got False"),
            ("mmr_lambda", True, "mmr_lambda must be in [0, 1], got True"),
            ("mmr_lambda", "0.5", "mmr_lambda must be in [0, 1], got 0.5"),
            ("k", True, "k must be an integer, got True"),
        ],
    )
    def test_retrieval_number_is_never_a_bool_or_beyond_float_range(
        self, data, tmp_path, capsys, key, value, message
    ):
        config = json.loads(data["config"].read_text())
        config["retrieval"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "pools.jsonl"
        assert main(["pool", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: invalid retrieval config: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("bm25_k1", float("nan")),
            ("bm25_k1", float("inf")),
            ("bm25_k1", -1),
            ("bm25_b", float("nan")),
            ("k", 10.5),
            ("candidate_n", 50.0),
        ],
    )
    def test_bad_retrieval_number_exits_2_writing_nothing(
        self, data, tmp_path, capsys, key, value
    ):
        config = json.loads(data["config"].read_text())
        config["retrieval"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))  # json writes NaN and Infinity as such
        out = tmp_path / "pools.jsonl"
        assert main(["pool", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: invalid retrieval config: ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestEvaluate:
    def test_flow_with_mean_and_csv(self, data, tmp_path, capsys):
        gen_path = tmp_path / "generated.jsonl"
        write_jsonl(
            gen_path,
            [
                {"id": inst.id, "facets": list(inst.facets)}
                for inst in data["instances_list"]
            ],
        )
        out = tmp_path / "scores.jsonl"
        assert (
            main(
                [
                    "evaluate",
                    "--generated",
                    str(gen_path),
                    "--truth",
                    str(data["instances"]),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 7
        assert lines[-1]["instance_id"] == "__mean__"
        assert lines[-1]["exact_match_f1"] == 1.0
        csv_path = out.with_suffix(".csv")
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("instance_id,term_overlap_precision")

    def test_missing_id_exits_2_naming_it(self, data, tmp_path, capsys):
        gen_path = tmp_path / "generated.jsonl"
        rows = [
            {"id": inst.id, "facets": list(inst.facets)}
            for inst in data["instances_list"]
            if inst.id != "inst2"
        ]
        write_jsonl(gen_path, rows)
        out = tmp_path / "scores.jsonl"
        code = main(
            [
                "evaluate",
                "--generated",
                str(gen_path),
                "--truth",
                str(data["instances"]),
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert "inst2" in capsys.readouterr().err
        # No partial output on failure.
        assert not out.exists()

    def test_out_of_order_generated_still_works(self, data, tmp_path):
        gen_path = tmp_path / "generated.jsonl"
        rows = [
            {"id": inst.id, "facets": list(inst.facets)}
            for inst in reversed(data["instances_list"])
        ]
        write_jsonl(gen_path, rows)
        out = tmp_path / "scores.jsonl"
        assert (
            main(
                [
                    "evaluate",
                    "--generated",
                    str(gen_path),
                    "--truth",
                    str(data["instances"]),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )

    def test_embedding_beyond_float_range_exits_2(self, tmp_path, capsys):
        emb_path = tmp_path / "embeddings.jsonl"
        write_jsonl(
            emb_path, [{"id": "windows", "vector": [1, 0]}, {"id": "mac", "vector": [1, 10**400]}]
        )
        gen_path, truth_path = tmp_path / "generated.jsonl", tmp_path / "truth.jsonl"
        write_jsonl(gen_path, [{"id": "q1", "facets": ["windows"]}])
        write_jsonl(truth_path, [{"id": "q1", "query": "os", "question": None, "facets": ["mac"]}])
        out = tmp_path / "scores.jsonl"
        argv = ["evaluate", "--generated", str(gen_path), "--truth", str(truth_path)]
        assert main([*argv, "--embeddings", str(emb_path), "--out", str(out)]) == 2
        assert "data error:" in capsys.readouterr().err
        assert not out.exists()

    def _evaluate(self, tmp_path, generated, truth):
        gen_path, truth_path = tmp_path / "generated.jsonl", tmp_path / "truth.jsonl"
        write_jsonl(gen_path, [{"id": i, "facets": f} for i, f in generated])
        write_jsonl(
            truth_path,
            [{"id": i, "query": q, "question": None, "facets": f} for i, q, f in truth],
        )
        out = tmp_path / "scores.jsonl"
        argv = ["evaluate", "--generated", str(gen_path), "--truth", str(truth_path)]
        return main([*argv, "--out", str(out)]), out

    @pytest.mark.parametrize("truth_order", [("a", "b"), ("b", "a")])
    def test_repeated_generated_id_exits_2_naming_both_lines(
        self, tmp_path, capsys, truth_order
    ):
        facets = {"a": ["green"], "b": ["red"]}
        code, out = self._evaluate(
            tmp_path,
            [("b", ["red"]), ("b", ["blue"]), ("a", ["green"])],
            [(i, "colors", facets[i]) for i in truth_order],
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2: duplicate generated id 'b' (first seen on line 1)" in err
        assert not out.exists()
        assert not out.with_suffix(".csv").exists()

    def test_repeated_id_outside_truth_exits_2(self, tmp_path, capsys):
        code, out = self._evaluate(
            tmp_path,
            [("a", ["green"]), ("x", ["red"]), ("x", ["blue"])],
            [("a", "colors", ["green"])],
        )
        assert code == 2
        assert "line 3: duplicate generated id 'x' (first seen on line 2)" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_extra_generated_ids_are_ignored(self, tmp_path):
        code, out = self._evaluate(
            tmp_path,
            [("x", ["red"]), ("a", ["green"])],
            [("a", "colors", ["green"])],
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["instance_id"] for row in rows] == ["a", "__mean__"]

    def test_malformed_line_after_last_needed_id_exits_2(self, tmp_path, capsys):
        # The whole generated file is validated, not only up to the last id
        # the truth file needs.
        code, out = self._evaluate(
            tmp_path, [("a", ["green"]), ("z", "red")], [("a", "colors", ["green"])]
        )
        assert code == 2
        assert "line 2: 'facets' must be a list of strings" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_text_is_pinned(self, tmp_path):
        code, out = self._evaluate(
            tmp_path,
            [
                ("q1", ["Windows 10", "linux", "mac"]),
                ("q2", ["zip code finder", "area code", "phone"]),
            ],
            [
                ("q1", "operating systems", ["windows 10", "windows 7", "mac os"]),
                ("q2", "area code", ["zip code", "area code lookup"]),
            ],
        )
        assert code == 0
        assert out.with_suffix(".csv").read_text() == (
            "instance_id,term_overlap_precision,term_overlap_recall,term_overlap_f1,"
            "exact_match_precision,exact_match_recall,exact_match_f1,set_sim_precision,"
            "set_sim_recall,set_sim_f1,set_bleu1,set_bleu2,set_bleu3,set_bleu4\n"
            "q1,0.750000,0.600000,0.666667,0.333333,0.333333,0.333333,0.333333,0.333333,"
            "0.333333,0.455960,0.420043,0.341817,0.308616\n"
            "q2,0.600000,0.750000,0.666667,0.000000,0.000000,0.000000,0.000000,0.000000,"
            "0.000000,0.424399,0.424399,0.362370,0.335411\n"
            "__mean__,0.675000,0.675000,0.666667,0.166667,0.166667,0.166667,0.166667,"
            "0.166667,0.166667,0.440179,0.422221,0.352093,0.322014\n"
        )

    def test_id_that_needs_quoting_is_pinned(self, tmp_path):
        inst_id = 'a,"b"\nc'
        code, out = self._evaluate(
            tmp_path, [(inst_id, ["red apple"])], [(inst_id, "fruit", ["red apple"])]
        )
        assert code == 0
        fields = (
            '"exact_match_f1": 1.0, "exact_match_precision": 1.0, "exact_match_recall": 1.0, '
            '"instance_id": {}, "set_bleu1": 1.0, "set_bleu2": 1.0, '
            '"set_bleu3": 0.7937005259840998, "set_bleu4": 0.7071067811865476, '
            '"set_sim_f1": 1.0, "set_sim_precision": 1.0, "set_sim_recall": 1.0, '
            '"term_overlap_f1": 1.0, "term_overlap_precision": 1.0, "term_overlap_recall": 1.0'
        )
        assert out.read_text() == (
            "{" + fields.format('"a,\\"b\\"\\nc"') + "}\n"
            "{" + fields.format('"__mean__"') + "}\n"
        )
        values = "1.000000,1.000000,1.000000," * 3 + "1.000000,1.000000,0.793701,0.707107\n"
        assert out.with_suffix(".csv").read_text() == (
            "instance_id,term_overlap_precision,term_overlap_recall,term_overlap_f1,"
            "exact_match_precision,exact_match_recall,exact_match_f1,set_sim_precision,"
            "set_sim_recall,set_sim_f1,set_bleu1,set_bleu2,set_bleu3,set_bleu4\n"
            '"a,""b""\nc",' + values + "__mean__," + values
        )

    def test_heap_above_its_inputs_is_under_1kb_per_instance(self, tmp_path, capsys):
        # Per instance, evaluate keeps its 13 metric values and formats each
        # output row as it writes it: no report object, no joined text.  The
        # vocabulary is small, so the embedder's norm cache, which grows per
        # distinct facet text and not per instance, stays small too.
        n, rng = 1_000, random.Random(3)
        words = [f"w{i}" for i in range(12)]

        def facets():
            count = rng.randint(2, 5)
            return [" ".join(rng.sample(words, rng.randint(1, 2))) for _ in range(count)]

        truth = {f"q{i}": facets() for i in range(n)}
        generated = {i: facets() for i in truth}
        texts = {
            " ".join(normalize(facet))
            for lists in (truth, generated)
            for facet_list in lists.values()
            for facet in facet_list
        }
        paths = {name: tmp_path / f"{name}.jsonl" for name in ("truth", "generated", "embeddings")}
        write_jsonl(
            paths["truth"],
            [{"id": i, "query": "q", "question": None, "facets": f} for i, f in truth.items()],
        )
        write_jsonl(paths["generated"], [{"id": i, "facets": f} for i, f in generated.items()])
        write_jsonl(
            paths["embeddings"],
            [{"id": t, "vector": [rng.random() for _ in range(8)]} for t in sorted(texts)],
        )
        argv = ["evaluate", "--out", str(tmp_path / "scores.jsonl")]
        argv += [arg for name, path in paths.items() for arg in (f"--{name}", str(path))]
        assert main(argv) == 0  # fills the matcher's memo before anything is measured

        tracemalloc.start()
        try:
            inputs = (
                load_instances(paths["truth"]),
                load_embeddings(paths["embeddings"]),
                dict(iter_generated(paths["generated"])),
            )
            held = tracemalloc.get_traced_memory()[0]
            del inputs
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_instance = (peak - start - held) / n
        assert per_instance < 1_000, f"{per_instance:.0f} B per instance above the inputs"

    def test_long_generated_list(self, tmp_path):
        generated = [f"facet {i}" for i in range(1200)]
        code, out = self._evaluate(
            tmp_path, [("q1", generated)], [("q1", "query", ["facet 7", "facet 9", "other"])]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["instance_id"] for row in rows] == ["q1", "__mean__"]
        assert rows[0]["exact_match_recall"] == pytest.approx(2 / 3)


# Words that normalize to one or two tokens, never to nothing.
_FACET_WORDS = ["red", "Green", "apple,", "pear", "big-small", "tree"]
_FACET = st.lists(st.sampled_from(_FACET_WORDS), min_size=1, max_size=3).map(" ".join)
_FACET_LIST = st.lists(_FACET, min_size=1, max_size=4)
_LIST_PAIRS = st.lists(st.tuples(_FACET_LIST, _FACET_LIST), min_size=1, max_size=6)


def _evaluate_rows(root, generated, truth, name):
    """Rows of `clarikit evaluate` over (id, facets) lists, as JSONL text lines."""
    gen_path, truth_path = root / f"{name}-generated.jsonl", root / f"{name}-truth.jsonl"
    write_jsonl(gen_path, [{"id": i, "facets": f} for i, f in generated])
    write_jsonl(truth_path, [{"id": i, "query": "q", "facets": f} for i, f in truth])
    out = root / f"{name}.jsonl"
    argv = ["evaluate", "--generated", str(gen_path), "--truth", str(truth_path)]
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8").splitlines()


class TestEvaluateInvariants:
    """Metamorphic properties of `clarikit evaluate`: no oracle, exact equality."""

    examples = settings(
        deadline=None, max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )

    @examples
    @given(pairs=_LIST_PAIRS)
    def test_swapping_files_swaps_precision_and_recall(self, tmp_path, capsys, pairs):
        a = [(f"q{i}", first) for i, (first, _) in enumerate(pairs)]
        b = [(f"q{i}", second) for i, (_, second) in enumerate(pairs)]
        with tempfile.TemporaryDirectory(dir=tmp_path) as root:
            forward = _evaluate_rows(Path(root), a, b, "forward")
            backward = _evaluate_rows(Path(root), b, a, "backward")
        capsys.readouterr()
        assert len(forward) == len(backward) == len(pairs) + 1
        for fwd, bwd in zip(map(json.loads, forward), map(json.loads, backward)):
            assert fwd["instance_id"] == bwd["instance_id"]
            for metric in ("term_overlap", "exact_match"):
                assert fwd[f"{metric}_precision"] == bwd[f"{metric}_recall"]
                assert fwd[f"{metric}_recall"] == bwd[f"{metric}_precision"]
                assert fwd[f"{metric}_f1"] == bwd[f"{metric}_f1"]

    @examples
    @given(data=st.data(), pairs=_LIST_PAIRS)
    def test_permuting_truth_permutes_rows_and_keeps_the_mean(self, tmp_path, capsys, data, pairs):
        generated = [(f"q{i}", first) for i, (first, _) in enumerate(pairs)]
        truth = [(f"q{i}", second) for i, (_, second) in enumerate(pairs)]
        order = data.draw(st.permutations(range(len(truth))))
        with tempfile.TemporaryDirectory(dir=tmp_path) as root:
            rows = _evaluate_rows(Path(root), generated, truth, "given")
            permuted = _evaluate_rows(Path(root), generated, [truth[i] for i in order], "permuted")
        capsys.readouterr()
        # Rows compare as text, so every float is the same to the bit.
        assert permuted[:-1] == [rows[i] for i in order]
        assert permuted[-1] == rows[-1]
        assert json.loads(rows[-1])["instance_id"] == "__mean__"


_POOL_WORDS = ("ant", "bee", "cat", "dog", "eel", "fox")
_phrases = st.lists(st.sampled_from(_POOL_WORDS), min_size=1, max_size=2).map(" ".join)
_POOL_INPUTS = st.tuples(
    # Document texts; many share terms, tfs and lengths, so scores tie.
    st.lists(
        st.lists(st.sampled_from(_POOL_WORDS), min_size=1, max_size=6).map(" ".join),
        min_size=1,
        max_size=10,
    ),
    # Instances as (query, facets).
    st.lists(
        st.tuples(_phrases, st.lists(_phrases, min_size=1, max_size=3)), min_size=1, max_size=3
    ),
    st.sampled_from(["query_only", "facet_aligned"]),
    st.integers(1, 5),
)


class TestPoolInvariants:
    """Metamorphic properties of `clarikit pool`."""

    @settings(
        deadline=None, max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data(), inputs=_POOL_INPUTS)
    def test_corpus_order_cannot_move_a_bm25_pool(self, tmp_path, capsys, data, inputs):
        # Term ids follow first-seen order, but BM25 depends on no term id
        # and ties break on doc id, so permuting corpus lines moves nothing.
        texts, instances, alignment, k = inputs
        docs = [{"id": f"d{i}", "text": text} for i, text in enumerate(texts)]
        order = data.draw(st.permutations(range(len(docs))))
        with tempfile.TemporaryDirectory(dir=tmp_path) as root:
            root = Path(root)
            write_jsonl(
                root / "instances.jsonl",
                [{"id": f"i{i}", "query": q, "facets": f} for i, (q, f) in enumerate(instances)],
            )
            config = {
                "corpus": "corpus.jsonl",
                "instances": "instances.jsonl",
                "retrieval": {"mode": "lexical", "alignment": alignment, "k": k},
                "generator": {"kind": "extractive"},
                "seed": 1,
                "output_dir": str(root / "out"),
            }
            (root / "config.json").write_text(json.dumps(config))
            out, pools = str(root / "pools.jsonl"), []
            for rows in (docs, [docs[i] for i in order]):
                write_jsonl(root / "corpus.jsonl", rows)
                assert main(["pool", "--config", str(root / "config.json"), "--out", out]) == 0
                pools.append(Path(out).read_bytes())
        capsys.readouterr()
        assert pools[0] == pools[1]
        assert pools[0].count(b"\n") == len(instances)


def _write_planted(root: Path) -> list:
    corpus, instances = make_planted(6)
    write_jsonl(root / "corpus.jsonl", [{"id": d.id, "text": d.text} for d in corpus.docs])
    write_jsonl(
        root / "instances.jsonl",
        [{"id": i.id, "query": i.query, "facets": list(i.facets)} for i in instances],
    )
    return instances


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the planted-fixture outputs that TestGoldenOutputs pins.
REPORT_SHA256 = "fe2bb12a86f6f550218df6c9b302ae5a7c7f9a59697f69757a4d6c03bdadd300"
SUMMARY_SHA256 = "a37a3257a10074d8b73b55ebbc24c44deb5f639449070e02b6f211b946e0c074"
EVALUATE_JSONL_SHA256 = "d94c1e7570e534cae1558c870bcce181c400bc42c2e3555a570deb452ed4ce4a"
EVALUATE_CSV_SHA256 = "6b57a9c1737b95958bfef843c43c65827c8e0680c0c3ed846b5c88505ae0b668"


class TestGoldenOutputs:
    """The sha256 of outputs on the planted fixture, pinned on every platform
    the tests run on.  Neither run takes a dot product, so no BLAS build can
    move a bit."""

    def test_experiment_report_and_summary(self, tmp_path, monkeypatch, capsys):
        _write_planted(tmp_path)
        config = {
            "corpus": "corpus.jsonl",
            "instances": "instances.jsonl",
            "retrieval": {"mode": "lexical", "alignment": "facet_aligned", "k": 5},
            "generator": {"kind": "extractive", "max_facets": 5},
            "set_sim": "indicator",
            "seed": 11,
            "output_dir": "out",
        }
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        # config_hash covers neither the output_dir nor the input paths,
        # only the input files' bytes, so it holds no absolute path.
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "--config", "config.json"]) == 0
        assert _sha256(tmp_path / "out" / "report.json") == REPORT_SHA256
        assert _sha256(tmp_path / "out" / "summary.csv") == SUMMARY_SHA256

    def test_evaluate_jsonl_and_csv(self, tmp_path, capsys):
        instances = _write_planted(tmp_path)
        # Per instance: one exact facet, one that shares a word, one unrelated.
        generated = [
            (inst.id, [inst.facets[0], f"{inst.query} {inst.facets[1].split()[0]}", "other"])
            for inst in instances
        ]
        write_jsonl(tmp_path / "generated.jsonl", [{"id": i, "facets": f} for i, f in generated])
        out = tmp_path / "scores.jsonl"
        argv = ["evaluate", "--generated", str(tmp_path / "generated.jsonl")]
        assert main([*argv, "--truth", str(tmp_path / "instances.jsonl"), "--out", str(out)]) == 0
        assert _sha256(out) == EVALUATE_JSONL_SHA256
        assert _sha256(out.with_suffix(".csv")) == EVALUATE_CSV_SHA256


class TestHarnessCommands:
    def test_align_stats(self, data, tmp_path, capsys):
        out = tmp_path / "align.json"
        assert main(["align-stats", "--config", str(data["config"]), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["exact_match_recall"] == 1.0

    def test_corpus_ids_named_like_oracle_entries_are_documents(self, tmp_path):
        # Resolved as the instance's facet, "oracle:1" would put the label
        # into the evidence (recall 1.0), and "oracle:x" would fail to parse.
        corpus, instances = tmp_path / "corpus.jsonl", tmp_path / "instances.jsonl"
        write_jsonl(
            corpus,
            [
                {"id": "oracle:1", "text": "penny lane"},
                {"id": "oracle:x", "text": "penny arcade"},
                {"id": "d3", "text": "abbey road"},
            ],
        )
        write_jsonl(instances, [{"id": "a", "query": "penny", "facets": ["secret label"]}])
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "corpus": "corpus.jsonl",
                    "instances": "instances.jsonl",
                    "retrieval": {"alignment": "query_only", "k": 2},
                    "generator": {"kind": "extractive"},
                    "seed": 1,
                    "output_dir": str(tmp_path / "out"),
                }
            )
        )
        out = tmp_path / "align.json"
        assert main(["align-stats", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert (report["term_overlap_recall"], report["evaluated_count"]) == (0.0, 1)

    def test_loo(self, data, tmp_path):
        out = tmp_path / "loo.json"
        assert (
            main(
                [
                    "loo",
                    "--config",
                    str(data["config"]),
                    "--seed",
                    "3",
                    "--metric",
                    "exact_match",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        report = json.loads(out.read_text())
        assert report["delta_pct"] == -100.0

    def test_loo_sole_provenance_flag(self, data, tmp_path):
        # Facet documents in the planted corpus have singleton provenance,
        # so both removal policies produce the same audit.
        out = tmp_path / "loo_sole.json"
        assert (
            main(
                [
                    "loo",
                    "--config",
                    str(data["config"]),
                    "--seed",
                    "3",
                    "--sole-provenance",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert json.loads(out.read_text())["delta_pct"] == -100.0

    def test_sweep(self, data, tmp_path):
        out = tmp_path / "sweep.csv"
        assert (
            main(
                ["sweep", "--config", str(data["config"]), "--n", "1,3", "--out", str(out)]
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n_evidence,")
        assert len(lines) == 3

    def test_sweep_set_sim_matches_experiment(self, data, tmp_path):
        # Truth facets with their two words swapped: the extractive generator
        # emits them in corpus order, so no generated facet equals a truth
        # facet and the indicator fallback would score Set-Sim 0.
        inst_path = tmp_path / "swapped.jsonl"
        truth = {
            inst.id: [" ".join(reversed(f.split())) for f in inst.facets]
            for inst in data["instances_list"]
        }
        write_jsonl(
            inst_path,
            [{"id": inst.id, "query": inst.query, "facets": truth[inst.id]}
             for inst in data["instances_list"]],
        )
        # A vector for every facet the generator can emit and every truth
        # facet; texts of equal length get cosine 1.
        texts = {f for facets in truth.values() for f in facets}
        for doc in load_corpus(data["corpus"]):
            tokens = normalize(doc.text, drop_stopwords=True)
            texts.update(tokens)
            texts.update(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))
        emb_path = tmp_path / "facet_vectors.jsonl"
        write_jsonl(emb_path, [{"id": t, "vector": [1.0, float(len(t))]} for t in sorted(texts)])
        config = json.loads(data["config"].read_text())
        config.update(instances=str(inst_path), embeddings=str(emb_path), set_sim="table")
        config_path = tmp_path / "table.json"
        config_path.write_text(json.dumps(config))

        assert main(["experiment", "--config", str(config_path)]) == 0
        mean = json.loads((tmp_path / "out" / "report.json").read_text())["mean"]
        k = config["retrieval"]["k"]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config_path), "--n", str(k), "--out", str(out)]) == 0
        (row,) = csv.DictReader(out.read_text().splitlines())
        assert row["evaluated_count"] == str(len(data["instances_list"]))
        assert row["exact_match_f1"] == "0.000000"
        assert mean["set_sim_f1"] > 0.0
        for col in ("set_sim_precision", "set_sim_recall", "set_sim_f1"):
            assert float(row[col]) == pytest.approx(mean[col], abs=1e-6)

    def test_sweep_bad_n_is_usage_error(self, data, tmp_path):
        out = tmp_path / "sweep.csv"
        assert (
            main(
                ["sweep", "--config", str(data["config"]), "--n", "1,x", "--out", str(out)]
            )
            == 1
        )

    def test_taxonomy(self, data, tmp_path):
        out = tmp_path / "tax.json"
        assert (
            main(
                [
                    "taxonomy",
                    "--instances",
                    str(data["instances"]),
                    "--top-k",
                    "10",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        report = json.loads(out.read_text())
        assert len(report["top_words"]) == 10


class TestExperimentAndBootstrap:
    def test_experiment_deterministic_summary(self, data, tmp_path, capsys):
        assert main(["experiment", "--config", str(data["config"])]) == 0
        summary = (tmp_path / "out" / "summary.csv").read_bytes()
        assert (
            main(["experiment", "--config", str(data["config"]), "--parallelism", "4"]) == 0
        )
        assert (tmp_path / "out" / "summary.csv").read_bytes() == summary

    @pytest.mark.parametrize(
        "key, value",
        [
            ("max_facets", 2.7),
            ("max_facets", True),
            ("max_facets", "3"),
            ("max_facets", 0),
            ("emit_question", "false"),
            ("emit_question", 1),
            ("timeout", -1),
            ("timeout", 0),
            ("timeout", float("nan")),
            ("timeout", float("inf")),
            ("timeout", True),
            ("timeout", "30"),
            pytest.param("timeout", 10**400, id="timeout-10**400"),
            ("seed", True),
            ("seed", 1.5),
            ("corpus", 5),
            pytest.param("instances", ["x"], id="instances-list"),
            pytest.param("embeddings", {}, id="embeddings-object"),
            ("output_dir", 7),
            ("endpoint", "localhost:9"),
            ("endpoint", 5),
        ],
    )
    def test_bad_generator_or_seed_value_exits_2_writing_nothing(
        self, data, tmp_path, capsys, monkeypatch, key, value
    ):
        from clarikit import harness

        config = json.loads(data["config"].read_text())
        top_level = ("seed", "corpus", "instances", "embeddings", "output_dir")
        (config if key in top_level else config["generator"])[key] = value
        if key == "endpoint":
            config["generator"]["kind"] = "remote"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))  # json writes NaN and Infinity as such
        loads = []
        monkeypatch.setattr(harness, "load_corpus", loads.append)
        assert main(["experiment", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: ")
        assert f" {key} must be " in captured.err
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        assert loads == []  # reported before any input file is read

    def test_output_dir_that_is_a_file_exits_3_before_any_pool(
        self, data, tmp_path, capsys, monkeypatch
    ):
        from clarikit import harness

        built = []
        monkeypatch.setattr(harness, "build_pool", lambda *args, **kwargs: built.append(args))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        config = json.loads(data["config"].read_text())
        config["output_dir"] = str(blocker)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main(["experiment", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("io error: ")
        assert captured.err.count("\n") == 1
        assert built == []

    def _run_failing(self, data, tmp_path, capsys, code, **changes):
        """Run ``experiment`` on the fixture's config with ``changes``; return
        its one stderr line after checking that it wrote nothing but the
        empty ``output_dir``, which is created before the first instance."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**json.loads(data["config"].read_text()), **changes}))
        assert main(["experiment", "--config", str(path)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert list((tmp_path / "out").iterdir()) == []
        return line

    def test_closed_book_extractive_exits_3_writing_nothing(self, data, tmp_path, capsys):
        write_jsonl(
            data["instances"],
            [{"id": iid, "query": "topic0", "facets": ["fct0x0a"]} for iid in ("i1", "i2")],
        )
        retrieval = {"alignment": "closed_book", "k": 5}
        line = self._run_failing(data, tmp_path, capsys, 3, retrieval=retrieval)
        assert line == "generator error: all 2 instances skipped; first i1: no evidence"

    def test_remote_generator_down_exits_3_writing_nothing(
        self, data, tmp_path, capsys, mock_endpoint
    ):
        mock_endpoint.behavior = lambda req: (500, {"error": "down"}, 0)
        generator = {"kind": "remote", "endpoint": endpoint_url(mock_endpoint)}
        line = self._run_failing(data, tmp_path, capsys, 3, generator=generator)
        assert line.startswith(
            "generator error: all 6 instances skipped; first inst0: generator returned status 500"
        )

    def test_no_instances_exits_2_writing_nothing(self, data, tmp_path, capsys):
        (tmp_path / "empty.jsonl").write_text("")
        line = self._run_failing(data, tmp_path, capsys, 2, instances=str(tmp_path / "empty.jsonl"))
        assert line == f"data error: {tmp_path / 'empty.jsonl'}: no instances given"

    @pytest.mark.parametrize(
        "argv",
        [
            ["pool", "--out", "{out}"],
            ["pool", "--instances", "{instances}", "--out", "{out}"],
            ["align-stats", "--out", "{out}"],
            ["loo", "--seed", "1", "--out", "{out}"],
            ["sweep", "--n", "1,2", "--out", "{out}"],
        ],
        ids=["pool", "pool-instances", "align-stats", "loo", "sweep"],
    )
    def test_non_string_corpus_exits_2_writing_nothing(self, data, tmp_path, capsys, argv):
        config = json.loads(data["config"].read_text())
        config["corpus"] = 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        before = sorted(tmp_path.iterdir())
        fields = {"out": str(tmp_path / "result.out"), "instances": str(data["instances"])}
        argv = [argv[0], "--config", str(path)] + [a.format(**fields) for a in argv[1:]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: config corpus must be ")
        assert captured.err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before

    def test_bootstrap_between_reports(self, data, tmp_path, capsys):
        main(["experiment", "--config", str(data["config"])])
        report = tmp_path / "out" / "report.json"
        capsys.readouterr()
        code = main(
            [
                "bootstrap",
                "--a",
                str(report),
                "--b",
                str(report),
                "--metric",
                "exact_match_f1",
                "--iters",
                "200",
                "--seed",
                "1",
                "--json",
            ]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["mean_diff"] == 0.0

    def test_bootstrap_nan_metric_exits_2(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        row = {"instance_id": "a", "exact_match_f1": float("nan")}
        report.write_text(json.dumps({"per_instance": [row]}))  # json writes NaN as such
        argv = ["bootstrap", "--a", str(report), "--b", str(report), "--metric", "exact_match_f1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: A: exact_match_f1 of 'a' must be ")
        assert captured.err.count("\n") == 1

    def test_experiment_validates_config_once(self, data, tmp_path, capsys, monkeypatch):
        from clarikit import harness

        calls = []
        load_corpus = harness.load_corpus

        def counting(*args, **kwargs):
            calls.append(args)
            return load_corpus(*args, **kwargs)

        monkeypatch.setattr(harness, "load_corpus", counting)
        assert main(["experiment", "--config", str(data["config"])]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.rstrip("\n").endswith(f"-> {tmp_path / 'out'}")

    def test_experiment_missing_config(self, tmp_path):
        assert main(["experiment", "--config", str(tmp_path / "none.json")]) == 2


DEEP = 200_000  # far beyond any recursion limit of the JSON parser

# One case per command that reads a file, with the deeply nested value in
# the file that command reads first (through a config for some).
DEEP_CASES = {
    "retrieve": ["retrieve", "--corpus", "{deep_jsonl}", "--query", "x", "--k", "1"],
    "pool": ["pool", "--config", "{config}", "--instances", "{deep_jsonl}", "--out", "{out}"],
    "evaluate-generated": [
        "evaluate", "--generated", "{deep_jsonl}", "--truth", "{instances}", "--out", "{out}"
    ],
    "evaluate-truth": [
        "evaluate", "--generated", "{instances}", "--truth", "{deep_jsonl}", "--out", "{out}"
    ],
    "align-stats": ["align-stats", "--config", "{deep_corpus_config}", "--out", "{out}"],
    "loo": ["loo", "--config", "{deep_json}", "--seed", "1", "--out", "{out}"],
    "sweep": ["sweep", "--config", "{deep_corpus_config}", "--n", "1", "--out", "{out}"],
    "taxonomy": ["taxonomy", "--instances", "{deep_jsonl}", "--out", "{out}"],
    "experiment-config": ["experiment", "--config", "{deep_json}"],
    "experiment-corpus": ["experiment", "--config", "{deep_corpus_config}"],
    "bootstrap": [
        "bootstrap", "--a", "{deep_json}", "--b", "{deep_json}", "--metric", "exact_match_f1"
    ],
}


class TestJsonPayload:
    """A command builds its --json payload only when --json asks for it."""

    # Command -> (its report type in harness, its arguments, the to_dict
    # calls that writing its files takes).
    COMMANDS = {
        "experiment": ("ExperimentReport", ["--config", "{config}"], 1),
        "loo": ("LooReport", ["--config", "{config}", "--seed", "3", "--out", "{out}"], 1),
        "align-stats": ("AlignmentReport", ["--config", "{config}", "--out", "{out}"], 1),
        "sweep": ("SweepReport", ["--config", "{config}", "--n", "1,3", "--out", "{out}"], 0),
        "taxonomy": ("TaxonomyReport", ["--instances", "{instances}", "--out", "{out}"], 1),
    }

    @pytest.mark.parametrize("as_json", [False, True], ids=["plain", "json"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_to_dict_calls(self, data, tmp_path, capsys, monkeypatch, command, as_json):
        from clarikit import harness

        name, argv, writes = self.COMMANDS[command]
        report_type = getattr(harness, name)
        to_dict, calls = report_type.to_dict, []

        def counted(report):
            calls.append(command)
            return to_dict(report)

        monkeypatch.setattr(report_type, "to_dict", counted)
        paths = {"config": data["config"], "instances": data["instances"], "out": tmp_path / "r"}
        argv = [command, *(arg.format(**paths) for arg in argv)] + ["--json"] * as_json
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert len(calls) == writes + as_json
        assert out.startswith("{") == as_json


class TestDeeplyNestedJson:
    """A JSON value nested too deeply is a data error, whichever file holds it."""

    @pytest.mark.parametrize("argv", DEEP_CASES.values(), ids=DEEP_CASES.keys())
    def test_exits_2_with_one_data_error_line(self, data, tmp_path, capsys, argv):
        nested = "[" * DEEP + "]" * DEEP
        deep_jsonl, deep_json = tmp_path / "deep.jsonl", tmp_path / "deep.json"
        deep_jsonl.write_text(f'{{"id": {nested}}}\n', encoding="utf-8")
        deep_json.write_text(f'{{"corpus": {nested}}}', encoding="utf-8")
        config = json.loads(data["config"].read_text())
        deep_corpus_config = tmp_path / "deep_corpus.json"
        deep_corpus_config.write_text(json.dumps({**config, "corpus": str(deep_jsonl)}))
        paths = {
            "deep_jsonl": deep_jsonl,
            "deep_json": deep_json,
            "deep_corpus_config": deep_corpus_config,
            "config": data["config"],
            "instances": data["instances"],
            "out": tmp_path / "result",
        }
        before = sorted(tmp_path.rglob("*"))
        assert main([a.format(**paths) for a in argv]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("data error:")
        assert "JSON nested too deeply" in line
        assert sorted(tmp_path.rglob("*")) == before


class TestCrossProcessDeterminism:
    def test_summary_identical_across_hash_seeds(self, data, tmp_path):
        # Different PYTHONHASHSEED values perturb set/dict hash order; the
        # emitted reports must depend neither on it nor on --parallelism.
        import itertools
        import subprocess
        import sys

        outputs = set()
        for hash_seed, workers in itertools.product(("0", "1", "31337"), ("1", "2")):
            argv = ["experiment", "--config", str(data["config"]), "--parallelism", workers]
            proc = subprocess.run(
                [sys.executable, "-m", "clarikit.cli", *argv],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(
                (
                    (data["tmp"] / "out" / "summary.csv").read_bytes(),
                    (data["tmp"] / "out" / "report.json").read_bytes(),
                )
            )
        assert len(outputs) == 1


class TestAtomicWrites:
    def test_failed_write_leaves_previous_content(self, tmp_path, monkeypatch):
        target = tmp_path / "report.json"
        atomic_write_text(target, "original")

        real_replace = os.replace

        def broken_replace(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            atomic_write_text(target, "new content")
        monkeypatch.setattr(os, "replace", real_replace)
        assert target.read_text() == "original"
        assert not list(tmp_path.glob("*.tmp"))

    def test_an_iterable_that_raises_leaves_both_files(self, tmp_path):
        first, second = tmp_path / "scores.jsonl", tmp_path / "scores.csv"
        atomic_write_text(first, "old first\n", (second, iter(["old ", "second\n"])))
        assert (first.read_text(), second.read_text()) == ("old first\n", "old second\n")

        def pieces():
            yield "new second, row 1\n"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            atomic_write_text(first, iter(["new first\n"] * 3), (second, pieces()))
        assert (first.read_bytes(), second.read_bytes()) == (b"old first\n", b"old second\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["scores.csv", "scores.jsonl"]

    @pytest.mark.parametrize("command", ["experiment", "evaluate"])
    def test_a_run_changes_both_files_or_neither(
        self, data, tmp_path, capsys, monkeypatch, command
    ):
        generated = tmp_path / "generated.jsonl"
        if command == "experiment":
            argv = ["experiment", "--config", str(data["config"])]
            outputs = [tmp_path / "out" / "report.json", tmp_path / "out" / "summary.csv"]
        else:
            argv = ["evaluate", "--generated", str(generated), "--truth", str(data["instances"]),
                    "--out", str(tmp_path / "eval.jsonl")]
            outputs = [tmp_path / "eval.jsonl", tmp_path / "eval.csv"]
        write_jsonl(generated, [{"id": i.id, "facets": ["x"]} for i in data["instances_list"]])
        assert main(argv) == 0
        before = [path.read_bytes() for path in outputs]

        # A second run whose outputs differ, with the second temp file's write failing.
        config = json.loads(data["config"].read_text())
        data["config"].write_text(json.dumps({**config, "seed": config["seed"] + 1}))
        instances = data["instances_list"]
        write_jsonl(generated, [{"id": i.id, "facets": list(i.facets)} for i in instances])
        real_fsync, fsyncs = os.fsync, []

        def failing_fsync(fd):
            fsyncs.append(fd)
            if len(fsyncs) == 2:
                raise OSError("simulated full disk")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == "io error: simulated full disk\n"
        assert [path.read_bytes() for path in outputs] == before
        assert not list(tmp_path.rglob("*.tmp"))


def _config(**changes):
    """The fixture's config with top-level keys replaced, as a file's text."""
    return lambda config: json.dumps({**config, **changes})


def _generator(**changes):
    """The fixture's config with generator keys replaced, as a file's text."""
    return lambda config: json.dumps({**config, "generator": {**config["generator"], **changes}})


def _retrieval(**changes):
    """The fixture's config with retrieval keys replaced, as a file's text."""
    return lambda config: json.dumps({**config, "retrieval": {**config["retrieval"], **changes}})


_INSTANCE = json.dumps({"id": "a", "query": "q", "facets": ["f"]})
_REPORT = json.dumps(
    {
        "per_instance": [
            {"instance_id": "a", "exact_match_f1": 0.5},
            {"instance_id": "b", "exact_match_f1": 1.0},
        ]
    }
)
_BOOTSTRAP = ["bootstrap", "--a", "{bad}", "--b", "{bad}", "--metric", "exact_match_f1"]
_TAXONOMY = ["taxonomy", "--instances", "{bad}", "--out", "{out}"]

# One case per error path that no other test reaches: what the file "bad"
# holds (text, or a function of the fixture's config), the command line,
# its exit code and its one line on stderr.  "empty" is an empty file.
ERROR_PATHS = {
    "instances-duplicate-id": (
        f"{_INSTANCE}\n{_INSTANCE}\n",
        _TAXONOMY,
        2,
        "data error: {bad}: line 2: duplicate instance id 'a' (first seen on line 1)",
    ),
    "instances-question-not-a-string": (
        json.dumps({"id": "a", "query": "q", "facets": ["f"], "question": 5}),
        _TAXONOMY,
        2,
        "data error: {bad}: line 1: 'question' must be a string or null",
    ),
    "config-invalid-json": (
        "{not json",
        ["experiment", "--config", "{bad}"],
        2,
        "data error: {bad}: invalid JSON (Expecting property name enclosed in double quotes)",
    ),
    "config-not-an-object": (
        "[1]",
        ["experiment", "--config", "{bad}"],
        2,
        "data error: {bad}: config must be a JSON object",
    ),
    "embeddings-without-rows": (
        "",
        ["evaluate", "--generated", "{instances}", "--truth", "{instances}",
         "--embeddings", "{bad}", "--out", "{out}"],
        2,
        "data error: {bad}: no embeddings found",
    ),
    "bootstrap-not-a-report": (
        "{}",
        _BOOTSTRAP,
        2,
        "data error: {bad}: not an experiment report (missing 'per_instance')",
    ),
    "bootstrap-row-without-id": (
        json.dumps({"per_instance": [{"exact_match_f1": 0.5}]}),
        _BOOTSTRAP,
        2,
        "data error: A: row missing 'instance_id'",
    ),
    "bootstrap-zero-iterations": (
        _REPORT,
        _BOOTSTRAP + ["--iters", "0"],
        2,
        "data error: iterations must be >= 1, got 0",
    ),
    "bootstrap-empty-reports": (
        json.dumps({"per_instance": []}),
        _BOOTSTRAP,
        2,
        "data error: no instances to bootstrap over",
    ),
    # Beyond the address space, so the allocation is refused before any
    # memory is touched.
    "bootstrap-iterations-beyond-memory": (
        _REPORT,
        _BOOTSTRAP + ["--iters", str(10**15)],
        2,
        "data error: 1000000000000000 iterations x 2 instances do not fit in memory",
    ),
    # Past numpy's index range, where it refuses the shape rather than the memory.
    "bootstrap-iterations-beyond-index-range": (
        _REPORT,
        _BOOTSTRAP + ["--iters", str(2**63)],
        2,
        "data error: 9223372036854775808 iterations x 2 instances do not fit in memory",
    ),
    "bootstrap-negative-seed": (
        _REPORT,
        _BOOTSTRAP + ["--seed", "-1"],
        2,
        "data error: seed must be an integer >= 0, got -1",
    ),
    "taxonomy-top-k-0": (
        _INSTANCE,
        _TAXONOMY + ["--top-k", "0"],
        2,
        "data error: top_k must be >= 1, got 0",
    ),
    "taxonomy-no-instances": ("", _TAXONOMY, 2, "data error: {bad}: no instances given"),
    "loo-no-instances": (
        _config(instances="empty"),
        ["loo", "--config", "{bad}", "--seed", "1", "--out", "{out}"],
        2,
        "data error: {tmp}/empty: no instances given",
    ),
    "sweep-no-instances": (
        _config(instances="empty"),
        ["sweep", "--config", "{bad}", "--n", "1,2", "--out", "{out}"],
        2,
        "data error: {tmp}/empty: no instances given",
    ),
    "pool-no-instances": (
        _config(instances="empty"),
        ["pool", "--config", "{bad}", "--out", "{out}"],
        2,
        "data error: {tmp}/empty: no instances given",
    ),
    "align-stats-no-instances": (
        _config(instances="empty"),
        ["align-stats", "--config", "{bad}", "--out", "{out}"],
        2,
        "data error: {tmp}/empty: no instances given",
    ),
    # The override is named as clarikit resolved it: absolute.
    "pool-instances-override-no-instances": (
        "",
        ["pool", "--config", "{config}", "--instances", "{bad}", "--out", "{out}"],
        2,
        "data error: {bad}: no instances given",
    ),
    # A fault found before the first instance still comes first.
    "loo-query-only-no-instances": (
        lambda config: json.dumps(
            {
                **config,
                "instances": "empty",
                "retrieval": {**config["retrieval"], "alignment": "query_only"},
            }
        ),
        ["loo", "--config", "{bad}", "--seed", "1", "--out", "{out}"],
        2,
        "data error: leave-one-out requires a facet_aligned pool config",
    ),
    "sweep-bad-n-no-instances": (
        _config(instances="empty"),
        ["sweep", "--config", "{bad}", "--n", "2,1", "--out", "{out}"],
        2,
        "data error: n_values must be strictly increasing positive integers",
    ),
    "evaluate-no-truth-instances": (
        "",
        ["evaluate", "--generated", "{instances}", "--truth", "{bad}", "--out", "{out}"],
        2,
        "data error: {bad}: no instances given",
    ),
    # A fault in one instance's scoring names the truth file and the instance.
    "evaluate-generated-list-empty": (
        json.dumps({"id": "inst0", "facets": []}),
        ["evaluate", "--generated", "{bad}", "--truth", "{instances}", "--out", "{out}"],
        2,
        "data error: {instances}: instance id 'inst0': generated facet list is empty",
    ),
    "evaluate-generated-facets-normalize-to-nothing": (
        json.dumps({"id": "inst0", "facets": ["?!"]}),
        ["evaluate", "--generated", "{bad}", "--truth", "{instances}", "--out", "{out}"],
        2,
        "data error: {instances}: instance id 'inst0': "
        "generated facets normalize to an empty token set",
    ),
    "evaluate-missing-embedding": (
        json.dumps({"id": "other", "vector": [1.0]}),
        ["evaluate", "--generated", "{instances}", "--truth", "{instances}",
         "--embeddings", "{bad}", "--out", "{out}"],
        2,
        "data error: {instances}: instance id 'inst0': embedder failed for facet "
        "'fct0x0a fct0x0b': no embedding for key 'fct0x0a fct0x0b'",
    ),
    # The extractive generator has nothing to draw on, so every instance is
    # skipped at the first point and the whole sweep fails.
    "sweep-closed-book": (
        _config(retrieval={"alignment": "closed_book", "k": 5}),
        ["sweep", "--config", "{bad}", "--n", "1,2", "--out", "{out}"],
        3,
        "generator error: all 6 instances skipped; first inst0: n=1: no evidence",
    ),
    "config-unknown-generator-kind": (
        _generator(kind="llm"),
        ["experiment", "--config", "{bad}"],
        2,
        "data error: generator config must set kind to 'extractive' or 'remote'",
    ),
    "config-bad-set-sim": (
        _config(set_sim="cosine"),
        ["experiment", "--config", "{bad}"],
        2,
        "data error: config set_sim must be 'indicator' or 'table'",
    ),
    "config-table-set-sim-without-embeddings": (
        _config(set_sim="table"),
        ["experiment", "--config", "{bad}"],
        2,
        "data error: set_sim 'table' requires an embeddings file",
    ),
    # Parsed, then refused by the library where it reads the value: exit 2.
    "experiment-parallelism-0": (
        "",
        ["experiment", "--config", "{config}", "--parallelism", "0"],
        2,
        "data error: parallelism must be an integer >= 1, got 0",
    ),
    # Decoded in chunks, so no line number is claimed.
    "instances-not-utf-8": (
        _INSTANCE.encode() + b"\n" + b'{"id": "b\xff"}\n',
        _TAXONOMY,
        2,
        "data error: {bad}: not valid UTF-8 (invalid start byte)",
    ),
    "config-not-utf-8": (
        b'{"seed": "\xe9"}',
        ["experiment", "--config", "{bad}"],
        2,
        "data error: {bad}: not valid UTF-8 (invalid continuation byte)",
    ),
    # Longer than the platform can wait: the HTTP client would overflow.
    "config-timeout-beyond-platform": (
        _generator(kind="remote", endpoint="http://127.0.0.1:9", timeout=1e10),
        ["experiment", "--config", "{bad}"],
        2,
        "data error: generator timeout must be a number > 0 and <= "
        f"{threading.TIMEOUT_MAX}, got 10000000000.0",
    ),
    # "" resolves to the config's directory, which is no file.
    "config-corpus-names-a-directory": (
        _config(corpus=""),
        ["experiment", "--config", "{bad}"],
        2,
        "data error: config corpus file not found: {tmp}",
    ),
    # Past the k1 bound a BM25 score could overflow to inf.
    "retrieve-k1-beyond-bound": (
        "",
        ["retrieve", "--corpus", "{corpus}", "--query", "topic0", "--k", "3", "--k1", "1e308"],
        2,
        "data error: BM25 k1 must be in [0, 1e+09], got 1e+308",
    ),
    "config-k1-beyond-bound": (
        _retrieval(bm25_k1=1e308),
        ["pool", "--config", "{bad}", "--out", "{out}"],
        2,
        "data error: invalid retrieval config: BM25 k1 must be in [0, 1e+09], got 1e+308",
    ),
    "retrieve-k-0": (
        "",
        ["retrieve", "--corpus", "{corpus}", "--query", "topic0", "--k", "0"],
        2,
        "data error: k must be >= 1, got 0",
    ),
    # The CSV report would replace the JSONL one.  The missing truth file
    # shows that the path is refused before any input is read.
    "evaluate-out-is-the-csv-path": (
        "",
        ["evaluate", "--generated", "{instances}", "--truth", "{bad}.missing",
         "--out", "{tmp}/report.csv"],
        1,
        "usage error: --out {tmp}/report.csv is where the CSV report goes; "
        "give it another suffix",
    ),
}


class TestErrorPaths:
    @pytest.mark.parametrize(
        "content, argv, code, message", ERROR_PATHS.values(), ids=ERROR_PATHS.keys()
    )
    def test_one_error_line_and_nothing_written(
        self, data, tmp_path, capsys, content, argv, code, message
    ):
        bad = tmp_path / "bad"
        config = json.loads(data["config"].read_text())
        text = content(config) if callable(content) else content
        bad.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        (tmp_path / "empty").write_text("")
        paths = {
            "bad": bad,
            "tmp": tmp_path,
            "out": tmp_path / "result",
            "config": data["config"],
            "corpus": data["corpus"],
            "instances": data["instances"],
        }
        before = sorted(tmp_path.rglob("*"))
        assert main([a.format(**paths) for a in argv]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message.format(**paths) + "\n"
        assert sorted(tmp_path.rglob("*")) == before


# --- the fuzzed input boundary ---------------------------------------------
#
# Every run either succeeds or exits 2 with one "data error:" line, and a
# run that exits 2 writes nothing.  Values are JSON text as written, so
# NaN, Infinity, 1e999 and integers beyond float range reach the readers
# literally; None leaves the key out.

_VALUES = [
    None, "null", "true", "false", str(10**400), str(-(10**400)), "1e308", "-1e308",
    "1e999", "NaN", "Infinity", "-Infinity", "0", "-1", "0.5", "1", "3", "1e-300",
    '""', '"x"', '"?!"', '"dense"', '"oracle"', '"table"', '"remote"',
    "[]", "[1, [2]]", '["x"]', "{}", '{"a": 1}',
]
_CONFIG_KEYS = [
    "corpus", "instances", "embeddings", "retrieval", "generator", "set_sim", "seed",
    "output_dir",
    *(f"retrieval.{key}" for key in (
        "mode", "alignment", "k", "candidate_n", "mmr_lambda", "bm25_k1", "bm25_b", "bogus"
    )),
    *(f"generator.{key}" for key in (
        "kind", "endpoint", "max_facets", "emit_question", "timeout"
    )),
]
_CONFIG_COMMANDS = [
    ["experiment", "--config", "{config}"],
    ["pool", "--config", "{config}", "--out", "{out}"],
    ["align-stats", "--config", "{config}", "--out", "{out}"],
    ["loo", "--config", "{config}", "--seed", "1", "--out", "{out}"],
    ["sweep", "--config", "{config}", "--n", "1,2", "--out", "{out}"],
]
_EVALUATE = ["evaluate", "--generated", "{generated}", "--truth", "{truth}", "--out", "{out}"]
_SLOT = "\x00slot"

# Per file kind: a line template, extra values for its fields, and the
# commands that read it.
_FILE_KINDS = {
    "corpus": (
        {"id": "junk", "text": "topic0 junk"},
        ['"d0f0"', '"!!!"', '"  "'],
        _CONFIG_COMMANDS,
    ),
    "instances": (
        {"id": "junk", "query": "topic0", "facets": ["fct0x0a"], "question": None},
        ['"inst0"', '["", "x"]', '["?!"]', '["x", 1]', '"topic0"'],
        _CONFIG_COMMANDS + [["taxonomy", "--instances", "{instances}", "--out", "{out}"]],
    ),
    "embeddings": (
        {"id": "junk", "vector": [1.0, 0.0, 0.0, 0.0]},
        ['"d0f0"', "[[1], [1, 2]]", "[1e999, 0, 0, 0]", "[1, 0]", '["1", "0", "0", "0"]',
         "[true, false, 1, 0]", f"[{10**400}, 0, 0, 0]"],
        _CONFIG_COMMANDS + [_EVALUATE + ["--embeddings", "{embeddings}"]],
    ),
    "generated": (
        {"id": "junk", "facets": ["fct0x0a"]},
        ['"inst0"', '["", "?!"]', '["x", 1]'],
        [_EVALUATE, _EVALUATE + ["--embeddings", "{embeddings}"]],
    ),
    "truth": (
        {"id": "junk", "query": "topic0", "facets": ["fct0x0a"]},
        ['"inst0"', '["", "x"]', '["?!"]', '["x", 1]'],
        [_EVALUATE, _EVALUATE + ["--embeddings", "{embeddings}"]],
    ),
}
_RAW_JUNK = [
    b"\xff\xfe", b'{"id": "\xff"}', b"\xef\xbb\xbf{}", b'{"id": "a",', b"[1]", b"null",
    b'"x"', b"{", b"NaN", b"{}", b"[" * DEEP + b"]" * DEEP,
]


def _set_raw(obj: dict, key: str, raw: str | None) -> str:
    """``obj`` as JSON text with ``key`` ("a" or "a.b") set to the JSON text
    ``raw``, or left out for None."""
    obj = json.loads(json.dumps(obj))
    *parents, leaf = key.split(".")
    target = obj
    for parent in parents:
        target = target[parent]
    if raw is None:
        target.pop(leaf, None)
        return json.dumps(obj)
    target[leaf] = _SLOT
    return json.dumps(obj).replace(json.dumps(_SLOT), raw)


def _fuzz_inputs(root, mode: str, kind: str, endpoint: str) -> dict:
    """Two planted instances, their corpus, embeddings for dense retrieval and
    Set-Sim, generated facets and a config, written under ``root``."""
    corpus, instances = make_planted(2, distractors_per_instance=2)
    texts = [d.id for d in corpus.docs] + [
        text for i in instances for text in (i.query, *(f"{i.query} {f}" for f in i.facets))
    ] + [f for i in instances for f in i.facets]
    files = {
        "corpus": [{"id": d.id, "text": d.text} for d in corpus.docs],
        "instances": [{"id": i.id, "query": i.query, "facets": list(i.facets)} for i in instances],
        "embeddings": [
            {"id": t, "vector": [1.0, float(n % 3), float(len(t) % 5), 0.5]}
            for n, t in enumerate(dict.fromkeys(texts))
        ],
        "generated": [{"id": i.id, "facets": list(i.facets)} for i in instances],
    }
    files["truth"] = files["instances"]
    paths = {}
    for name, rows in files.items():
        paths[name] = root / f"{name}.jsonl"
        write_jsonl(paths[name], rows)
    paths["config_obj"] = {
        "corpus": "corpus.jsonl",
        "instances": "instances.jsonl",
        "embeddings": "embeddings.jsonl" if mode == "dense" else None,
        "retrieval": {"mode": mode, "alignment": "facet_aligned", "k": 3},
        "generator": {"kind": kind, "endpoint": endpoint, "max_facets": 3},
        "seed": 1,
        "output_dir": "out",
    }
    paths["config"] = root / "config.json"
    paths["config"].write_text(json.dumps(paths["config_obj"]))
    paths["out"] = root / "result.out"
    return paths


def _run_fuzzed(capsys, root, argv, paths, junk_path=None) -> tuple[int, str]:
    """Run ``argv`` and check the boundary's rules; return its exit code and
    its one stderr line ("" on success)."""
    before = sorted(root.rglob("*"))
    code = main([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert code in (0, 2, 3), (code, captured.err)
    if code == 0:
        return code, ""
    (line,) = captured.err.splitlines()
    if code == 2:
        assert line.startswith("data error: "), line
        if junk_path is not None:
            assert str(junk_path) in line, line
    else:
        assert line.startswith(("generator error: ", "io error: ")), line
    assert captured.out == ""
    after = sorted(root.rglob("*"))
    if argv[0] == "experiment":
        # The one thing a failed run may leave: experiment creates its
        # output_dir, empty, before its first instance runs, so a run whose
        # every instance is skipped (exit 2 or 3) leaves it behind.
        after = [p for p in after if p in before or not p.is_dir() or any(p.iterdir())]
    assert after == before
    return code, line


def _fuzz_settings(max_examples: int) -> settings:
    return settings(
        deadline=None,
        max_examples=max_examples,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )


# Each JSON type that a report's per_instance, or one of its rows, must not be.
_WRONG_ROWS = ["null", "true", "1", "0.5", '"x"', "{}"]

# Each numeric flag, as the command line that it ends.
_NUMERIC_FLAGS = {
    "retrieve-k": ["retrieve", "--corpus", "{corpus}", "--query", "topic0", "--k"],
    "bootstrap-iters": [*_BOOTSTRAP, "--iters"],
    "taxonomy-top-k": ["taxonomy", "--instances", "{instances}", "--out", "{out}", "--top-k"],
    "sweep-n": ["sweep", "--config", "{config}", "--out", "{out}", "--n"],
    "loo-seed": ["loo", "--config", "{config}", "--out", "{out}", "--seed"],
    "bootstrap-seed": [*_BOOTSTRAP, "--seed"],
}


class TestFuzzedInputs:
    """No malformed input crashes a command.  It exits 2 with one data error,
    or 3 with one generator or io error, and writes nothing."""

    @pytest.mark.parametrize(
        "rows", [*_WRONG_ROWS, *(f"[{raw}]" for raw in _WRONG_ROWS if raw != "{}"), "[[]]"]
    )
    def test_bootstrap_rows_of_a_wrong_type(self, tmp_path, capsys, rows):
        report = tmp_path / "report.json"
        report.write_text(f'{{"per_instance": {rows}}}')
        paths = {"report": report}
        argv = ["bootstrap", "--a", "{report}", "--b", "{report}", "--metric", "exact_match_f1"]
        assert _run_fuzzed(capsys, tmp_path, argv, paths) == (
            2, "data error: A: per-instance rows must be a list of objects"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            *_CONFIG_COMMANDS,
            ["taxonomy", "--instances", "{instances}", "--out", "{out}"],
            _EVALUATE,
        ],
        ids=lambda argv: argv[0],
    )
    def test_output_under_a_regular_file(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        paths = _fuzz_inputs(tmp_path, "lexical", "extractive", None)
        paths["out"] = paths["corpus"] / "result.out"
        paths["config"].write_text(
            json.dumps({**paths["config_obj"], "output_dir": "corpus.jsonl/out"})
        )
        code, line = _run_fuzzed(capsys, tmp_path, argv, paths)
        assert (code, line.split(":")[0]) == (3, "io error")

    # No value here is a usage error: argparse reads "-1" as a value, and
    # every one of them parses as an int.
    @pytest.mark.parametrize("value", [0, -1, 2**63, 10**400], ids=["0", "-1", "2**63", "10**400"])
    @pytest.mark.parametrize("argv", _NUMERIC_FLAGS.values(), ids=_NUMERIC_FLAGS.keys())
    def test_numeric_flag_at_an_extreme_value(self, tmp_path, capsys, monkeypatch, argv, value):
        monkeypatch.chdir(tmp_path)
        paths = _fuzz_inputs(tmp_path, "lexical", "extractive", None)
        paths["bad"] = tmp_path / "report.json"  # bootstrap's two reports
        paths["bad"].write_text(_REPORT)
        start = time.monotonic()
        _run_fuzzed(capsys, tmp_path, [*argv, str(value)], paths)
        assert time.monotonic() - start < 10

    @_fuzz_settings(150)
    @given(
        mode=st.sampled_from(["lexical", "dense"]),
        kind=st.sampled_from(["extractive", "remote"]),
        key=st.sampled_from(_CONFIG_KEYS),
        raw=st.sampled_from(_VALUES),
    )
    def test_one_config_value(
        self, tmp_path, capsys, monkeypatch, mock_endpoint, mode, kind, key, raw
    ):
        with tempfile.TemporaryDirectory(dir=tmp_path) as root:
            root = Path(root)
            monkeypatch.chdir(root)  # an output_dir of "" is the working directory
            paths = _fuzz_inputs(root, mode, kind, endpoint_url(mock_endpoint))
            paths["config"].write_text(_set_raw(paths["config_obj"], key, raw))
            for argv in _CONFIG_COMMANDS:
                _run_fuzzed(capsys, root, argv, paths)

    @_fuzz_settings(300)
    @given(data=st.data(), file_kind=st.sampled_from(sorted(_FILE_KINDS)))
    def test_one_junk_line(self, tmp_path, capsys, monkeypatch, data, file_kind):
        template, extras, commands = _FILE_KINDS[file_kind]
        junk = data.draw(
            st.sampled_from(_RAW_JUNK)
            | st.builds(
                lambda field, raw: _set_raw(template, field, raw).encode(),
                st.sampled_from(sorted(template)),
                st.sampled_from(_VALUES + extras),
            ),
            label="junk",
        )
        first = data.draw(st.booleans(), label="first")
        argv = data.draw(st.sampled_from(commands), label="argv")
        mode = "dense" if file_kind == "embeddings" and argv in _CONFIG_COMMANDS else "lexical"
        with tempfile.TemporaryDirectory(dir=tmp_path) as root:
            root = Path(root)
            monkeypatch.chdir(root)
            paths = _fuzz_inputs(root, mode, "extractive", None)
            path = paths[file_kind]
            lines = path.read_bytes().splitlines()
            lines = [junk, *lines] if first else [*lines, junk]
            path.write_bytes(b"\n".join(lines) + b"\n")
            _run_fuzzed(capsys, root, argv, paths, junk_path=path)
