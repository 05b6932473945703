"""Self-tests of the benchmark: input generation, tracing and result records.

    python -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import clarikit  # noqa: E402
import run  # noqa: E402
from clarikit import cli, corpus, harness, ioutils, metrics  # noqa: E402
from tracing import NAMESPACES, Span, Tracer, layer_stats, self_times  # noqa: E402
from workload_gen import (  # noqa: E402
    EvaluateScale,
    ExperimentScale,
    write_evaluate_inputs,
    write_retrieval_inputs,
)
from workloads import TRACE_TARGETS, WORKLOADS  # noqa: E402

SMALL = ExperimentScale(docs=300, instances=6)


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind", ["retrieval", "evaluate"])
def test_generator_bytes_depend_only_on_seed(tmp_path, kind):
    stop = clarikit.stopwords()

    def write(name: str, seed: int) -> str:
        out = tmp_path / name
        if kind == "retrieval":
            write_retrieval_inputs(out, seed, SMALL, stop, embeddings=True)
        else:
            write_evaluate_inputs(out, seed, EvaluateScale(lists=150), stop)
        return _digest(out)

    assert write("a", 5) == write("b", 5)
    assert write("c", 6) != write("a", 5)


def test_generated_inputs_load_and_plant_facets(tmp_path):
    sizes = write_retrieval_inputs(tmp_path, 3, SMALL, clarikit.stopwords(), embeddings=True)
    docs = corpus.load_corpus(tmp_path / "corpus.jsonl")
    instances = corpus.load_instances(tmp_path / "instances.jsonl")
    table = corpus.load_embeddings(tmp_path / "embeddings.jsonl")
    assert (len(docs), len(instances)) == (sizes["docs"], sizes["instances"])
    for inst in instances:
        assert inst.query in table and all(f"{inst.query} {f}" in table for f in inst.facets)
        # Distractors hold the query twice, so every query has documents.
        assert sum(inst.query in d.text for d in docs) >= 3


def test_self_time_of_synthetic_nested_call():
    tracer = Tracer()

    def inner(n):
        return sum(range(n))

    wrapped_inner = tracer.wrap("x.inner", inner)

    def outer():
        return wrapped_inner(20_000) + wrapped_inner(40_000) + sum(range(10_000))

    tracer.wrap("x.outer", outer)()
    spans = {s.name: s for s in tracer.spans}
    inner_spans = [s for s in tracer.spans if s.name == "x.inner"]
    assert all(s.parent == spans["x.outer"].id for s in inner_spans)
    own = self_times(tracer.spans)
    out = spans["x.outer"]
    expected = (out.end - out.start) - sum(s.end - s.start for s in inner_spans)
    assert own[out.id] == pytest.approx(expected, abs=1e-12)
    stats = layer_stats(tracer.spans)
    assert stats["x.inner"]["calls"] == 2
    assert stats["x.outer"]["self_s"] == pytest.approx(expected, abs=1e-12)


def test_self_time_from_fixed_spans():
    spans = [
        Span(0, None, "root", 0.0, 10.0, None),
        Span(1, 0, "a", 1.0, 4.0, "i1"),
        Span(2, 1, "b", 2.0, 3.0, "i1"),
        Span(3, 0, "a", 5.0, 6.5, "i2"),
    ]
    assert self_times(spans) == {0: 5.5, 1: 2.0, 2: 1.0, 3: 1.5}


def _bindings() -> dict[tuple[str, str], object]:
    import importlib

    return {
        (ns, attr): value
        for ns in NAMESPACES
        for attr, value in vars(importlib.import_module(ns)).items()
        if callable(value)
    }


def test_wrappers_are_removed_after_traced_run(tmp_path):
    write_evaluate_inputs(tmp_path, 2, EvaluateScale(lists=20), clarikit.stopwords())
    before = _bindings()
    tracer = Tracer(opens=("metrics.evaluate_instance",), instance_ids=["first"])
    with tracer.installed(TRACE_TARGETS):
        assert corpus.normalize is not before[("clarikit.corpus", "normalize")]
        assert metrics.normalize is corpus.normalize
        assert cli.atomic_write_text is harness.atomic_write_text is ioutils.atomic_write_text
        assert cli.atomic_write_text is not before[("clarikit.cli", "atomic_write_text")]
        argv = ["evaluate", "--generated", str(tmp_path / "generated.jsonl"),
                "--truth", str(tmp_path / "truth.jsonl"), "--out", str(tmp_path / "o.jsonl")]
        assert cli.main(argv) == 0
    assert _bindings() == before
    assert tracer.bound_wrappers() == []
    names = {s.name for s in tracer.spans}
    assert {"cli.cmd_evaluate", "metrics.evaluate_instance", "corpus.normalize",
            "ioutils.atomic_write_text"} <= names
    first = [s for s in tracer.spans if s.name == "metrics.evaluate_instance"][0]
    assert first.instance == "first"


def test_wrappers_are_removed_after_failed_traced_run():
    before = _bindings()
    with pytest.raises(clarikit.DataError):
        with Tracer().installed(TRACE_TARGETS):
            corpus.load_corpus("/nonexistent/corpus.jsonl")
    assert _bindings() == before


def test_result_records_environment():
    env = run.environment(7, {"measured": {"docs": 1}})
    assert env["seed"] == 7 and env["sizes"] == {"measured": {"docs": 1}}
    assert env["nproc"] >= 1
    assert env["python"] and env["numpy"] and len(env["src_sha256"]) == 64
    assert "git_commit" in env


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_compare_tolerates_float_noise_only():
    assert run.compare({"a": [1, 0.5, "x"]}, {"a": [1, 0.5 + 1e-12, "x"]}) == []
    assert run.compare({"a": [1, 0.5]}, {"a": [1, 0.6]})
    assert run.compare(["x"], ["y"])
    assert run.compare({"a": 1}, {"b": 1})
