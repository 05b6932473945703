"""The benchmark workloads: inputs, set-up, the measured call and its checks.

Each workload writes its inputs with ``workload_gen``, then drives clarikit
only through those files and its public entry points: ``run_experiment``
for experiment-bm25 and in-process ``clarikit pool`` / ``clarikit
evaluate`` runs for the other two.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from clarikit import cli, corpus, harness, metrics, retrieval
from clarikit.generator import GeneratorRequest, extractive_generate

from workload_gen import (
    EvaluateScale,
    ExperimentScale,
    write_evaluate_inputs,
    write_retrieval_inputs,
)

# Every public function a layer metric is reported for, as module.function.
TRACE_TARGETS = (
    "corpus.normalize",
    "corpus.load_corpus",
    "corpus.load_instances",
    "corpus.load_embeddings",
    "retrieval.build_inverted_index",
    "retrieval.split_embeddings",
    "retrieval.build_pool",
    "retrieval.bm25_retrieve",
    "retrieval.dense_retrieve",
    "retrieval.tfidf_similarity",
    "retrieval.embedding_similarity",
    "retrieval.mmr_rerank",
    "retrieval.write_pools",
    "generator.extractive_generate",
    "metrics.evaluate_instance",
    "metrics.match_facet_pairs",
    "metrics.bleu_n",
    "harness.run_experiment",
    "ioutils.atomic_write_text",
    "cli.cmd_pool",
    "cli.cmd_evaluate",
)


def _count_lines(path: Path) -> int:
    """Non-blank lines of a JSONL file, read without calling clarikit."""
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


@dataclass(frozen=True)
class Outcome:
    """One measured call: its wall time, instance counts and output bytes."""

    seconds: float
    instances: int
    failed: int
    output: bytes


def _quiet_cli(argv: list[str]) -> float:
    """Run one clarikit CLI command in-process; return its wall seconds."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"clarikit {argv[0]} exited with {code}")
    return elapsed


def _pool_rows(pool) -> list:
    return [[e.doc_id, e.score, sorted(e.provenance)] for e in pool.entries]


def _write_config(path: Path, d: Path, retrieval_cfg: dict, embeddings: bool) -> None:
    config = {
        "corpus": str(d / "corpus.jsonl"),
        "instances": str(d / "instances.jsonl"),
        "retrieval": retrieval_cfg,
        "generator": {"kind": "extractive"},
        "seed": 0,
        "output_dir": str(d / "out"),
    }
    if embeddings:
        config["embeddings"] = str(d / "embeddings.jsonl")
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


class ExperimentBM25:
    name = "experiment-bm25"
    scale = ExperimentScale(docs=6_000, instances=200)
    gate_scale = ExperimentScale(docs=2_000, instances=30)
    trace_opens = ("retrieval.build_pool",)
    trace_continues = ("generator.extractive_generate", "metrics.evaluate_instance")
    retrieval_cfg = {"mode": "lexical", "alignment": "facet_aligned", "k": 10}

    def write_inputs(self, d: Path, seed: int, scale, stop) -> dict:
        sizes = write_retrieval_inputs(d, seed, scale, stop, embeddings=False)
        _write_config(d / "experiment.json", d, self.retrieval_cfg, embeddings=False)
        return sizes

    def parallel_levels(self, nproc: int) -> tuple[int, ...]:
        return (1, nproc)

    def setup(self, d: Path) -> None:
        docs = corpus.load_corpus(d / "corpus.jsonl")
        corpus.load_instances(d / "instances.jsonl")
        retrieval.build_inverted_index(docs)

    def instance_ids(self, d: Path) -> list[str]:
        return [inst.id for inst in corpus.load_instances(d / "instances.jsonl")]

    def run(self, d: Path, parallelism: int) -> Outcome:
        start = perf_counter()
        report = harness.run_experiment(d / "experiment.json", parallelism=parallelism)
        elapsed = perf_counter() - start
        output = (d / "out" / "report.json").read_bytes()
        instances = report.evaluated_count + report.skipped_count
        return Outcome(elapsed, instances, report.skipped_count, output)

    def check(self, d: Path, outcome: Outcome) -> list[str]:
        report = json.loads(outcome.output)
        problems = []
        if report["evaluated_count"] != len(self.instance_ids(d)):
            problems.append(f"evaluated {report['evaluated_count']} instances")
        for row in report["per_instance"]:
            if not all(0.0 <= v <= 1.0 for k, v in row.items() if k != "instance_id"):
                problems.append(f"metric out of [0, 1] for {row['instance_id']}")
        return problems

    def gate_outputs(self, d: Path) -> dict:
        """Pools, generated facets, facet pairs, and the report at p1 and p2."""
        docs = corpus.load_corpus(d / "corpus.jsonl")
        instances = corpus.load_instances(d / "instances.jsonl")
        index = retrieval.build_inverted_index(docs)
        cfg = retrieval.RetrievalConfig(**self.retrieval_cfg)
        per_instance = []
        for inst in instances:
            pool = retrieval.build_pool(cfg, inst, index=index)
            texts = retrieval.resolve_texts(pool, docs, inst)
            clar = extractive_generate(GeneratorRequest(inst.query, tuple(texts)))
            pairs = metrics.match_facet_pairs(clar.facets, inst.facets).pairs
            per_instance.append(
                {
                    "id": inst.id,
                    "pool": _pool_rows(pool),
                    "facets": list(clar.facets),
                    "pairs": [list(p) for p in pairs],
                }
            )
        reports = [self.run(d, p).output for p in (1, 2)]
        report = json.loads(reports[0])
        del report["config_hash"]  # depends on absolute paths and output_dir
        return {
            "instances": per_instance,
            "report": report,
            "report_identical_across_parallelism": reports[0] == reports[1],
        }


class PoolMMR:
    name = "pool-mmr"
    scale = ExperimentScale(docs=6_000, instances=4)
    gate_scale = ExperimentScale(docs=2_000, instances=4)
    trace_opens = ("retrieval.build_pool",)
    trace_continues = ()
    modes = ("lexical", "dense")
    k = 10

    def write_inputs(self, d: Path, seed: int, scale, stop) -> dict:
        sizes = write_retrieval_inputs(d, seed, scale, stop, embeddings=True)
        for mode in self.modes:
            cfg = {
                "mode": mode,
                "alignment": "facet_aligned",
                "k": self.k,
                "candidate_n": 50,
                "mmr_lambda": 0.5,
            }
            _write_config(d / f"pool-{mode}.json", d, cfg, embeddings=mode == "dense")
        return sizes

    def parallel_levels(self, nproc: int) -> tuple[int, ...]:
        return (1,)

    def setup(self, d: Path) -> None:
        docs = corpus.load_corpus(d / "corpus.jsonl")
        corpus.load_instances(d / "instances.jsonl")
        table = corpus.load_embeddings(d / "embeddings.jsonl")
        retrieval.build_inverted_index(docs)
        retrieval.split_embeddings(table, docs)

    def instance_ids(self, d: Path) -> list[str]:
        return [inst.id for inst in corpus.load_instances(d / "instances.jsonl")]

    def run(self, d: Path, parallelism: int) -> Outcome:
        elapsed = 0.0
        outputs = []
        for mode in self.modes:
            out = d / f"pools-{mode}.jsonl"
            elapsed += _quiet_cli(["pool", "--config", str(d / f"pool-{mode}.json"), "--out", str(out)])
            outputs.append(out.read_bytes())
        built = min(len(o.splitlines()) for o in outputs)
        n = _count_lines(d / "instances.jsonl")
        return Outcome(elapsed, n, n - built, b"".join(outputs))

    def check(self, d: Path, outcome: Outcome) -> list[str]:
        problems = []
        ids = set(self.instance_ids(d))
        pools = [json.loads(line) for line in outcome.output.splitlines()]
        if len(pools) != len(self.modes) * len(ids):
            problems.append(f"{len(pools)} pools for {len(ids)} instances")
        for pool in pools:
            doc_ids = [e["doc_id"] for e in pool["entries"]]
            if pool["instance_id"] not in ids or len(set(doc_ids)) != self.k:
                problems.append(f"malformed pool for {pool['instance_id']}")
        return problems

    def gate_outputs(self, d: Path) -> dict:
        output = self.run(d, 1).output
        pools = [json.loads(line) for line in output.splitlines()]
        return {"pools": pools}


class EvaluateTies:
    name = "evaluate-ties"
    scale = EvaluateScale(lists=2_000)
    gate_scale = EvaluateScale(lists=120)
    trace_opens = ("metrics.evaluate_instance",)
    trace_continues = ()

    def write_inputs(self, d: Path, seed: int, scale, stop) -> dict:
        return write_evaluate_inputs(d, seed, scale, stop)

    def parallel_levels(self, nproc: int) -> tuple[int, ...]:
        return (1,)

    def setup(self, d: Path) -> None:
        corpus.load_instances(d / "truth.jsonl")
        corpus.load_embeddings(d / "embeddings.jsonl")

    def instance_ids(self, d: Path) -> list[str]:
        return [inst.id for inst in corpus.load_instances(d / "truth.jsonl")]

    def run(self, d: Path, parallelism: int) -> Outcome:
        out = d / "evaluated.jsonl"
        argv = [
            "evaluate",
            "--generated", str(d / "generated.jsonl"),
            "--truth", str(d / "truth.jsonl"),
            "--embeddings", str(d / "embeddings.jsonl"),
            "--out", str(out),
        ]
        elapsed = _quiet_cli(argv)
        output = out.read_bytes()
        n = _count_lines(d / "truth.jsonl")
        return Outcome(elapsed, n, n + 1 - len(output.splitlines()), output)

    def check(self, d: Path, outcome: Outcome) -> list[str]:
        """Rows in [0, 1]; near-duplicate lists score their known values."""
        problems = []
        rows = {r["instance_id"]: r for r in map(json.loads, outcome.output.splitlines())}
        near_duplicates = set(json.loads((d / "near_duplicates.json").read_text()))
        for inst_id in self.instance_ids(d):
            row = rows.get(inst_id)
            if row is None:
                problems.append(f"no row for {inst_id}")
                continue
            if not all(0.0 <= v <= 1.0 for k, v in row.items() if k != "instance_id"):
                problems.append(f"metric out of [0, 1] for {inst_id}")
            # Every pair of a near-duplicate list shares exactly one of two words.
            if inst_id in near_duplicates and (
                abs(row["set_bleu1"] - 0.5) > 1e-9 or row["exact_match_f1"] != 0.0
            ):
                problems.append(f"near-duplicate list {inst_id} scored {row['set_bleu1']}")
        return problems

    def gate_outputs(self, d: Path) -> dict:
        output = self.run(d, 1).output
        truth = corpus.load_instances(d / "truth.jsonl")
        generated = [json.loads(line) for line in (d / "generated.jsonl").read_text().splitlines()]
        pairs = [
            [list(p) for p in metrics.match_facet_pairs(g["facets"], t.facets).pairs]
            for g, t in zip(generated, truth)
        ]
        return {"rows": [json.loads(line) for line in output.splitlines()], "pairs": pairs}


WORKLOADS = {w.name: w for w in (ExperimentBM25(), PoolMMR(), EvaluateTies())}
