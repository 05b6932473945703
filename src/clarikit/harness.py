"""End-to-end experiment runners.

Covers evidence/facet alignment statistics, leave-one-out faithfulness
auditing, evidence-size sweeps, facet-taxonomy bias analysis, full
pool-build/generate/evaluate experiment runs, scoring a generated-facets
file against ground truth, and a paired bootstrap for comparing two runs.

Every report carries (evaluated_count, skipped_count, skip_reasons) so its
means stay interpretable when individual instances fail, and all runners
are deterministic given their inputs and seed.  A run given no instances,
or one in which every instance was skipped, raises instead of reporting
means over nothing (see :func:`_per_instance`).
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import threading
from array import array
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .corpus import (
    ClarificationInstance,
    Corpus,
    EmbeddingTable,
    _check_count,
    _is_finite_number,
    _is_int,
    iter_generated,
    load_corpus,
    load_embeddings,
    load_instances,
    normalize,
    read_json_object,
)
from .errors import ClarikitError, DataError
from .generator import Clarification, GeneratorRequest, extractive_generate, remote_generate
from .ioutils import atomic_write_text
from .metrics import (
    METRIC_COLUMNS,
    Embedder,
    MetricReport,
    _mean_of_columns,
    evaluate_instance,
    exact_match,
    mean_report,
    table_embedder,
    term_overlap,
)
from .retrieval import (
    EvidencePool,
    InvertedIndex,
    QueryEmbedder,
    RetrievalConfig,
    build_inverted_index,
    build_pool,
    facet_label,
    resolve_texts,
    split_embeddings,
)

__all__ = [
    "AlignmentReport",
    "LooReport",
    "SweepPoint",
    "SweepReport",
    "TaxonomyReport",
    "ExperimentReport",
    "EvaluationReport",
    "BootstrapResult",
    "alignment_stats",
    "loo_faithfulness",
    "evidence_size_sweep",
    "taxonomy_analysis",
    "Resources",
    "load_resources",
    "run_experiment",
    "evaluate_generated",
    "paired_bootstrap",
]

GeneratorFn = Callable[[GeneratorRequest], Clarification]
PoolBuilder = Callable[[ClarificationInstance], EvidencePool]


def _per_instance(
    step: Callable, instances: Iterable[ClarificationInstance], map_fn=map
) -> tuple[list[tuple[ClarificationInstance, object]], list[tuple[str, str]]]:
    """Run ``step`` on each instance through ``map_fn``.

    Returns the (instance, result) pairs in input order and the ``(id, reason)``
    of each instance whose step raised a :class:`ClarikitError`; others propagate.
    This is the one place that tells a skipped instance from a failed run:
    no instances raise ``DataError("no instances given")``, and when every
    instance was skipped the first skip's exception type is raised with
    ``all <N> instances skipped; first <id>: <reason>``.
    """
    def guarded(inst: ClarificationInstance):
        try:
            return inst, step(inst), None
        except ClarikitError as exc:
            # The type and message only: the exception holds the step's frames.
            return inst, None, (type(exc), str(exc))

    results = list(map_fn(guarded, instances))
    if not results:
        raise DataError("no instances given")
    done = [(inst, result) for inst, result, skip in results if skip is None]
    skips = [(inst.id, skip) for inst, _, skip in results if skip is not None]
    if not done:
        first_id, (kind, reason) = skips[0]
        raise kind(f"all {len(skips)} instances skipped; first {first_id}: {reason}")
    return done, [(iid, reason) for iid, (_, reason) in skips]


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def _contains_subsequence(haystack: list[str], needle: list[str]) -> bool:
    if not needle or len(needle) > len(haystack):
        return False
    return any(
        haystack[i : i + len(needle)] == needle
        for i in range(len(haystack) - len(needle) + 1)
    )


@dataclass(frozen=True)
class AlignmentReport:
    """How well evidence pools cover the ground-truth facets."""

    term_overlap_recall: float
    exact_match_recall: float
    per_instance: tuple[tuple[str, float, float], ...]
    config: RetrievalConfig
    evaluated_count: int
    skipped_count: int
    skip_reasons: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        return {
            "term_overlap_recall": self.term_overlap_recall,
            "exact_match_recall": self.exact_match_recall,
            "per_instance": [
                {"instance_id": i, "term_overlap_recall": t, "exact_match_recall": e}
                for i, t, e in self.per_instance
            ],
            "config": asdict(self.config),
            "evaluated_count": self.evaluated_count,
            "skipped_count": self.skipped_count,
            "skip_reasons": [list(r) for r in self.skip_reasons],
        }


def alignment_stats(
    instances: Sequence[ClarificationInstance],
    pool_builder: PoolBuilder,
    corpus: Corpus | None = None,
) -> AlignmentReport:
    """Per-instance and mean facet coverage of the built evidence pools.

    term_overlap_recall is the recall of the concatenated evidence text
    against the facet token set; exact_match_recall is the fraction of
    facets appearing verbatim (as a contiguous normalized token run)
    anywhere in the concatenated evidence.  An instance whose pool, texts
    or scores raise a clarikit error is skipped; the report's ``config`` is
    the first evaluated pool's builder config.
    """

    def step(inst: ClarificationInstance) -> tuple[RetrievalConfig, float, float]:
        pool = pool_builder(inst)
        evidence_tokens = normalize(" ".join(resolve_texts(pool, corpus, inst)))
        if not evidence_tokens:
            return pool.builder_config, 0.0, 0.0
        facet_tokens = [normalize(facet) for facet in inst.facets]
        truth = {token for tokens in facet_tokens for token in tokens}
        if not truth:
            raise DataError("truth facets normalize to an empty token set")
        to_recall = len(truth.intersection(evidence_tokens)) / len(truth)
        hits = sum(1 for tokens in facet_tokens if _contains_subsequence(evidence_tokens, tokens))
        return pool.builder_config, to_recall, hits / len(inst.facets)

    done, skips = _per_instance(step, instances)
    per = [(inst.id, to_recall, em_recall) for inst, (_, to_recall, em_recall) in done]
    return AlignmentReport(
        term_overlap_recall=_mean([t for _, t, _ in per]),
        exact_match_recall=_mean([e for _, _, e in per]),
        per_instance=tuple(per),
        config=done[0][1][0],
        evaluated_count=len(per),
        skipped_count=len(skips),
        skip_reasons=tuple(skips),
    )


@dataclass(frozen=True)
class LooReport:
    """Leave-one-out faithfulness: recall of a randomly chosen facet before
    and after its supporting evidence is removed from the pool."""

    recall: float
    recall_loo: float
    delta_pct: float
    metric_kind: str
    per_instance: tuple[tuple[str, int, float, float], ...]
    seed: int
    evaluated_count: int
    skipped_count: int
    skip_reasons: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        return {
            "recall": self.recall,
            "recall_loo": self.recall_loo,
            "delta_pct": self.delta_pct,
            "metric_kind": self.metric_kind,
            "per_instance": [
                {
                    "instance_id": i,
                    "chosen_facet_index": fi,
                    "recall": r,
                    "recall_loo": rl,
                }
                for i, fi, r, rl in self.per_instance
            ],
            "seed": self.seed,
            "evaluated_count": self.evaluated_count,
            "skipped_count": self.skipped_count,
            "skip_reasons": [list(r) for r in self.skip_reasons],
        }


def loo_faithfulness(
    instances: Sequence[ClarificationInstance],
    generator: GeneratorFn,
    base_pool_config: RetrievalConfig,
    *,
    corpus: Corpus | None = None,
    index: InvertedIndex | None = None,
    table: EmbeddingTable | None = None,
    seed: int = 0,
    metric_kind: str = "exact_match",
    max_facets: int = 5,
    emit_question: bool = False,
    sole_provenance_only: bool = False,
    query_embedder=None,
) -> LooReport:
    """Measure how much a facet's recall drops when its evidence is removed.

    Per instance: pick one facet with an RNG keyed by (seed, instance id)
    so draws are stable under dataset edits, build the facet-aligned pool,
    generate, then drop every entry whose provenance includes the chosen
    facet's label (or only entries retrieved solely by it, with
    ``sole_provenance_only``) and generate again.
    """
    if base_pool_config.alignment != "facet_aligned":
        raise ValueError("leave-one-out requires a facet_aligned pool config")
    metric = {"term_overlap": term_overlap, "exact_match": exact_match}.get(metric_kind)
    if metric is None:
        raise ValueError(f"unknown metric kind {metric_kind!r}")

    def step(inst: ClarificationInstance) -> tuple[int, float, float]:
        rng = random.Random(f"{seed}:{inst.id}")
        facet_idx = rng.randrange(len(inst.facets))
        facet = inst.facets[facet_idx]
        label = facet_label(facet_idx)
        pool = build_pool(base_pool_config, inst, index, table, query_embedder)
        texts = resolve_texts(pool, corpus, inst)
        clar = generator(GeneratorRequest(inst.query, tuple(texts), max_facets, emit_question))
        recall = metric(clar.facets, [facet]).recall

        if sole_provenance_only:
            keep = [e.provenance != frozenset({label}) for e in pool.entries]
        else:
            keep = [label not in e.provenance for e in pool.entries]
        loo_texts = [text for text, kept in zip(texts, keep) if kept]
        loo_clar = generator(
            GeneratorRequest(inst.query, tuple(loo_texts), max_facets, emit_question)
        )
        return facet_idx, recall, metric(loo_clar.facets, [facet]).recall

    done, skips = _per_instance(step, instances)
    per = [(inst.id, *result) for inst, result in done]

    recall = _mean([r for _, _, r, _ in per])
    recall_loo = _mean([r for _, _, _, r in per])
    delta_pct = 100.0 * (recall_loo - recall) / recall if recall > 0 else 0.0
    return LooReport(
        recall=recall,
        recall_loo=recall_loo,
        delta_pct=delta_pct,
        metric_kind=metric_kind,
        per_instance=tuple(per),
        seed=seed,
        evaluated_count=len(per),
        skipped_count=len(skips),
        skip_reasons=tuple(skips),
    )


@dataclass(frozen=True)
class SweepPoint:
    n_evidence: int
    report: MetricReport
    evaluated_count: int
    skipped_count: int


@dataclass(frozen=True)
class SweepReport:
    points: tuple[SweepPoint, ...]
    skip_reasons: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        return {
            "points": [
                {
                    "n_evidence": p.n_evidence,
                    "evaluated_count": p.evaluated_count,
                    "skipped_count": p.skipped_count,
                    **p.report.to_flat_dict(),
                }
                for p in self.points
            ],
            "skip_reasons": [list(r) for r in self.skip_reasons],
        }

    def csv_lines(self) -> Iterator[str]:
        """The sweep CSV: per point its size and counts, then its metric means."""
        head = ("n_evidence", "evaluated_count", "skipped_count")
        rows = ({k: getattr(p, k) for k in head} | p.report.to_flat_dict() for p in self.points)
        return _metric_csv_lines(head, rows)


def evidence_size_sweep(
    instances: Sequence[ClarificationInstance],
    generator: GeneratorFn,
    pool_config: RetrievalConfig,
    n_values: Sequence[int],
    *,
    corpus: Corpus | None = None,
    index: InvertedIndex | None = None,
    table: EmbeddingTable | None = None,
    embedder: Embedder | None = None,
    max_facets: int = 5,
    emit_question: bool = False,
    query_embedder=None,
) -> SweepReport:
    """Mean metric suite as a function of evidence-pool size.

    Pools are built once at the largest requested size and truncated to
    each n; instances whose generation or evaluation fails at a given n
    are skipped there with a recorded reason, prefixed ``pool: `` or
    ``n=<N>: ``.  A point at which every instance is skipped fails the
    whole sweep.
    """
    if not n_values:
        raise ValueError("n_values is empty")
    for i, n in enumerate(n_values):
        _check_count(f"n_values[{i}]", n)
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing positive integers")

    build_config = replace(pool_config, k=max(max(n_values), pool_config.k))

    # Each step re-raises its error with its prefix, so that a failed run
    # quotes the reason as skip_reasons lists it.
    def pool_texts(inst: ClarificationInstance) -> list[str]:
        try:
            pool = build_pool(build_config, inst, index, table, query_embedder)
            return resolve_texts(pool, corpus, inst)
        except ClarikitError as exc:
            raise type(exc)(f"pool: {exc}") from None

    def evaluate_at(n: int, inst: ClarificationInstance) -> MetricReport:
        evidence = tuple(texts[inst.id][:n])
        try:
            clar = generator(GeneratorRequest(inst.query, evidence, max_facets, emit_question))
            return evaluate_instance(clar.facets, inst.facets, embedder)
        except ClarikitError as exc:
            raise type(exc)(f"n={n}: {exc}") from None

    built, skips = _per_instance(pool_texts, instances)
    texts = {inst.id: inst_texts for inst, inst_texts in built}
    points: list[SweepPoint] = []
    for n in n_values:
        done, skipped = _per_instance(partial(evaluate_at, n), [inst for inst, _ in built])
        skips += skipped
        points.append(
            SweepPoint(
                n_evidence=n,
                report=mean_report([report for _, report in done]),
                evaluated_count=len(done),
                skipped_count=len(skipped),
            )
        )
    return SweepReport(points=tuple(points), skip_reasons=tuple(skips))


@dataclass(frozen=True)
class TaxonomyReport:
    """Most frequent facet words and how much of the dataset they touch."""

    top_words: tuple[tuple[str, int], ...]
    biased_fraction: float

    def to_dict(self) -> dict:
        return {
            "top_words": [[w, c] for w, c in self.top_words],
            "biased_fraction": self.biased_fraction,
        }


def taxonomy_analysis(
    instances: Sequence[ClarificationInstance], top_k: int = 20
) -> TaxonomyReport:
    """Top facet words by occurrence (stopwords excluded, ties alphabetical)
    and the fraction of instances with a facet containing one of them.

    Degenerate note: if top_k covers the whole facet vocabulary, every
    instance with any non-stopword facet word counts as biased.
    """
    if not instances:
        raise DataError("no instances given")
    _check_count("top_k", top_k)
    facet_tokens = [
        [normalize(facet, drop_stopwords=True) for facet in inst.facets] for inst in instances
    ]
    counts: dict[str, int] = {}
    for token_lists in facet_tokens:
        for tokens in token_lists:
            for token in tokens:
                counts[token] = counts.get(token, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:top_k]
    top = {word for word, _ in ranked}
    biased = sum(
        1 for token_lists in facet_tokens if any(top.intersection(t) for t in token_lists)
    )
    return TaxonomyReport(
        top_words=tuple(ranked), biased_fraction=biased / len(instances)
    )


# --- full experiment runs --------------------------------------------------


@dataclass(frozen=True)
class ExperimentReport:
    config_hash: str
    seed: int
    mean: MetricReport
    per_instance: tuple[tuple[str, MetricReport], ...]
    evaluated_count: int
    skipped_count: int
    skip_reasons: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "mean": self.mean.to_flat_dict(),
            "per_instance": [
                {"instance_id": i, **report.to_flat_dict()}
                for i, report in self.per_instance
            ],
            "evaluated_count": self.evaluated_count,
            "skipped_count": self.skipped_count,
            "skip_reasons": [list(r) for r in self.skip_reasons],
        }


_CONFIG_REQUIRED = ("corpus", "instances", "retrieval", "generator", "seed", "output_dir")


# Where a run writes and where it reads: each input file's sha256 is hashed instead.
_UNHASHED_KEYS = frozenset({"output_dir", "corpus", "instances", "embeddings"})


def _config_hash(config: dict, paths: dict[str, Path]) -> str:
    """sha256 over the config as written, less its ``output_dir`` and input
    paths, and the sha256 of each input file: the same experiment written
    elsewhere, or naming its inputs by another path, hashes alike."""
    import hashlib  # here, so commands that hash nothing never load OpenSSL

    inputs = {}
    for key, path in paths.items():
        # Small chunks: the run's index is still alive when this runs, so
        # reading a whole input file at once would raise peak memory.
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 16):
                digest.update(chunk)
        inputs[key] = digest.hexdigest()
    config = {key: value for key, value in config.items() if key not in _UNHASHED_KEYS}
    canonical = json.dumps(
        {"config": config, "inputs": inputs}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Resources:
    """Everything an experiment config names, loaded once by :func:`load_resources`.

    ``config`` is the config as written and ``paths`` its resolved input
    files; ``doc_table`` holds only the vectors that retrieval may return.
    """

    config: dict
    paths: dict[str, Path]
    corpus: Corpus
    instances: tuple[ClarificationInstance, ...]
    retrieval: RetrievalConfig
    index: InvertedIndex | None
    doc_table: EmbeddingTable | None
    query_embedder: QueryEmbedder | None
    generator: GeneratorFn
    max_facets: int
    emit_question: bool
    set_sim_embedder: Embedder | None

    def pool_for(self, instance: ClarificationInstance) -> EvidencePool:
        return build_pool(
            self.retrieval,
            instance,
            index=self.index,
            table=self.doc_table,
            query_embedder=self.query_embedder,
        )

    def pools(self) -> tuple[list[EvidencePool], list[tuple[str, str]]]:
        """Every instance's pool in input order, and the ``(id, reason)`` of each skip."""
        built, skips = _per_instance(self.pool_for, self.instances)
        return [pool for _, pool in built], skips


def load_resources(config: dict | str | Path, base_dir: Path | None = None) -> Resources:
    """Check every value of an experiment config (a dict, or a config file's
    path) before any input file is read, then load what it names.

    A bad value raises :class:`DataError`.  Relative input paths resolve
    against ``base_dir``: by default the config file's directory, or the
    working directory for a dict.
    """
    if isinstance(config, (str, Path)):
        base_dir = Path(config).parent if base_dir is None else base_dir
        config = read_json_object(Path(config), "config")
    else:
        config = dict(config)
    for key in _CONFIG_REQUIRED:
        if key not in config:
            raise DataError(f"config missing required key {key!r}")
    base = base_dir or Path(".")
    has_embeddings = config.get("embeddings") not in (None, "")
    paths: dict[str, Path] = {}
    for key in ["corpus", "instances"] + (["embeddings"] if has_embeddings else []):
        if not isinstance(config[key], str):
            raise DataError(f"config {key} must be a string, got {config[key]!r}")
        paths[key] = base / config[key]
        if not paths[key].is_file():
            raise DataError(f"config {key} file not found: {paths[key]}")
    try:
        retrieval_cfg = RetrievalConfig(**config["retrieval"])
    except (TypeError, ValueError) as exc:
        raise DataError(f"invalid retrieval config: {exc}") from exc
    gen = config["generator"]
    if not isinstance(gen, dict) or gen.get("kind") not in ("extractive", "remote"):
        raise DataError("generator config must set kind to 'extractive' or 'remote'")
    endpoint = gen.get("endpoint")
    # Case-insensitive, as requests reads the scheme.
    if gen["kind"] == "remote" and not (
        isinstance(endpoint, str) and endpoint.lower().startswith(("http://", "https://"))
    ):
        raise DataError(f"remote generator endpoint must be an http(s) URL, got {endpoint!r}")
    max_facets = gen.get("max_facets", 5)
    if not _is_int(max_facets) or max_facets < 1:
        raise DataError(f"generator max_facets must be an integer >= 1, got {max_facets!r}")
    emit_question = gen.get("emit_question", False)
    if not isinstance(emit_question, bool):
        raise DataError(f"generator emit_question must be true or false, got {emit_question!r}")
    timeout = gen.get("timeout", 30.0)
    # The platform's longest wait: a longer one overflows in the HTTP client.
    if not (_is_finite_number(timeout) and 0 < timeout <= threading.TIMEOUT_MAX):
        raise DataError(
            f"generator timeout must be a number > 0 and <= {threading.TIMEOUT_MAX}, "
            f"got {timeout!r}"
        )
    if retrieval_cfg.mode == "dense" and not has_embeddings:
        raise DataError("dense retrieval requires an embeddings file")
    if config.get("set_sim") not in (None, "indicator", "table"):
        raise DataError("config set_sim must be 'indicator' or 'table'")
    if config.get("set_sim") == "table" and not has_embeddings:
        raise DataError("set_sim 'table' requires an embeddings file")
    if not _is_int(config["seed"]):
        raise DataError(f"config seed must be an integer, got {config['seed']!r}")
    if not isinstance(config["output_dir"], str):
        raise DataError(f"config output_dir must be a string, got {config['output_dir']!r}")

    corpus = load_corpus(paths["corpus"])
    instances = tuple(load_instances(paths["instances"]))
    table = load_embeddings(paths["embeddings"]) if has_embeddings else None
    index, doc_table, query_embedder = None, table, None
    if retrieval_cfg.alignment in ("query_only", "facet_aligned"):
        if retrieval_cfg.mode == "lexical":
            index = build_inverted_index(corpus)
        else:
            doc_table, query_embedder = split_embeddings(table, corpus)
    generator: GeneratorFn = extractive_generate
    if gen["kind"] == "remote":
        generator = partial(remote_generate, endpoint, timeout=float(timeout))
    return Resources(
        config=config,
        paths=paths,
        corpus=corpus,
        instances=instances,
        retrieval=retrieval_cfg,
        index=index,
        doc_table=doc_table,
        query_embedder=query_embedder,
        generator=generator,
        max_facets=max_facets,
        emit_question=emit_question,
        set_sim_embedder=table_embedder(table) if config.get("set_sim") == "table" else None,
    )


class _Echo:
    """A file for csv.writer whose write gives the line back, so that
    ``writerow`` returns the line it formatted."""

    def write(self, line: str) -> str:
        return line


def _metric_csv_lines(head: Sequence[str], rows: Iterable[dict]) -> Iterator[str]:
    """Lines of a CSV with the ``head`` columns, then METRIC_COLUMNS at six decimals.

    Each row is a dict that holds every column.  Lines are formatted as they
    are drawn.
    """
    writer = csv.writer(_Echo(), lineterminator="\n")
    yield writer.writerow([*head, *METRIC_COLUMNS])
    for row in rows:
        yield writer.writerow([*[row[k] for k in head], *[f"{row[c]:.6f}" for c in METRIC_COLUMNS]])


def run_experiment(
    config: dict | str | Path | Resources,
    parallelism: int | None = None,
) -> ExperimentReport:
    """Build pools, generate clarifications, evaluate, and write reports.

    Deterministic for a fixed (config, seed) regardless of parallelism:
    instances are processed as independent work units and reassembled in
    input order.  ``output_dir`` is created once the config has loaded and
    before the first instance runs, so a path that can never be a
    directory raises ``OSError`` at once.  Outputs (report.json,
    summary.csv in output_dir) are written together and atomically, and
    only after the whole run succeeds: a run in which every instance was
    skipped raises and writes neither.

    Only a remote generator runs on worker threads: ``parallelism`` of
    them, by default the CPU count, each doing pool, generate and evaluate
    for one instance at a time.  Threads overlap only the generator's
    network waits; retrieval, the extractive generator and the metrics
    are pure Python under the interpreter lock, so every other generator
    runs all instances on the calling thread whatever ``parallelism`` says,
    and never imports the thread pool.  A ``parallelism`` that is not an
    integer >= 1 raises ``ValueError``.

    ``config`` is what :func:`load_resources` takes, or its result.
    """
    if parallelism is not None and (not _is_int(parallelism) or parallelism < 1):
        raise ValueError(f"parallelism must be an integer >= 1, got {parallelism!r}")
    res = config if isinstance(config, Resources) else load_resources(config)
    out_dir = Path(res.config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    def step(inst: ClarificationInstance) -> MetricReport:
        texts = resolve_texts(res.pool_for(inst), res.corpus, inst)
        clar = res.generator(
            GeneratorRequest(inst.query, tuple(texts), res.max_facets, res.emit_question)
        )
        return evaluate_instance(clar.facets, inst.facets, res.set_sim_embedder)

    if res.config["generator"]["kind"] == "remote":
        from concurrent.futures import ThreadPoolExecutor

        workers = parallelism or os.cpu_count() or 1
        with ThreadPoolExecutor(max_workers=workers) as pool_exec:
            done, skips = _per_instance(step, res.instances, map_fn=pool_exec.map)
    else:
        done, skips = _per_instance(step, res.instances)

    per_instance = [(inst.id, rep) for inst, rep in done]
    report = ExperimentReport(
        config_hash=_config_hash(res.config, res.paths),
        seed=res.config["seed"],
        mean=mean_report([rep for _, rep in per_instance]),
        per_instance=tuple(per_instance),
        evaluated_count=len(per_instance),
        skipped_count=len(skips),
        skip_reasons=tuple(skips),
    )

    report_json = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    head = ("config_hash", "evaluated_count", "skipped_count")
    row = {k: getattr(report, k) for k in head} | report.mean.to_flat_dict()
    summary = _metric_csv_lines(head, [row])
    atomic_write_text(out_dir / "report.json", report_json, (out_dir / "summary.csv", summary))
    return report


@dataclass(frozen=True)
class EvaluationReport:
    """Truth ids in input order, one ``array("d")`` of their values per
    METRIC_COLUMNS entry, and the means; each row is formatted as it is drawn."""

    ids: tuple[str, ...]
    columns: tuple[array, ...]
    mean: MetricReport

    def rows(self) -> Iterator[dict]:
        for i, inst_id in enumerate(self.ids):
            yield {"instance_id": inst_id} | {c: v[i] for c, v in zip(METRIC_COLUMNS, self.columns)}
        yield {"instance_id": "__mean__"} | self.mean.to_flat_dict()

    def jsonl_lines(self) -> Iterator[str]:
        return (json.dumps(row, sort_keys=True) + "\n" for row in self.rows())

    def csv_lines(self) -> Iterator[str]:
        return _metric_csv_lines(("instance_id",), self.rows())


def evaluate_generated(
    generated: str | Path, truth: str | Path, embeddings: str | Path | None = None
) -> EvaluationReport:
    """Score every truth instance, in order, against the generated facets of
    its id; it reads truth, then embeddings, then the whole generated file.
    Nothing is skipped: an instance that cannot be scored raises DataError.
    """
    instances = load_instances(truth)
    if not instances:
        raise DataError(f"{truth}: no instances given")
    embedder = table_embedder(load_embeddings(embeddings)) if embeddings else None
    facets = dict(iter_generated(generated))
    columns = tuple(array("d") for _ in METRIC_COLUMNS)
    for inst in instances:
        if inst.id not in facets:
            raise DataError(
                f"{truth}: instance id {inst.id!r} has no generated facets in {generated}"
            )
        try:
            report = evaluate_instance(facets.pop(inst.id), list(inst.facets), embedder)
        except DataError as exc:
            raise DataError(f"{truth}: instance id {inst.id!r}: {exc}") from exc
        for column, value in zip(columns, report.to_flat_dict().values()):
            column.append(value)
    ids = tuple(inst.id for inst in instances)
    return EvaluationReport(ids, columns, _mean_of_columns(columns))


@dataclass(frozen=True)
class BootstrapResult:
    mean_diff: float
    ci_low: float
    ci_high: float
    iterations: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def paired_bootstrap(
    rows_a: Sequence[dict],
    rows_b: Sequence[dict],
    metric: str,
    iterations: int = 1000,
    seed: int = 0,
) -> BootstrapResult:
    """Seeded paired bootstrap over per-instance metric rows.

    Rows are dicts carrying "instance_id" and flat metric keys (as emitted
    in report.json).  Reports the mean of B minus A and the 2.5/97.5
    percentile interval of resampled mean differences.  ``iterations`` must
    be >= 1 and ``seed`` an integer >= 0, or ``ValueError`` is raised; a
    draw of iterations x instances that does not fit raises ``DataError``.
    """
    _check_count("iterations", iterations)
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")

    def extract(rows: Sequence[dict], name: str) -> dict[str, float]:
        if not isinstance(rows, (list, tuple)) or not all(isinstance(r, dict) for r in rows):
            raise DataError(f"{name}: per-instance rows must be a list of objects")
        out = {}
        for row in rows:
            if "instance_id" not in row:
                raise DataError(f"{name}: row missing 'instance_id'")
            if metric not in row:
                raise DataError(f"{name}: row missing metric {metric!r}")
            iid, value = row["instance_id"], row[metric]
            if not isinstance(iid, str):
                raise DataError(f"{name}: instance_id must be a string, got {iid!r}")
            if iid in out:
                raise DataError(f"{name}: instance_id {iid!r} is repeated")
            if not _is_finite_number(value):
                raise DataError(
                    f"{name}: {metric} of {iid!r} must be a finite number, got {value!r}"
                )
            out[iid] = float(value)
        return out

    a = extract(rows_a, "A")
    b = extract(rows_b, "B")
    if set(a) != set(b):
        missing = sorted(set(a).symmetric_difference(set(b)))
        raise DataError(f"instance ids differ between A and B: {missing}")
    if not a:
        raise DataError("no instances to bootstrap over")

    ids = sorted(a)
    diffs = np.array([b[i] - a[i] for i in ids], dtype=np.float64)
    rng = np.random.default_rng(seed)
    try:
        # One draw for all iterations: drawing in parts would change the samples.
        means = diffs[rng.integers(0, len(ids), size=(iterations, len(ids)))].mean(axis=1)
    except (MemoryError, ValueError) as exc:  # numpy refuses a shape past its index range
        raise DataError(
            f"{iterations} iterations x {len(ids)} instances do not fit in memory"
        ) from exc
    lo, hi = np.percentile(means, [2.5, 97.5])
    return BootstrapResult(
        mean_diff=float(diffs.mean()),
        ci_low=float(lo),
        ci_high=float(hi),
        iterations=iterations,
        seed=seed,
    )
