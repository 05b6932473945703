"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 generator or I/O
error; a run that skips every instance exits with the first skip's code.
All output files are written atomically (temp file + rename), so a killed
run never leaves a truncated report behind.  Every subcommand
accepts --json to emit a single machine-readable JSON document instead of
the one-line summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from . import retrieval
from .corpus import load_corpus, load_instances, read_json_object
from .errors import DataError, GeneratorError
from .harness import (
    Resources,
    alignment_stats,
    evaluate_generated,
    evidence_size_sweep,
    load_resources,
    loo_faithfulness,
    paired_bootstrap,
    run_experiment,
    taxonomy_analysis,
)
from .ioutils import atomic_write_json, atomic_write_text
from .metrics import METRIC_COLUMNS
from .retrieval import build_inverted_index, write_pools

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems via exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="clarikit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        return p

    p = add("retrieve", "run one BM25 query against a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--k1", type=float, default=0.9)
    p.add_argument("--b", type=float, default=0.4)
    p.set_defaults(func=cmd_retrieve)

    p = add("pool", "build evidence pools for a set of instances")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--instances", help="override the config's instances path")
    p.add_argument("--out", required=True, help="output JSONL of pools")
    p.set_defaults(func=cmd_pool)

    p = add("evaluate", "score generated facets against ground truth")
    p.add_argument("--generated", required=True, help="JSONL: {id, facets}")
    p.add_argument("--truth", required=True, help="instances JSONL")
    p.add_argument("--embeddings", help="embedding table for set_sim")
    p.add_argument("--out", required=True, help="output JSONL; its CSV goes beside it, as .csv")
    p.set_defaults(func=cmd_evaluate)

    p = add("align-stats", "evidence/facet alignment statistics")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_align_stats)

    p = add("loo", "leave-one-out faithfulness audit")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--metric", choices=("term_overlap", "exact_match"), default="exact_match"
    )
    p.add_argument(
        "--sole-provenance",
        action="store_true",
        help="drop only entries retrieved solely by the chosen facet's sub-query",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_loo)

    p = add("sweep", "metric suite vs evidence-pool size")
    p.add_argument("--config", required=True)
    p.add_argument("--n", required=True, help="comma-separated sizes, e.g. 1,5,10,20")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = add("taxonomy", "frequent facet words and taxonomy-bias fraction")
    p.add_argument("--instances", required=True)
    p.add_argument("--top-k", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_taxonomy)

    p = add("experiment", "full pool -> generate -> evaluate run")
    p.add_argument("--config", required=True)
    p.add_argument(
        "--parallelism",
        type=int,
        default=None,
        help="concurrent remote generator calls (default: the CPU count); any "
        "other generator runs on one thread; results identical either way",
    )
    p.set_defaults(func=cmd_experiment)

    p = add("bootstrap", "paired bootstrap between two experiment reports")
    p.add_argument("--a", required=True, help="report.json of run A")
    p.add_argument("--b", required=True, help="report.json of run B")
    p.add_argument("--metric", required=True, help=f"one of {', '.join(METRIC_COLUMNS)}")
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bootstrap)

    return parser


def _emit(args, human: str, payload: Callable[[], dict]) -> int:
    """Print ``human``, or the JSON of ``payload()`` under --json; exit code 0."""
    print(json.dumps(payload(), sort_keys=True) if args.json else human)
    return 0


@contextmanager
def _naming_instances(res: Resources) -> Iterator[None]:
    """Name the instances file in the data error of a run over none of its
    lines; every other error passes unchanged, at the point it is raised."""
    try:
        yield
    except DataError as exc:
        if res.instances:
            raise
        raise DataError(f"{res.paths['instances']}: {exc}") from None


def cmd_retrieve(args) -> int:
    index = build_inverted_index(load_corpus(args.corpus))
    results = retrieval.bm25_retrieve(index, args.query, args.k, k1=args.k1, b=args.b)
    rows = [{"rank": r.rank, "doc_id": r.doc_id, "score": r.score} for r in results]
    lines = [f"{row['rank']:>3}  {row['score']:.6f}  {row['doc_id']}" for row in rows]
    return _emit(
        args,
        "\n".join([*lines, f"{len(rows)} results for {args.query!r}"]),
        lambda: {"query": args.query, "results": rows},
    )


def cmd_pool(args) -> int:
    config: str | dict = args.config
    if args.instances:
        # Swap the override in before loading, so the config's own instances
        # file is never read; made absolute, it resolves against the working
        # directory while the config's other inputs resolve against its own.
        config = read_json_object(Path(args.config), "config")
        instances = Path(args.instances).absolute()
        if not instances.is_file():
            raise DataError(f"--instances file not found: {instances}")
        config["instances"] = str(instances)
    res = load_resources(config, base_dir=Path(args.config).parent)
    with _naming_instances(res):
        pools, skipped = res.pools()
    write_pools(pools, args.out)
    for inst_id, reason in skipped:
        print(f"skipped {inst_id}: {reason}", file=sys.stderr)
    return _emit(
        args,
        f"wrote {len(pools)} pools to {args.out} ({len(skipped)} skipped)",
        lambda: {"pools": len(pools), "skipped": len(skipped), "out": str(args.out)},
    )


def cmd_evaluate(args) -> int:
    csv_path = Path(args.out).with_suffix(".csv")
    if csv_path == Path(args.out):
        raise _UsageError(f"--out {args.out} is where the CSV report goes; give it another suffix")
    report = evaluate_generated(args.generated, args.truth, args.embeddings)
    atomic_write_text(args.out, report.jsonl_lines(), (csv_path, report.csv_lines()))
    flat = report.mean.to_flat_dict()
    return _emit(
        args,
        f"evaluated {len(report.ids)} instances -> {args.out} "
        f"(exact_match_f1={flat['exact_match_f1']:.4f})",
        lambda: {"evaluated": len(report.ids), "out": str(args.out), "mean": flat},
    )


def cmd_align_stats(args) -> int:
    res = load_resources(args.config)
    with _naming_instances(res):
        report = alignment_stats(res.instances, res.pool_for, corpus=res.corpus)
    atomic_write_json(args.out, report.to_dict())
    return _emit(
        args,
        f"alignment over {report.evaluated_count} instances: "
        f"term_overlap_recall={report.term_overlap_recall:.4f} "
        f"exact_match_recall={report.exact_match_recall:.4f} -> {args.out}",
        report.to_dict,
    )


def cmd_loo(args) -> int:
    res = load_resources(args.config)
    with _naming_instances(res):
        report = loo_faithfulness(
            res.instances,
            res.generator,
            res.retrieval,
            corpus=res.corpus,
            index=res.index,
            table=res.doc_table,
            seed=args.seed,
            metric_kind=args.metric,
            max_facets=res.max_facets,
            emit_question=res.emit_question,
            sole_provenance_only=args.sole_provenance,
            query_embedder=res.query_embedder,
        )
    atomic_write_json(args.out, report.to_dict())
    return _emit(
        args,
        f"LOO ({args.metric}) over {report.evaluated_count} instances: "
        f"recall={report.recall:.4f} recall_loo={report.recall_loo:.4f} "
        f"delta={report.delta_pct:+.2f}% -> {args.out}",
        report.to_dict,
    )


def cmd_sweep(args) -> int:
    try:
        n_values = [int(x) for x in args.n.split(",") if x.strip()]
    except ValueError as exc:
        raise _UsageError(f"--n must be comma-separated integers: {exc}")
    res = load_resources(args.config)
    with _naming_instances(res):
        report = evidence_size_sweep(
            res.instances,
            res.generator,
            res.retrieval,
            n_values,
            corpus=res.corpus,
            index=res.index,
            table=res.doc_table,
            embedder=res.set_sim_embedder,
            max_facets=res.max_facets,
            emit_question=res.emit_question,
            query_embedder=res.query_embedder,
        )
    atomic_write_text(args.out, report.csv_lines())
    return _emit(
        args,
        f"swept n={n_values} over {len(res.instances)} instances -> {args.out}",
        report.to_dict,
    )


def cmd_taxonomy(args) -> int:
    instances = load_instances(args.instances)
    if not instances:
        raise DataError(f"{args.instances}: no instances given")
    report = taxonomy_analysis(instances, top_k=args.top_k)
    atomic_write_json(args.out, report.to_dict())
    return _emit(
        args,
        f"top-{args.top_k} facet words cover {report.biased_fraction:.2%} "
        f"of {len(instances)} instances -> {args.out}",
        report.to_dict,
    )


def cmd_experiment(args) -> int:
    res = load_resources(args.config)
    with _naming_instances(res):
        report = run_experiment(res, parallelism=args.parallelism)
    flat = report.mean.to_flat_dict()
    return _emit(
        args,
        f"experiment {report.config_hash[:12]}: {report.evaluated_count} evaluated, "
        f"{report.skipped_count} skipped, exact_match_f1={flat['exact_match_f1']:.4f} "
        f"-> {res.config['output_dir']}",
        report.to_dict,
    )


def _load_report_rows(path: str) -> list[dict]:
    doc = read_json_object(path, "report")
    if "per_instance" not in doc:
        raise DataError(f"{path}: not an experiment report (missing 'per_instance')")
    return doc["per_instance"]


def cmd_bootstrap(args) -> int:
    result = paired_bootstrap(
        _load_report_rows(args.a),
        _load_report_rows(args.b),
        args.metric,
        iterations=args.iters,
        seed=args.seed,
    )
    return _emit(
        args,
        f"mean diff (B-A) on {args.metric}: {result.mean_diff:+.6f} "
        f"[{result.ci_low:+.6f}, {result.ci_high:+.6f}] "
        f"({result.iterations} iterations, seed {result.seed})",
        result.to_dict,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help exits 0
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except GeneratorError as exc:
        print(f"generator error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
