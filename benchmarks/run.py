"""clarikit benchmark: one workload per invocation, results as one JSON line.

    python3 benchmarks/run.py --workload experiment-bm25 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The benchmark imports clarikit from ``src/``
of the same checkout, writes its seeded inputs under ``benchmarks/.work/``
and runs the workload in a child process, so the peak RSS it reports is
the workload's own.  Workloads and metrics are described in
``benchmarks/README.md``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run at parallelism 1.  The last line printed
is ``{"correct", "attempted", "failed", "metrics"}``; the full record,
including the environment, goes to ``benchmarks/.results/``.  The exit
code is non-zero when a correctness check fails.

``--write-reference`` recomputes the stored reference outputs of the
correctness gate; use it only when clarikit's outputs change on purpose.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
RESULTS_DIR = BENCH_DIR / ".results"
WORK_DIR = BENCH_DIR / ".work"

DEFAULT_SEED = 1
MIN_REPS = 3  # set-ups and calls per run, at least, whatever --seconds says
MIN_TRACE_REPS = 2
CHILD_TIMEOUT_S = 170
FLOAT_TOLERANCE = 1e-9

# End-to-end metrics: name -> unit.  Per-layer names come from per_layer_units().
END_TO_END = {
    "instances_per_s": "1/s",
    "instances_per_s_par": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_STATS = {"calls": "count", "self_s": "s", "p50_ms": "ms", "p99_ms": "ms"}
PER_INSTANCE = (
    "corpus.normalize",
    "retrieval.bm25_retrieve",
    "metrics.match_facet_pairs",
    "metrics.bleu_n",
)


def import_clarikit():
    """Import clarikit from this checkout's src/, never from anywhere else."""
    if not (SRC / "clarikit" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'clarikit'} not found; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import clarikit

    if Path(clarikit.__file__).resolve().parent != (SRC / "clarikit").resolve():
        sys.exit(f"error: clarikit imported from {clarikit.__file__}, not {SRC}")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in a fixed order."""
    from workloads import TRACE_TARGETS
    from tracing import SIM_NAME

    units = {f"{t}.{stat}": unit for t in TRACE_TARGETS for stat, unit in LAYER_STATS.items()}
    units[f"{SIM_NAME}.calls"] = "count"
    units.update({f"{t}.per_instance": "count/instance" for t in PER_INSTANCE})
    units["trace.overhead_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


def compare(actual, expected, path: str = "$") -> list[str]:
    """Differences between two JSON values; floats may differ by 1e-9."""
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(actual, (int, float)) and isinstance(expected, (int, float)):
            if abs(actual - expected) <= FLOAT_TOLERANCE:
                return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(actual) is not type(expected):
        return [f"{path}: {type(actual).__name__} != {type(expected).__name__}"]
    if isinstance(expected, dict):
        if actual.keys() != expected.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for k in expected for d in compare(actual[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [d for i, (a, e) in enumerate(zip(actual, expected)) for d in compare(a, e, f"{path}[{i}]")]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def environment(seed: int, sizes: dict) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "clarikit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "sizes": sizes,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _gate(workload, gate_dir: Path) -> list[str]:
    ref_path = REFERENCE_DIR / f"{workload.name}.json"
    if not ref_path.is_file():
        return [f"missing reference {ref_path.name}"]
    expected = json.loads(ref_path.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(workload.gate_outputs(gate_dir)))
    return compare(actual, expected["outputs"], "$")[:10]


def _throughput(calls: list[tuple[int, float]]) -> float:
    return sum(n for n, _ in calls) / sum(seconds for _, seconds in calls)


def child_main(args) -> dict:
    """Run one workload in this process; return its metrics and checks."""
    import_clarikit()
    from tracing import Tracer, layer_stats, SIM_NAME
    from workloads import TRACE_TARGETS, WORKLOADS

    w = WORKLOADS[args.workload]
    d, gate_dir = Path(args.work) / "inputs", Path(args.work) / "gate"
    problems = [f"gate: {p}" for p in _gate(w, gate_dir)]
    attempted = failed = 0
    first_output = None

    def measured(parallelism: int, tracer: Tracer | None = None):
        nonlocal attempted, failed, first_output
        # Each call starts from a collected heap, as a fresh process would.
        gc.collect()
        if tracer is None:
            outcome = w.run(d, parallelism)
        else:
            with tracer.installed(TRACE_TARGETS):
                outcome = w.run(d, parallelism)
        attempted += outcome.instances
        failed += outcome.failed
        if first_output is None:
            first_output = outcome.output
            problems.extend(w.check(d, outcome))
        elif outcome.output != first_output:
            problems.append(f"output differs between calls (parallelism {parallelism})")
        return outcome

    metrics: dict[str, float] = {}
    start = perf_counter()
    if not args.trace:
        setup: list[float] = []
        levels = w.parallel_levels(nproc())
        calls: dict[int, list[tuple[int, float]]] = {p: [] for p in levels}
        # Set-up and calls alternate, so every metric samples the whole run.
        while len(setup) < MIN_REPS or perf_counter() - start < args.seconds:
            gc.collect()
            t0 = perf_counter()
            w.setup(d)
            setup.append(perf_counter() - t0)
            for p in levels:
                outcome = measured(p)
                calls[p].append((outcome.instances, outcome.seconds))
        # Throughput is all instances over all call time: on a host whose
        # speed drifts, this averages the drift where a median would jump.
        metrics["instances_per_s"] = _throughput(calls[1])
        # Workloads without a parallel path repeat the single-thread figure.
        metrics["instances_per_s_par"] = _throughput(calls[levels[-1]])
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail = {"calls": {str(p): c for p, c in calls.items()}, "setup_s": setup}
    else:
        untraced, traced, stats, counts = [], [], [], []
        ids = w.instance_ids(d)
        kept = None  # spans are kept for the first traced call only
        while len(traced) < MIN_TRACE_REPS or perf_counter() - start < args.seconds:
            untraced.append(measured(1).seconds)
            tracer = Tracer(w.trace_opens, w.trace_continues, ids)
            traced.append(measured(1, tracer).seconds)
            problems.extend(f"{name} still wrapped" for name in tracer.bound_wrappers())
            stats.append(layer_stats(tracer.spans))
            counts.append(({n: st["calls"] for n, st in stats[-1].items()}, dict(tracer.counts)))
            if kept is None:
                kept = tracer
        if any(c != counts[0] for c in counts):
            problems.append("per-layer call counts differ between traced calls")
        for target in TRACE_TARGETS:
            metrics[f"{target}.calls"] = stats[0].get(target, {}).get("calls", 0)
            for stat in ("self_s", "p50_ms", "p99_ms"):
                metrics[f"{target}.{stat}"] = statistics.median([st.get(target, {}).get(stat, 0.0) for st in stats])
        metrics[f"{SIM_NAME}.calls"] = counts[0][1].get(SIM_NAME, 0)
        for target in PER_INSTANCE:
            metrics[f"{target}.per_instance"] = metrics[f"{target}.calls"] / len(ids)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / statistics.median(untraced)
        spans_path = RESULTS_DIR / f"{w.name}-seed{args.seed}.spans.jsonl"
        RESULTS_DIR.mkdir(exist_ok=True)
        kept.write(spans_path)
        detail = {"untraced_s": untraced, "traced_s": traced, "spans": str(spans_path.relative_to(ROOT))}
    return {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


def write_inputs(workload, work: Path, seed: int) -> dict:
    import clarikit

    stop = clarikit.stopwords()
    return {
        "measured": workload.write_inputs(work / "inputs", seed, workload.scale, stop),
        "gate": workload.write_inputs(work / "gate", DEFAULT_SEED, workload.gate_scale, stop),
    }


def write_reference(workload) -> None:
    work = WORK_DIR / f"reference-{workload.name}-{os.getpid()}"
    try:
        import clarikit

        sizes = workload.write_inputs(work, DEFAULT_SEED, workload.gate_scale, clarikit.stopwords())
        outputs = json.loads(json.dumps(workload.gate_outputs(work)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    ref = {"seed": DEFAULT_SEED, "sizes": sizes, "outputs": outputs}
    (REFERENCE_DIR / f"{workload.name}.json").write_text(json.dumps(ref) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        result = child_main(args)
        Path(args.work, "child.json").write_text(json.dumps(result), encoding="utf-8")
        return 0

    import_clarikit()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.write_reference:
        write_reference(workload)
        return 0

    work = WORK_DIR / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        sizes = write_inputs(workload, work, args.seed)
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--child",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
        ]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: workload process killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
            return 1
        child = json.loads((work / "child.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed, sizes),
        **child,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    for problem in child["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not child["problems"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {n: {"value": child["metrics"][n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
