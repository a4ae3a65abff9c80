"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload micro-pretrain --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the package is imported from ``src/``
there and nowhere else.  The run prints every metric with its unit and
every check, writes a result file (metrics, checks, machine facts) under
``perfbench/out/results/``, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` those metrics are the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` they are the per-layer metrics, from a run that
alternates untraced and traced units and reports the tracing overhead
between them.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MAX_THREADS = 1

# every metric a run can report: unit and better direction.  The first four
# are the end-to-end metrics of BENCHMARK.json; the rest apply to some
# workloads only and are recorded in the result file.
METRICS = {
    "images_per_s": ("images/s", "higher"),
    "step_ms_p50": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "train_images_per_s": ("images/s", "higher"),
    "step_ms_p90": ("ms", "lower"),
    "step_fail_ratio": ("ratio", "lower"),
    "loss_end": ("nats", "lower"),
    "knn_acc": ("fraction", "higher"),
    "extract_images_per_s": ("images/s", "higher"),
    "knn_classify_ms": ("ms", "lower"),
}


def pin_threads() -> int:
    """Pin BLAS and OpenMP threads to min(nproc, MAX_THREADS), before numpy loads."""
    threads = max(1, min(len(os.sched_getaffinity(0)), MAX_THREADS))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(threads: int) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


def tail_percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile, or None unless ten samples lie beyond it."""
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)  # ceil
    if rank < 1 or len(ordered) - rank < 10:
        return None
    return ordered[int(rank) - 1]


def end_to_end(units, pretrain: bool) -> dict:
    """Medians over units (steps for latency) of one run's untraced units."""
    steps = [ms for u in units for ms in u.step_ms]
    images_per_s = statistics.median(u.images_per_s for u in units)
    metrics = {
        "images_per_s": images_per_s,
        "step_ms_p50": statistics.median(steps),
        "setup_s": statistics.median(u.setup_s for u in units),
        "step_ms_p90": tail_percentile(steps, 90),
    }
    if pretrain:
        metrics["train_images_per_s"] = images_per_s
        metrics["step_fail_ratio"] = sum(u.failed for u in units) / sum(
            u.attempted for u in units
        )
    for key in units[0].extra:
        metrics[key] = statistics.median(u.extra[key] for u in units)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {k: v for k, v in metrics.items() if v is not None}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload's closed loop; returns the result record."""
    import tracing
    import workloads

    spec = workloads.WORKLOADS[name]
    pretrain = isinstance(spec, workloads.PretrainSpec)
    tracer = tracing.Tracer() if trace else None
    work = OUT / "work" / f"{name}-{os.getpid()}"

    def traced(i: int) -> bool:
        # a traced run alternates untraced and traced units, untraced first
        return trace and i % 2 == 1

    def unit(i: int):
        active = tracer if traced(i) else None
        if active is not None:
            active.unit = f"{'call' if pretrain else 'pass'}{i}"
        if pretrain:
            return workloads.pretrain_call(spec, seed, work, active)
        return workloads.knn_pass(spec, seed, active, reference=i == 0)

    try:
        units = workloads.repeat_until(seconds, 3 if trace else 2, unit)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [u for i, u in enumerate(units) if not traced(i)]
    checks = {}
    for u in units:
        for key, ok in u.checks.items():
            checks[key] = checks.get(key, True) and ok
    checks["same_output_every_unit"] = len({u.digest for u in units}) == 1
    record = {
        "correct": all(checks.values()),
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": end_to_end(plain, pretrain),
        "checks": checks,
        "units": len(units),
        "untraced_units": len(plain),
        "steps_sampled": sum(len(u.step_ms) for u in plain),
        "step_ms": [[round(ms, 3) for ms in u.step_ms] for u in plain],
        # train_log.csv on the pretrain workloads; bank and predictions on knn-eval
        "output_sha256": units[0].digest,
    }
    if trace:
        hot = [u for i, u in enumerate(units) if traced(i)]
        summary = tracer.summary()
        steps = sum(len(u.step_ms) for u in hot)  # one entry per pass on knn-eval
        layers = tracing.per_layer_metrics(summary, steps, len(hot))
        # per-step (or per-pass) time, traced against untraced; the first
        # unit of a process runs slower and is left out of the comparison
        traced_ms = statistics.median(ms for u in hot for ms in u.step_ms)
        plain_ms = statistics.median(ms for u in plain[1:] for ms in u.step_ms)
        layers[tracing.OVERHEAD_METRIC] = (traced_ms / plain_ms - 1.0) * 100.0
        record["per_layer"] = layers
        record["spans_summary"] = summary
        record["op_shapes"] = tracer.op_shape_table()
        record["span_log"] = tracer.spans
    return record


def write_spans(path: Path, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as f:
        for i, (name, start, end, parent, unit, nbytes, _shapes) in enumerate(spans):
            f.write(json.dumps({
                "id": i, "name": name, "start": start, "end": end,
                "parent": parent, "unit": unit, "bytes": nbytes,
            }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_threads()
    src = ROOT / "src"
    if not (src / "patchmix" / "__init__.py").is_file():
        print(f"error: no patchmix package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import patchmix
    import tracing
    import workloads

    if Path(patchmix.__file__).resolve().parent != (src / "patchmix").resolve():
        print(f"error: patchmix was imported from {patchmix.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())

    started = time.time()
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        wall_s=time.time() - started,
        metric_units={k: METRICS[k][0] for k in record["metrics"]},
        machine=machine_facts(threads),
    )
    stem = (
        f"{args.workload}_seed{args.seed}_trace{args.trace}_"
        f"{int(started)}_{os.getpid()}"
    )
    span_log = record.pop("span_log", None)
    if span_log is not None:
        write_spans(OUT / "traces" / f"{stem}.spans.jsonl.gz", span_log)
        record["span_file"] = f"perfbench/out/traces/{stem}.spans.jsonl.gz"
    result = OUT / "results" / f"{stem}.json"
    result.parent.mkdir(parents=True, exist_ok=True)
    result.write_text(json.dumps(record, indent=1))

    if args.trace:
        shown = {m["name"]: record["per_layer"][m["name"]] for m in config["per_layer"]}
        unit_of = {name: tracing.layer_unit(name) for name in shown}
    else:
        shown = record["metrics"]
        unit_of = {name: METRICS[name][0] for name in shown}
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blas threads {threads}  units {record['units']}  "
          f"wall {record['wall_s']:.1f} s")
    for name, value in shown.items():
        print(f"  {name:<42s} {value:>14.6g} {unit_of[name]}")
    for name, ok in record["checks"].items():
        print(f"  check {name:<36s} {'ok' if ok else 'FAILED'}")
    print(f"  result file {result.relative_to(ROOT)}")

    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": shown[m["name"]], "unit": m["unit"]}
            for m in config[section]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
