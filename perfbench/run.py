#!/usr/bin/env python3
"""folkclass benchmark: one command, three workloads, end-to-end and per-layer metrics.

Run from the root of a folkclass source tree (the package is imported from
./src, nothing is installed):

  python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from a separate traced run.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The lines before it
repeat every metric with its unit, the operation failure ratio, exact work
counts and the environment.  Full results and spans go to .perfbench/.
`--smoke` runs the same workloads at toy scale.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# single-process, single-threaded measurement; children inherit this
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from tracing import Tracer, durations, self_times  # noqa: E402  (after the env pin)

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("corpus", "sweep", "cli-pipeline")
SCHEMES = ("native", "one-vs-all", "one-vs-one")
LAYERS = ("generator", "folksonomy", "vectors", "representation", "weighting",
          "behavior", "svm", "committees", "harness", "cli")
SETUP_SAMPLES = 5      # set-ups timed for setup_s: one in-process, the rest fresh
CLI_COMMANDS = ("gen", "ingest", "stats", "behavior", "represent", "weight",
                "train", "eval", "committee")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "accuracy": "ratio"}

PER_LAYER = {
    "generator.gen_s": "s", "generator.assignments": "count",
    "generator.us_per_assignment": "us",
    "folksonomy.serialize_s": "s", "folksonomy.parse_s": "s", "folksonomy.ingest_s": "s",
    "folksonomy.stats_s": "s", "folksonomy.novelty_s": "s",
    "folksonomy.bookmarks": "count", "folksonomy.distinct_tags": "count",
    "vectors.vocab_s": "s", "vectors.write_s": "s", "vectors.read_s": "s",
    "vectors.nnz": "count", "vectors.vocab_size": "count",
    "representation.represent_s": "s", "representation.us_per_resource": "us",
    "representation.text_s": "s",
    "weighting.weight_s": "s", "weighting.correlate_s": "s",
    "behavior.profiles_s": "s", "behavior.split_s": "s",
    "svm.to_arrays_s": "s",
    **{f"svm.train_s.{s}": "s" for s in SCHEMES},
    **{f"svm.us_per_step.{s}": "us" for s in SCHEMES},
    **{f"svm.sgd_steps.{s}": "count" for s in SCHEMES},
    "svm.margins_s": "s", "svm.us_per_margin": "us", "svm.margin_evals": "count",
    **{f"svm.accuracy.{s}": "ratio" for s in SCHEMES},
    "svm.model_floats": "count",
    "committees.combine_s": "s", "committees.predict_s": "s", "committees.io_s": "s",
    **{f"harness.sweep_s.{s}": "s" for s in SCHEMES},
    "harness.sample_accept_ratio": "ratio",
    "cli.startup_s": "s", **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    "cli.processes": "count", "cli.bytes_written": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s", "trace.spans": "count",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure passes while another one fits in this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy-scale inputs")
    p.add_argument("--corrupt-margins", action="store_true",
                   help="cli-pipeline: feed committee a corrupted margins file")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(root: Path, args):
    """Import folkclass and build the workload's inputs; return (workload, seconds)."""
    start = perf_counter()
    import workloads
    workload = workloads.WORKLOADS[args.workload](root, args.seed, args.smoke)
    return workload, perf_counter() - start


def probe_setup(args, tr: Tracer) -> list[float]:
    """Time one set-up in a fresh process, as the first one was timed here."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    tr.attempted += 1
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode == 0:
            return [float(proc.stdout.split()[-1])]
    except (subprocess.TimeoutExpired, ValueError, IndexError):
        pass
    tr.fail("set-up probe failed")
    return []


def run_pass(tr: Tracer, pass_id: str, fn, *fn_args):
    """Call fn; a raised exception counts one failed operation and yields None."""
    tr.pass_id = pass_id
    try:
        return fn(*fn_args)
    except Exception:
        tr.fail(f"{fn.__name__} raised:\n{traceback.format_exc(limit=4)}")
        return None


def measure(workload, tr: Tracer, seconds: float) -> dict:
    """Untraced passes while another one fits in `seconds`; end-to-end numbers."""
    walls, accuracies = [], []
    start = perf_counter()
    while True:
        gc.collect()        # every pass starts from the same heap
        t0 = perf_counter()
        out = run_pass(tr, f"pass{len(walls)}", workload.job, tr)
        wall = perf_counter() - t0
        if out is None:
            break
        walls.append(wall)
        accuracy = run_pass(tr, f"pass{len(walls) - 1}", workload.check, out, tr)
        accuracies.append(accuracy if accuracy is not None else 0.0)
        out = None
        if not another_fits(start, len(walls), seconds):
            break
    return {"walls": walls, "accuracies": accuracies}


def another_fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more pass of the mean length so far ends within `seconds`."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / done <= seconds


def measure_traced(workload, tr: Tracer, seconds: float) -> dict:
    """Pairs of (untraced, traced) passes while another pair fits in `seconds`."""
    untraced, traced, per_pass = [], [], []
    start = perf_counter()
    while True:
        i = len(traced)
        tr.enabled = False
        gc.collect()
        t0 = perf_counter()
        out = run_pass(tr, f"pass{i}", workload.job, tr)
        wall = perf_counter() - t0
        if out is None or run_pass(tr, f"pass{i}", workload.check, out, tr) is None:
            break
        tr.enabled = True
        gc.collect()
        traced_wall = run_pass(tr, f"traced{i}", workload.traced, tr, out)
        tr.enabled = False
        out = None
        if traced_wall is None:
            break
        untraced.append(wall)
        traced.append(traced_wall)
        per_pass.append(layer_metrics(tr.pass_spans(f"traced{i}"), workload.counts))
        if not another_fits(start, len(traced), seconds):
            break
    metrics = {name: statistics.median(p.get(name, 0.0) for p in per_pass) if per_pass else 0.0
               for name in PER_LAYER}
    if traced:
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {"metrics": metrics, "untraced": untraced, "traced": traced}


def _per(total_s: float, n: float) -> float:
    return 1e6 * total_s / n if n else 0.0


def layer_metrics(spans: list[dict], counts: dict) -> dict:
    """Per-layer metrics of one traced pass, from its spans and exact counts."""
    m = {**durations(spans), **counts}
    calls: dict[str, int] = {}
    for s in spans:
        key = f"{s['layer']}.{s['name']}"
        calls[key] = calls.get(key, 0) + s["calls"]
    m["generator.us_per_assignment"] = _per(m.get("generator.gen_s", 0.0),
                                            m.get("generator.assignments", 0))
    m["representation.us_per_resource"] = _per(m.get("representation.represent_s", 0.0),
                                               calls.get("representation.represent_s", 0))
    for s in SCHEMES:
        m[f"svm.us_per_step.{s}"] = _per(m.get(f"svm.train_s.{s}", 0.0),
                                         m.get(f"svm.sgd_steps.{s}", 0))
    m["svm.us_per_margin"] = _per(m.get("svm.margins_s", 0.0), m.get("svm.margin_evals", 0))
    for layer, seconds in self_times(spans).items():
        m[f"{layer}.self_s"] = seconds
    m["trace.spans"] = len(spans)
    return m


def environment(root: Path, args, workload) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu": cpu,
        "workload": args.workload, "seed": args.seed, "seeds": workload.seeds,
        "smoke": args.smoke, "seconds": args.seconds, "trace": args.trace,
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD's commit, read from .git without running git; 'unknown' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "folkclass" / "__init__.py").is_file():
        print(f"perfbench: no folkclass source at {root / 'src' / 'folkclass'}; "
              "run from the root of a folkclass checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    if args.setup_probe:
        workload, seconds = set_up(root, args)
        workload.close()
        print(seconds)
        return 0

    workload, first_setup = set_up(root, args)
    tr = Tracer(enabled=False)
    try:
        workload.corrupt_margins = args.corrupt_margins
        if args.trace == 0:
            setups = [first_setup]
            for _ in range(SETUP_SAMPLES - 1):
                setups += probe_setup(args, tr)
            run = measure(workload, tr, args.seconds)
            walls = run["walls"]
            metrics = {
                "setup_s": statistics.median(setups),
                # the slowest pass: see README.md, "Run-to-run spread"
                "wall_s": max(walls) if walls else 0.0,
                "peak_rss_mb": workload.peak_rss_mb(),
                "accuracy": statistics.mean(run["accuracies"]) if walls else 0.0,
            }
            units = END_TO_END
            detail = {"setup_samples": setups, "wall_samples": walls,
                      "median_wall_s": statistics.median(walls) if walls else 0.0,
                      "passes": len(walls)}
        else:
            run = measure_traced(workload, tr, args.seconds)
            metrics, units = run["metrics"], PER_LAYER
            detail = {"untraced_wall_samples": run["untraced"],
                      "traced_wall_samples": run["traced"], "passes": len(run["traced"])}
        env = environment(root, args, workload)
    finally:
        workload.close()

    correct = tr.failed == 0 and detail["passes"] > 0
    out_dir = root / ".perfbench"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tr.write(out_dir / "spans" / f"{stem}.json")
    report(args, metrics, units, detail, workload.counts, env, tr, correct)
    result = {"correct": correct, "attempted": max(tr.attempted, 1), "failed": tr.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    (out_dir / "results" / f"{stem}.json").write_text(json.dumps(
        {**result, "env": env, "detail": detail, "counts": workload.counts,
         "failures": tr.failures}, indent=1))
    print(json.dumps(result))
    return 0


def report(args, metrics, units, detail, counts, env, tr, correct) -> None:
    """Human-readable lines: every metric with its unit, then context."""
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={detail['passes']} correct={correct}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>14.6g} {unit}")
    ratio = tr.failed / tr.attempted if tr.attempted else 0.0
    print(f"  {'ops_failed_ratio':34s} {ratio:>14.6g} ratio "
          f"({tr.failed} failed / {tr.attempted} attempted)")
    if args.trace:
        ranked = sorted(((metrics[f"{layer}.self_s"], layer) for layer in LAYERS), reverse=True)
        print("self time by layer: " + ", ".join(f"{l} {s:.3f}s" for s, l in ranked if s > 0))
    print("counts " + json.dumps(counts, sort_keys=True))
    print("detail " + json.dumps(detail))
    print("env " + json.dumps(env, sort_keys=True))
    for failure in tr.failures[:20]:
        print("failure " + failure.replace("\n", " | "))


if __name__ == "__main__":
    sys.exit(main())
