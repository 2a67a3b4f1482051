"""svt benchmark: desk-train, desk-sample and canonical workloads.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository; the library is imported
from ``src/`` and the shipped ``configs/`` are used.  BLAS is pinned to one
thread before numpy loads, as ``svt --threads 1`` does.

``--trace 0`` times the workload untraced and prints the end-to-end metrics;
``--trace 1`` runs a fixed amount of work three times, the second time with
every layer wrapped (see tracing.py), and prints the per-layer metrics with
the tracing overhead.  ``--workload all`` runs the three workloads one after the
other, each in its own process.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.  Spans and a run record go
to ``.perfbench-out/`` in the checkout.
"""

import argparse
import json
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("desk-train", "desk-sample", "canonical")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

# End-to-end metrics and their units, the same on every workload.  On
# desk-train / desk-sample / canonical they time:
#   op_ms_p50    a train step (8 slices) / a sampled pixel (slice time over its
#                unprimed pixels) / a canonical forward of one slice, median
#   items_per_s  slices trained / pixels sampled / canonical slices, per second
#   task_ms_p50  eval of one video / one sampled video / one analyze, median
#   setup_s      median of repeated set-ups: config, data, container, parameters
#   peak_rss_mb  peak resident set size of the run
END_TO_END = {"op_ms_p50": "ms", "items_per_s": "1/s", "task_ms_p50": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return p.parse_args(argv)


def check_layout():
    """The benchmark measures the checkout it sits in; refuse anything else."""
    needed = [os.path.join(ROOT, "src", "svt", "__init__.py")]
    needed += [os.path.join(ROOT, "configs", n) for n in ("sprites-rgb.cfg", "base-16x64x64.cfg")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        sys.exit(f"perfbench: not a checkout of svt, missing {', '.join(missing)}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import svt
    if os.path.dirname(os.path.abspath(svt.__file__)) != os.path.join(ROOT, "src", "svt"):
        sys.exit(f"perfbench: imported svt from {svt.__file__}, not from this checkout")


def run_record(args):
    """Where and on what a result was measured."""
    import hashlib
    import platform
    import subprocess

    import numpy as np

    digest = hashlib.sha256()
    for sub in ("src/svt", "configs"):
        for name in sorted(os.listdir(os.path.join(ROOT, sub))):
            path = os.path.join(ROOT, sub, name)
            if os.path.isfile(path):
                with open(path, "rb") as f:
                    digest.update(name.encode() + b"\0" + f.read())
    rev = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            rev = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": rev, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_one(args):
    """One workload in this process; returns (result JSON, text lines)."""
    import time

    import tracing as T
    import workloads as W

    fn = W.WORKLOADS[args.workload]
    lines = []
    if not args.trace:
        run = W.Run(ROOT, args.workload, args.seed, args.seconds, fixed=False)
        try:
            fn(run)
        finally:
            _cleanup(run)
        metrics = dict(run.e2e, setup_s=run.setup_s, peak_rss_mb=run.peak_rss_mb())
        units = END_TO_END
        for name, value, unit, note in run.named + [
                ("setup_s", run.setup_s, "s", ""), ("peak_rss_mb", metrics["peak_rss_mb"], "MB", ""),
                ("ops_failed_share", run.failed / max(run.attempted, 1), "1",
                 f"{run.failed} of {run.attempted} ops")]:
            lines.append(f"metric {name} = {value:.6g} {unit} {note}".rstrip())
        lines.append("named-metrics " + json.dumps({n: [v, u] for n, v, u, _ in run.named}))
        repeat_errors = []
    else:
        # The same fixed work three times: plain to warm caches and allocator
        # arenas, traced, plain.  Host speed drifts, so the overhead compares
        # the last two passes' rescaled median main-op times, not their totals.
        passes = []
        for tracer in (None, T.Tracer(), None):
            run = W.Run(ROOT, args.workload, args.seed, args.seconds, fixed=True, tracer=tracer)
            if tracer is not None:
                tracer.install()
            t = time.perf_counter()
            try:
                fn(run)
            finally:
                if tracer is not None:
                    tracer.uninstall()
                _cleanup(run)
            passes.append((run, time.perf_counter() - t))
        (warm, _), (run, traced_s), (plain, plain_s) = passes
        tracer = run.tracer
        overhead = 100.0 * (run.e2e["op_ms_p50"] / plain.e2e["op_ms_p50"] - 1.0)
        lines.append(f"trace overhead: main op median {overhead:+.1f}%; pass totals traced "
                     f"{traced_s:.3f} s, plain {plain_s:.3f} s")
        metrics, missing = T.layer_metrics(tracer, args.workload, run.units, overhead)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        lines.append(f"spans: {len(tracer.spans)} written to {spans_path}")
        if missing:
            sys.exit("perfbench: coverage guard: these layers recorded no calls on "
                     f"{args.workload}, a wrapper was bypassed: {', '.join(missing)}")
        repeat_errors = tracer.repeat_errors()
        for other in (warm, plain):
            run.errors += other.errors
            run.attempted += other.attempted
            run.failed += other.failed
        run.errors += repeat_errors
        units = dict(T.per_layer_names())
    lines += run.notes
    for err in run.errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    result = {
        "correct": run.failed == 0 and not repeat_errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    return result, lines, run.samples


def _cleanup(run):
    import shutil
    shutil.rmtree(run.tmp, ignore_errors=True)


def run_all(args):
    """Every workload in its own process (so peak RSS is per workload)."""
    import subprocess

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    setup_s, rss = 0.0, 0.0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.splitlines()
        if proc.returncode != 0 or not out:
            sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
        print(f"== {name}")
        print("\n".join(out[:-1]))
        result = json.loads(out[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        m = result["metrics"]
        if args.trace:
            total["metrics"].update({f"{name}/{k}": v for k, v in m.items()})
            continue
        named = json.loads(next(l for l in out if l.startswith("named-metrics "))[14:])
        total["metrics"].update({k: {"value": v, "unit": u} for k, (v, u) in named.items()})
        setup_s += m["setup_s"]["value"]
        rss = max(rss, m["peak_rss_mb"]["value"])
    if not args.trace:
        total["metrics"].update({
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "ops_failed_share": {"value": total["failed"] / max(total["attempted"], 1),
                                 "unit": "1"}})
    print(json.dumps(total))


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    check_layout()
    if args.workload == "all":
        run_all(args)
        return
    sys.path.insert(0, HERE)
    record = run_record(args)
    result, lines, samples = run_one(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as f:
        json.dump(dict(record, result=result, samples=samples), f, indent=1)
    print("\n".join(lines))
    print("run-record " + json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
