"""neardup benchmark: seeded corpora through run_full, run_incremental and
ClusterStore, with end-to-end metrics and, when traced, per-layer spans.

    python3 perfbench/run.py --workload static --seed 8128 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout. Set-up (corpus generation, verifier
training, store prebuild) runs three times and ``setup_s`` is its median;
the timed phase then runs in a fresh process (perfbench/timed.py) so that
``peak_rss_mb`` belongs to it alone. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``. ``--workload all`` prints one such line per workload, each
with a ``workload`` key added. Workloads and metrics are described in
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
DEADLINE_S = 175  # a run must finish within 180 s

# BLAS and neardup's own pools use at most two threads, so a run measures
# the same thing on any machine with two cores or more.
THREADS = str(min(2, os.cpu_count() or 1))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NEARDUP_THREADS"):
    os.environ[var] = THREADS

END_TO_END_UNITS = {
    "setup_s": "s",
    "images_per_s": "img/s",
    "batch_s_p50": "s",
    "peak_rss_mb": "MB",
    "store_mb": "MB",
    "write_amp": "ratio",
    "pairwise_precision": "ratio",
    "pairwise_recall": "ratio",
    "output_ok": "bool",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_workload(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    """Set up, run the timed phase in its own process, check, and build the result."""
    import workloads
    from spans import metric_names, unit_of

    t_start = time.perf_counter()
    work = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    try:
        setups, digests = [], set()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            steps = workloads.setup(workload, seed, scale, inputs)
            setups.append((time.perf_counter() - t0, steps))
            digests.add(workloads.tree_digest(inputs))

        summary_path = os.path.join(work, "timed.json")
        cmd = [
            sys.executable, os.path.join(HERE, "timed.py"),
            "--workload", workload, "--inputs", inputs, "--work", work,
            "--seconds", str(seconds), "--trace", str(trace), "--out", summary_path,
        ]
        remaining = DEADLINE_S - (time.perf_counter() - t_start)
        proc = subprocess.Popen(cmd)
        try:
            code = proc.wait(timeout=max(1.0, remaining))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("timed phase did not finish before the deadline") from None
        if code != 0:
            raise BenchError(f"timed phase exited with code {code}")
        with open(summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it

    checks = dict(summary["checks"], setup_deterministic=len(digests) == 1)
    for name, ok in sorted(checks.items()):
        if not ok:
            print(f"perfbench: {workload}: check failed: {name}", file=sys.stderr)
    for error in summary["errors"]:
        print(f"perfbench: {workload}: {error}", file=sys.stderr)
    correct = summary["failed"] == 0 and all(checks.values())

    if trace:
        layers = summary.get("layers") or dict.fromkeys(metric_names(), 0.0)
        layers["corpus.generate_s"] = statistics.median(s.get("generate", 0.0) for _, s in setups)
        layers["classifier.train_s"] = statistics.median(s.get("train", 0.0) for _, s in setups)
        metrics = {name: {"value": layers[name], "unit": unit_of(name)} for name in metric_names()}
    else:
        ops = summary["op_seconds"]
        values = {
            "setup_s": statistics.median(t for t, _ in setups),
            # a ratio of totals, so a run that spans a change in machine speed
            # reports the blend rather than whichever speed most passes saw
            "images_per_s": summary["images"] / sum(ops) if ops else 0.0,
            "batch_s_p50": statistics.median(ops) if ops else 0.0,
            "peak_rss_mb": summary["peak_rss_mb"],
            "store_mb": summary["store_mb"],
            "write_amp": summary["write_amp"],
            "pairwise_precision": summary["pairwise_precision"],
            "pairwise_recall": summary["pairwise_recall"],
            "output_ok": 1.0 if correct else 0.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=8128)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", default="bench", help="corpus sizes: bench (default) or smoke"
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "neardup", "__init__.py")):
        print(f"perfbench: no neardup sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import neardup
    import workloads

    problem = None
    if os.path.dirname(os.path.abspath(neardup.__file__)) != os.path.join(SRC, "neardup"):
        problem = f"imported neardup from {neardup.__file__}, not from {SRC}"
    elif args.workload != "all" and args.workload not in workloads.WORKLOADS:
        problem = f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS} or all"
    elif args.scale not in workloads.SCALES:
        problem = f"unknown scale {args.scale!r}; choose from {sorted(workloads.SCALES)}"
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, args.scale)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
