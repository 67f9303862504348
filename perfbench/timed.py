"""Timed phase of one benchmark run, in a process of its own.

run.py starts this script after set-up, so ``peak_rss_mb`` is the peak of
the timed phase alone and not of corpus generation, training or the store
prebuild. It reads set-up's directory, repeats whole passes until
``--seconds`` would be exceeded (at least one pass), checks the outputs and
writes a JSON summary to ``--out``.

With ``--trace 1`` it alternates untraced and traced passes instead: the
traced passes give the per-layer metrics, and the untraced ones the wall
time the tracing overhead is measured against.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402
from spans import Tracer, metric_names  # noqa: E402


def peak_rss_mb() -> float:
    """Peak RSS of this process's own address space, in MB (2^20 bytes).

    VmHWM is read first: getrusage's ru_maxrss also keeps the parent's RSS
    at the moment it started this process, which after set-up can exceed
    everything the timed phase uses.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _continue(start: float, passes: int, seconds: float) -> bool:
    """Start another pass only if one more at the mean pace still fits."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / passes <= seconds


def _pass_layers(workload: str, tracer: Tracer, res: workloads.PassResult) -> dict:
    out = tracer.metrics()
    if workload != "static":
        out["incremental.bytes_written"] = res.written
        out["incremental.store_files"] = res.output_files
        for provenance in ("nvo", "nvn_mapped", "nvn_new"):
            out[f"incremental.{provenance}"] = res.provenance[provenance]
        out["incremental.aug_labels"] = res.aug_labels
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--inputs", required=True, help="set-up directory")
    parser.add_argument("--work", required=True, help="scratch directory for pass outputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    inputs = workloads.Inputs(args.workload, args.inputs)
    out_dir = os.path.join(args.work, "out")
    untraced, traced, layers = [], [], []
    # Precision and recall come from the first pass, and every pass drops its
    # assignment once it is done, so the passes kept for the checks add the
    # same to peak RSS however many of them fit. The digest check below shows
    # that every later pass clustered alike.
    precision = recall = 0.0
    start = time.perf_counter()
    while True:
        res = workloads.run_pass(inputs, out_dir)
        untraced.append(res)
        if res.failed:
            break
        if len(untraced) == 1:
            precision, recall = workloads.quality(inputs, res.assignment)
        res.assignment = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                res = workloads.run_pass(inputs, out_dir, wrap_op=tracer.wrap)
            finally:
                tracer.uninstall()
            traced.append(res)
            res.assignment = None
            if res.failed:
                break
            layers.append(_pass_layers(args.workload, tracer, res))
        if not _continue(start, len(untraced), args.seconds):
            break
    peak_rss = peak_rss_mb()

    passes = untraced + traced
    last = passes[-1]
    checks = {}
    for res in passes:
        for name, ok in res.checks.items():
            checks[name] = checks.get(name, True) and ok
    failed = sum(r.failed for r in passes)
    if failed:
        precision = recall = 0.0
    else:
        checks["same_digest_every_pass"] = len({r.digest for r in passes}) == 1
        if args.workload != "static":
            checks.update(workloads.check_store(inputs, out_dir, last.digest))

    summary = {
        "attempted": sum(r.attempted for r in passes),
        "failed": failed,
        "errors": [e for r in passes for e in r.errors],
        "checks": checks,
        "passes": len(untraced),
        "op_seconds": [s for r in untraced for s in r.op_seconds],
        "images": inputs.images_per_pass * sum(1 for r in untraced if not r.failed),
        "peak_rss_mb": peak_rss,
        "store_mb": last.output_bytes / 2**20,
        "write_amp": last.written / inputs.input_bytes,
        "pairwise_precision": precision,
        "pairwise_recall": recall,
    }
    if layers:
        per_layer = {name: statistics.median(p[name] for p in layers) for name in metric_names()}
        per_layer["trace.untraced_wall_s"] = statistics.median(r.seconds for r in untraced)
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - per_layer["trace.untraced_wall_s"]
        summary["layers"] = per_layer
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
