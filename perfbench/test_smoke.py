"""Smoke tests for the benchmark itself, at the seconds-long smoke scale.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(cwd, workload, trace):
    cmd = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--scale", "smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(str(tmp_path), "static", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_tracer_patches_every_import_site_and_restores_it():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import neardup
        from spans import Tracer

        modules = ("pipeline", "clustering", "selection", "incremental")
        original = neardup.classifier.predict_rows
        tracer = Tracer()
        tracer.install()
        try:
            for name in modules:
                assert getattr(neardup, name).predict_rows is not original
        finally:
            tracer.uninstall()
        for name in modules:
            assert getattr(neardup, name).predict_rows is original
    finally:
        del sys.path[:2]
