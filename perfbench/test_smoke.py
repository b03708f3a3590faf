"""Smoke run of the benchmark harness at tiny problem sizes.

Not part of the package's test suite; run it from the repository root with

    python3 -m pytest perfbench/test_smoke.py

It checks the harness, not the package: at these sizes several accuracy
gates are expected to fail, so ``correct`` is not asserted.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402  (every workload, BENCHMARK.json's and wkb-scan)


def run_all(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, kind):
    out = run_all(trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool), name


def test_seed_alone_fixes_the_inputs():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import workloads

    for wl in workloads.WORKLOADS.values():
        def plan(seed):
            rng = np.random.default_rng(seed)
            return wl.plan(rng, SPEC["run_seconds"], workloads.SIZES["full"])

        assert plan(3) == plan(3), wl.name
        assert plan(3) != plan(4), wl.name


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wkb-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
