"""Benchmark of the ``kab`` package: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # every workload

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):
  spectra-scan   lowest-10 spectra of distinct (alpha, beta) pairs
  wkb-scan       WKB, Bohr-Sommerfeld and semiclassical wavefunctions
  evolve-stream  K_01 evolution of seeded profiles with both backends
  cli-cold       the README command lines, each a fresh CLI process

wkb-scan is not in BENCHMARK.json: its interpreter-bound run time swings by
up to a factor of two with the load of the shared 2-core machine it was
tuned on (run-to-run spread 0.22 and 0.30 over two sets of ten seeds), too
much to gate a change on.  It still runs here, and in ``--workload all``.

Each run starts one discarded warm-up process (so the file-system cache does
not inflate the first set-up time), then fresh worker processes, so the
package's caches start empty and peak memory belongs to one workload.

--trace 0 prints the end-to-end metrics: setup_s (median over three fresh
processes of the time from process start to the first timed request),
wall_s (the whole seeded request set), req_p50_s and peak_rss_mb.
--trace 1 runs the request set untraced and then traced, in two processes,
and prints the per-layer metrics of the traced pass plus
trace_overhead_s (traced wall_s minus untraced wall_s).

--seconds sizes the request set from the seed commit's per-request costs,
so a run measures about that long there and the same requests everywhere.
Every request is checked after the timed region; the error over its gate
(err_ratio) and the failed requests are reported next to the timings.  The
inputs, per-request checks, environment and metrics of each run are written
to perfbench/results/.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("spectra-scan", "wkb-scan", "evolve-stream", "cli-cold")
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170.0  # per workload, all its processes together
# numpy asks for transparent huge pages on large arrays; whether it gets them
# depends on the memory state of the whole machine, which made the peak
# resident memory of one input set vary by up to a quarter between runs.
# Workers and the CLI processes they start run with ordinary pages.
WORKER_ENV = {**os.environ, "NUMPY_MADVISE_HUGEPAGE": "0"}


class HarnessError(RuntimeError):
    pass


def worker(args, *extra) -> tuple[dict, float]:
    """Run one worker process; return its JSON result and start time.

    The worker gets its own process group, so that on timeout the CLI
    processes it started are stopped with it."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, args.deadline - t0))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise HarnessError(f"{args.workload} did not finish within {RUN_TIMEOUT_S:.0f} s") from exc
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{args.workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1]), t0


def percentile_report(lat: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any
    percentile at or above the median has."""
    n = len(lat)
    if n < 20:
        return f"n={n}; no tail percentile (needs >= 20 requests)"
    p = int(100 * (1 - 10 / n))
    k = max(0, min(n - 1, -(-p * n // 100) - 1))  # nearest rank
    return f"n={n}; p{p} = {sorted(lat)[k]:.4f} s"


def quality(results: list[dict]) -> dict:
    reqs = [r for res in results for r in res["requests"]]
    ratios = [r["err_ratio"] for r in reqs if r["err_ratio"] is not None]
    failed = sum(r["failed"] for r in reqs)
    return {
        "attempted": len(reqs),
        "failed": failed,
        "err_ratio": max(ratios) if ratios else None,
        "failed_frac": failed / len(reqs) if reqs else None,
    }


def run_workload(args) -> dict:
    """Run one workload as --trace asks; return the record written to disk."""
    worker(args, "--setup-only")  # discarded warm-up
    if args.trace:
        base, _ = worker(args)
        spans = RESULTS / f"{args.workload}-seed{args.seed}.spans.json"
        traced, _ = worker(args, "--trace", "--spans-out", str(spans))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
        metrics["trace_overhead_s"] = {"value": traced["wall_s"] - base["wall_s"], "unit": "s"}
        metrics["trace_unattributed_s"] = {"value": traced["unattributed_s"], "unit": "s"}
        passes = [base, traced]
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            probe, t0 = worker(args, "--setup-only")
            setups.append(probe["ready"] - t0)
        base, t0 = worker(args)
        setups.append(base["ready"] - t0)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": base["wall_s"], "unit": "s"},
            "req_p50_s": {"value": statistics.median(base["latencies"]), "unit": "s"},
            "peak_rss_mb": {"value": base["peak_rss_mb"], "unit": "MB"},
        }
        passes = [base]
    q = quality(passes)
    if args.trace:
        # a pass whose every request raised has no ratio; failed_frac shows it
        metrics["check.err_ratio"] = {"value": q["err_ratio"] or 0.0, "unit": "ratio"}
        metrics["check.failed_frac"] = {"value": q["failed_frac"], "unit": "ratio"}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": commit(),
        "env": base["env"],
        "quality": q,
        "latency_tail": percentile_report(base["latencies"]),
        "metrics": metrics,
        "passes": passes,
    }


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def summary(rec: dict) -> list[str]:
    q = rec["quality"]
    env = rec["env"]
    lines = [
        f"{rec['workload']} seed={rec['seed']} trace={int(rec['trace'])} "
        f"commit={rec['commit'][:12]} nproc={env['nproc']} "
        f"numpy={env['numpy']} scipy={env['scipy']} "
        f"blas={env['scipy_blas']['name']} {env['scipy_blas']['version']} "
        f"threads={env['scipy_blas']['threads']}"
    ]
    for name, m in rec["metrics"].items():
        note = ""
        if name == "req_p50_s":
            note = f"  ({rec['latency_tail']})"
        elif name == "setup_s":
            note = f"  (median of {SETUP_SAMPLES} fresh processes)"
        lines.append(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{note}")
    err = "n/a" if q["err_ratio"] is None else f"{q['err_ratio']:.4g}"
    lines.append(
        f"  err_ratio {err} (worst error over its gate; above 1 fails)  "
        f"failed_frac {q['failed']}/{q['attempted']}"
    )
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny problem sizes, for the harness test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "kab" / "__init__.py").is_file():
        print(f"perfbench: no kab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            deadline = time.monotonic() + RUN_TIMEOUT_S
            rec = run_workload(argparse.Namespace(**{**vars(args), "workload": name, "deadline": deadline}))
            tag = f"{name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
            (RESULTS / f"{tag}.json").write_text(json.dumps(rec, indent=1))
            records.append(rec)
            print("\n".join(summary(rec)), flush=True)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    single = args.workload != "all"
    metrics = {
        (k if single else f"{r['workload']}.{k}"): v for r in records for k, v in r["metrics"].items()
    }
    attempted = sum(r["quality"]["attempted"] for r in records)
    failed = sum(r["quality"]["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
