"""One workload process: set up, run the seeded request set, check it.

Started by ``run.py``, once per measured pass, so the package's caches start
empty and the peak resident memory belongs to this workload alone.  Prints
one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace] [--setup-only] [--smoke] [--spans-out FILE]
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    t0 = time.monotonic()
    sys.path.insert(0, str(SRC))
    import kab.cli  # noqa: F401  (the import users pay; timed as cli.import.s)

    import_s = time.monotonic() - t0
    sys.path.insert(0, str(HERE))
    import numpy as np

    import tracer as tr
    from workloads import SIZES, WORKLOADS

    wl = WORKLOADS[args.workload]
    size = SIZES["smoke" if args.smoke else "full"]
    requests = wl.plan(np.random.default_rng(args.seed), args.seconds, size)
    ctx = wl.setup(size)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = tr.Tracer() if args.trace else None
    if tracer and args.workload != "cli-cold":
        tracer.install()
    # cli-cold pays the import once per command; its traced pass sums those
    extra_s = {} if args.workload == "cli-cold" else {"cli.import.s": import_s}
    outputs, latencies = [], []
    start = time.monotonic()
    for rid, req in enumerate(requests):
        t = time.monotonic()
        out = run_one(wl, req, ctx, size, tracer, rid, extra_s)
        latencies.append(time.monotonic() - t)
        outputs.append(out)
    wall = time.monotonic() - start
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    records = []
    for req, out, lat in zip(requests, outputs, latencies):
        records.append({"input": req, "latency_s": lat, **check_one(wl, req, out, ctx, size)})

    result = {
        "ready": ready,
        "wall_s": wall,
        "latencies": latencies,
        "peak_rss_mb": peak_rss_mb,
        "requests": records,
        "env": environment(),
    }
    if tracer:
        dump = tracer.dump()
        _, rooted = tr.self_times(dump["spans"])
        result["layers"] = tr.layer_metrics(dump, extra_s)
        result["unattributed_s"] = wall - rooted
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(dump, fh)
    print(json.dumps(result))
    return 0


def run_one(wl, req, ctx, size, tracer, rid, extra_s):
    """Run one request (traced when a tracer is given); an exception is
    returned, not raised, so that it counts as a failed request."""
    with contextlib.nullcontext() if tracer is None else tracer.request(rid):
        try:
            if wl.name == "cli-cold" and tracer is not None:
                return run_cli_traced(wl, req, ctx, size, tracer, extra_s)
            return wl.run(req, ctx, size)
        except Exception:
            return {"exception": traceback.format_exc(limit=4)}


def run_cli_traced(wl, req, ctx, size, tracer, extra_s):
    """Run one CLI command under ``cli_traced.py``; its spans join this
    process's trace under a span for the command."""
    name = f"cli.{req['command']}"
    spans_file = HERE / "results" / f".cli-{os.getpid()}-{req['command']}.json"
    idx = tracer.open(name)
    try:
        out = wl.run(req, ctx, size, prefix=[sys.executable, str(HERE / "cli_traced.py"), str(spans_file)])
    finally:
        tracer.close(idx)
    span = tracer.spans[idx]
    extra_s[f"cli.{req['command']}.s"] = extra_s.get(f"cli.{req['command']}.s", 0.0) + span[2] - span[1]
    if spans_file.exists():
        part = json.loads(spans_file.read_text())
        spans_file.unlink()
        extra_s["cli.import.s"] = extra_s.get("cli.import.s", 0.0) + part.pop("import_s")
        tracer.adopt(part, idx)
    return out


def check_one(wl, req, out, ctx, size) -> dict:
    if "exception" in out:
        return {"failed": True, "error": out["exception"], "checks": {}, "err_ratio": None}
    try:
        checks = wl.check(req, out, ctx, size)
    except Exception:
        return {"failed": True, "error": "invalid output: " + traceback.format_exc(limit=4),
                "checks": {}, "err_ratio": None}
    ratio = max(err / gate for err, gate in checks.values())
    return {"failed": not ratio <= 1.0, "checks": checks, "err_ratio": ratio}


def environment() -> dict:
    """What the timings depend on: cores, BLAS and its threads, versions."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
    }
    for mod in (numpy, scipy):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
        libs = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for path in glob.glob(str(libs / "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    info["threads"] = getattr(lib, sym)()
                    break
        env[f"{mod.__name__}_blas"] = info
    return env


if __name__ == "__main__":
    sys.exit(main())
