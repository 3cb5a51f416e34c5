"""Seeded benchmark of the tvasr loop; prints one JSON result as its last line.

    python3 benchmarks/run.py --workload walkthrough-toy --seed 1 \
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
half the rounds untraced and half with every tvasr function and nn layer
wrapped, and reports the per-layer metrics. Run from any directory of a
full checkout; the program is imported from its src/ only. Scratch files,
traces and result copies go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def limit_threads() -> int:
    """Cap BLAS and OpenMP threads at nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        cap = int(value) if value.isdigit() and int(value) > 0 else nproc
        os.environ[var] = str(min(cap, nproc))
    return nproc


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "tvasr" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'tvasr'} is missing; run from a full checkout")
    sys.path.insert(0, str(src))
    import tvasr
    if Path(tvasr.__file__).resolve().parent != (src / "tvasr").resolve():
        sys.exit(f"error: imported tvasr from {tvasr.__file__}, not {src}")


def _blas() -> dict:
    """Name and thread count of the BLAS that numpy loaded."""
    import ctypes
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def machine(nproc: int) -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tvasr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": _blas(), "thread_env": {v: os.environ[v] for v in THREAD_VARS},
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def run_rounds(workload, spans, seconds: float, min_rounds: int = 1) -> list:
    """Whole rounds until the next one would end past `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(workload.round(spans))
        last = time.perf_counter() - t0
        if (len(rounds) >= min_rounds
                and time.perf_counter() - start + last > seconds):
            return rounds


def median(values) -> float:
    import numpy as np
    return float(np.median(values))


def end_to_end(workload, seconds: float):
    from instrument import Spans
    setup_s = []
    for _ in range(workload.n_setups):
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
    # stage-probe samples come from both sides of the timed rounds, so one
    # burst of load on the machine does not set them
    probes = [workload.probe()]
    spans = Spans()
    spans.install(workload.light)
    try:
        rounds = run_rounds(workload, spans, seconds, workload.min_rounds)
    finally:
        spans.uninstall()
    probes.append(workload.probe())
    metrics = {key: median([p[key] for p in probes]) for key in probes[0]}
    for key in rounds[0]:
        if key != "ops":
            metrics[key] = median([r[key] for r in rounds])
    metrics.update(workload.finish(spans))
    metrics["setup_s"] = median(setup_s)
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, sum(r["ops"] for r in rounds), None


def traced(workload, seconds: float):
    from instrument import Spans, layer_metrics
    full = Spans()
    full.install()
    try:
        workload.setup()  # the stage probe feeds end-to-end metrics only
    finally:
        full.uninstall()
    light = Spans()
    light.install(workload.light)
    try:
        plain = run_rounds(workload, light, seconds / 2)
    finally:
        light.uninstall()
    workload.rewind()
    full.install()
    try:
        wrapped = run_rounds(workload, full, seconds / 2)
    finally:
        full.uninstall()
    overhead = (median([r["run_s"] for r in wrapped])
                - median([r["run_s"] for r in plain]))
    metrics, unexercised = layer_metrics(full, overhead)
    ops = sum(r["ops"] for r in plain + wrapped)
    return metrics, ops, (full, unexercised)


def main(argv=None) -> int:
    nproc = limit_threads()
    import_program()
    import checks
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks.self_test()
    info = machine(nproc)
    print("machine: " + json.dumps(info, sort_keys=True))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    correct, error, failed = True, None, 0
    try:
        if args.trace:
            metrics, attempted, trace = traced(workload, args.seconds)
        else:
            metrics, attempted, trace = end_to_end(workload, args.seconds)
    except checks.CheckError as exc:
        correct, error, metrics, trace = False, str(exc), {}, None
        attempted = failed = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if trace is not None:
        spans, unexercised = trace
        print("unexercised layers: " + json.dumps(unexercised))
        summary = spans.summary()
        for name in sorted(summary, key=lambda n: -summary[n]["self_s"]):
            row = summary[name]
            print(f"self {row['self_s']:9.4f}s total {row['total_s']:9.4f}s "
                  f"calls {row['calls']:7d}  {name}")
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        with open(OUT / "traces" / f"{tag}.json", "w", encoding="utf-8") as fh:
            json.dump({"machine": info, "summary": summary,
                       "spans": spans.dump()}, fh)
    if correct and set(metrics) != set(units):
        missing, extra = set(units) - set(metrics), set(metrics) - set(units)
        sys.exit(f"error: metrics disagree with BENCHMARK.json: "
                 f"missing {sorted(missing)}, unlisted {sorted(extra)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units if name in metrics},
    }
    if error:
        print(f"check failed: {error}")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"machine": info, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
