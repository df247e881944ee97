"""so3embed benchmark: seeded CLI workloads, end-to-end and per-layer figures.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ingest|recover|certify|all --seed N \\
        --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout this file sits in.
Inputs are generated from ``--seed`` into ``.bench_work/``; a fresh worker
process (``worker.py``) runs passes of the workload through
``so3embed.cli.main`` for ``--seconds`` seconds and checks every output
against an oracle.  With ``--trace 0`` the run also times ``SETUP_RUNS``
extra fresh set-ups and reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics of a traced run and its overhead.

A human-readable report comes first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only if every operation passed its oracle.
The run record (versions, thread settings, host calibration, all figures)
goes to ``.bench_out/<workload>-trace<T>.json``, and a traced run writes its
spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 3  # extra set-up-only processes per untraced run; the worker adds one more sample
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One caller and a one-thread BLAS pool in the worker, unless the caller's
# environment says otherwise: on a 2-vCPU host an idle-spinning second
# OpenBLAS thread made pure-Python passes up to twice as slow, and erratic.
WORKER_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker_env() -> dict:
    env = dict(os.environ)
    for key, value in WORKER_THREADS.items():
        env.setdefault(key, value)
    return env


def _load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _calibrate() -> float:
    """Fixed pure-Python plus element-wise numpy work, median of five timings
    in seconds.  Recorded with every run and never gated: it tells host
    drift apart from a change in the program."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 200_000)
    times = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        for _ in range(20):
            x = np.sqrt(x * x + 1.0) - 1.0
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _record_env() -> dict:
    import numpy as np

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "worker_threads_env": {k: _worker_env().get(k) for k in THREAD_VARS},
        "calibration_s": _calibrate(),
    }


def _child(cfg: dict, workdir: Path, name: str) -> dict:
    cfg_path = workdir / f"{name}.json"
    result_path = workdir / f"{name}.result.json"
    cfg = dict(cfg, result=str(result_path))
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(cfg_path)], capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT, env=_worker_env())
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(f"worker {name} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _median_n(values):
    values = list(values)
    return statistics.median(values), len(values)


def end_to_end(workload: str, setup_samples: list, res: dict) -> dict:
    """End-to-end metrics: name -> {"value", "unit", "n"}; every timing is a median.

    ``setup_s`` and ``wall_s`` are scaled to the reference host speed (see
    ``worker.py``); ``setup_raw_s`` and ``wall_raw_s`` are the same spans as
    measured, and ``host_slowdown`` the median factor they were scaled by."""
    from workloads import STAGES

    passes = res["passes"]
    out = {}
    for name, key in (("setup_s", "setup_scaled_s"), ("setup_raw_s", "setup_s")):
        v, n = _median_n(s[key] for s in setup_samples)
        out[name] = {"value": v, "unit": "s", "n": n}
    for name, key in (("wall_s", "wall_scaled_s"), ("wall_raw_s", "wall_s")):
        v, n = _median_n(p[key] for p in passes)
        out[name] = {"value": v, "unit": "s", "n": n}
    v, n = _median_n(r for p in passes for r in p["slowdown"])
    out["host_slowdown"] = {"value": v, "unit": "ratio", "n": n}
    for i in range(2):
        v, n = _median_n(p["stage_s"][i] for p in passes)
        out[f"stage{i + 1}_s"] = {"value": v, "unit": "s", "n": n}
    out["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB", "n": 1}
    out["failed_frac"] = {"value": res["failed"] / max(1, res["attempted"]), "unit": "ratio", "n": res["attempted"]}
    # The workload-specific names of the two stages.
    for i, (_, name) in enumerate(STAGES[workload]):
        if name.endswith("_rows_per_s"):
            v, n = _median_n(p["stage_rows"][i] / p["stage_s"][i] for p in passes)
            out[name] = {"value": v, "unit": "rows/s", "n": n}
        else:
            out[name] = dict(out[f"stage{i + 1}_s"])
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Generate, run and check one workload; returns (all figures, record)."""
    import workloads

    tag = f"{workload}-s{seed}-t{trace}-p{os.getpid()}"
    workdir = ROOT / ".bench_work" / tag
    outdir = ROOT / ".bench_out"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        plan = workloads.generate(workload, seed, workdir)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        base = {"src": str(SRC), "plan": str(plan_path), "workdir": str(workdir), "seconds": seconds,
                "trace": trace, "spans": str(outdir / f"{workload}-spans.csv")}
        setup_samples = []
        if not trace:
            for i in range(SETUP_RUNS):
                setup_samples.append(_child(dict(base, mode="setup", trace=0), workdir, f"setup{i}"))
        res = _child(dict(base, mode="run"), workdir, "run")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        figures = dict(res["per_layer"])
    else:
        setup_samples.append(res)
        figures = end_to_end(workload, setup_samples, res)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "figures": figures,
        "passes": [{k: p[k] for k in ("wall_s", "wall_scaled_s", "cpu_s", "invocation_s", "slowdown", "stage_s",
                                      "stage_rows", "failed")} for p in res["passes"]],
        "exact_counts": res.get("exact_counts"),
        "stderr": res.get("stderr", []),
    }
    return figures, record


def _report(workload: str, figures: dict, record: dict) -> None:
    print(f"== {workload} (seed {record['seed']}, {record['seconds']} s, trace {record['trace']}) ==")
    print(f"attempted {record['attempted']}  failed {record['failed']}  "
          f"failed_frac {record['failed'] / max(1, record['attempted']):.3g}")
    for name in sorted(figures):
        f = figures[name]
        print(f"  {name:48s} {f['value']:>16.6g} {f['unit']:8s} n={f['n']}")
    if record.get("exact_counts") is not None:
        stable = all(c == record["exact_counts"][0] for c in record["exact_counts"])
        print(f"  exact counts repeat across {len(record['exact_counts'])} traced passes: {stable}")
    for text in record["stderr"]:
        print(f"  stderr: {text}")


def main(argv=None) -> int:
    bench = _load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "so3embed" / "__init__.py").is_file():
        print(f"error: no package source at {SRC.relative_to(ROOT)}/so3embed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = _record_env()
    print(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  nproc {env['nproc']}  "
          f"worker threads {env['worker_threads_env']}  calibration {env['calibration_s']:.4f} s")

    listed = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    attempted = failed = 0
    metrics = {}
    for workload in names if args.workload == "all" else [args.workload]:
        figures, record = run_workload(workload, args.seed, args.seconds, args.trace)
        record["env"] = env
        out = ROOT / ".bench_out" / f"{workload}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1), encoding="utf-8")
        _report(workload, figures, record)
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = "" if args.workload != "all" else f"{workload}."
        for name in listed:
            metrics[prefix + name] = {"value": figures[name]["value"], "unit": figures[name]["unit"]}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
