"""One fresh benchmark process: set-up, then passes of a workload.

Run as ``python3 worker.py CONFIG.json``.  The set-up clock starts before the
package is imported and stops once the workload's specs and groups are
resolved and one warm-up row per command has run.  With ``mode = "setup"``
the process stops there; otherwise it runs passes of the workload through
``so3embed.cli.main`` until ``seconds`` have elapsed, checks every pass's
outputs against the oracles, and writes its result as JSON to ``result``.

With ``trace = 1`` the set-up runs traced, and untraced passes (the overhead
baseline) alternate with traced passes, from which the per-layer figures
are derived.

Host-speed probe.  The host this was built on changes speed by up to a
factor of two, within seconds and over minutes, so every timed span is also
reported at a reference host speed.  While a span runs, an interval timer
fires every ``PROBE_PERIOD_S`` and its signal handler times fixed reference
work in the main thread: a pure-Python loop and a run of small numpy calls,
the two kinds of work the package does.  One more timing is taken right
before and one right after the span.  The span's measured time, less the
time spent in the handler, times the nominal reference time over the mean
of those timings is its time at the reference speed.  Set-up is sampled the
same way, the probe starting before the set-up clock; its reference work is
the loop alone, since numpy is not imported yet.  Untraced runs only: a
traced run times everything as measured.
"""

import json
import signal
import sys
import time

PROBE_PERIOD_S = 0.05
REF_LOOPS = 10_000
REF_NUMPY_CALLS = 300
# Median timings of the two reference works on a 2-vCPU Intel Xeon VM at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6.  Fixed constants, so scaled times
# read as seconds at that host's usual speed.
REF_NOMINAL_S = {"python": 0.00085, "numpy": 0.0008}


def ref_python() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    t = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t


def ref_numpy() -> float:
    """Seconds taken by a fixed run of small numpy calls."""
    import numpy as np

    eye = np.eye(3)
    t = time.perf_counter()
    x = eye
    for _ in range(REF_NUMPY_CALLS):
        x = np.dot(x, eye) + 0.0
    return time.perf_counter() - t


class HostProbe:
    """Samples reference work during a timed span (see the module docstring)."""

    def __init__(self, kinds):
        self.refs = [{"python": ref_python, "numpy": ref_numpy}[k] for k in kinds]
        self.nominal = sum(REF_NOMINAL_S[k] for k in kinds)
        self.active = False
        signal.signal(signal.SIGALRM, self._sample)

    def _ref(self) -> float:
        return sum(ref() for ref in self.refs)

    def _sample(self, signum, frame):
        if self.active:
            self.inner.append(self._ref())

    def start(self) -> None:
        self.edges = [self._ref()]
        self.inner = []
        self.active = True
        self.t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> tuple[float, float, float]:
        """(measured seconds less probe time, the same at the reference speed,
        reference time as a share of nominal) of the span since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        # A signal still pending lands before this line, inside the span, or
        # after it, where it is ignored.
        self.active = False
        net = time.perf_counter() - self.t - sum(self.inner)
        self.edges.append(self._ref())
        refs = self.edges + self.inner
        slowdown = sum(refs) / len(refs) / self.nominal
        return net, net / slowdown, slowdown


with open(sys.argv[1], encoding="utf-8") as fh:
    CFG = json.load(fh)
SETUP_PROBE = None if CFG["trace"] else HostProbe(["python"])
if SETUP_PROBE is not None:
    SETUP_PROBE.start()
T0 = time.perf_counter() if SETUP_PROBE is None else SETUP_PROBE.t

import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def _call(tracer, phase, item_tag, main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            code = main(argv)
        else:
            code = tracer.root(phase, item_tag, main, argv)
    return code, out.getvalue(), err.getvalue()


def setup(cfg, plan, tracer):
    """Import the package, resolve every spec and group, run the warm-ups."""
    sys.path.insert(0, cfg["src"])
    import so3embed.cli as cli

    if tracer is not None:
        tracer.install()
    for name in plan["setup_groups"]:
        if tracer is not None:
            tracer.phase, tracer.tag = "setup", f"resolve:{name}"
        cli.registry_lookup(name)
    for argv in plan["warmups"]:
        code, _, err = _call(tracer, "setup", "warmup:" + argv[0], cli.main, argv)
        if code != 0:
            raise RuntimeError(f"warm-up {argv[:3]} exited {code}: {err.strip()}")
    return cli


def run_pass(plan, cli, tracer, probe, phase: str) -> dict:
    """One pass: every invocation of the plan, in order.  ``wall_s`` is the
    sum of the invocation times, and with the probe on, ``wall_scaled_s`` the
    sum of those times at the reference speed and ``slowdown`` the reference
    time of each invocation as a share of nominal."""
    stage_s = [0.0, 0.0]
    stage_rows = [0, 0]
    calls, inv_s, inv_scaled_s, slowdowns = [], [], [], []
    cpu = 0.0
    for item in plan["invocations"]:
        c = time.process_time()
        if probe is not None:
            probe.start()
        else:
            t = time.perf_counter()
        code, out, err = _call(tracer, phase, f"{item['kind']}:{item['group']}", cli.main, item["argv"])
        if probe is not None:
            dt, dt_scaled, slowdown = probe.stop()
            inv_scaled_s.append(dt_scaled)
            slowdowns.append(slowdown)
        else:
            dt = time.perf_counter() - t
        cpu += time.process_time() - c
        stage_s[item["stage"] - 1] += dt
        stage_rows[item["stage"] - 1] += item["rows"]
        calls.append((code, out, err))
        inv_s.append(dt)
    return {"phase": phase, "wall_s": sum(inv_s), "wall_scaled_s": sum(inv_scaled_s) if slowdowns else None,
            "cpu_s": cpu, "invocation_s": inv_s, "slowdown": slowdowns, "stage_s": stage_s,
            "stage_rows": stage_rows, "calls": calls}


def main():
    cfg = CFG
    plan = json.loads(Path(cfg["plan"]).read_text(encoding="utf-8"))
    tracer = None
    if cfg["trace"]:
        from spans import Tracer

        tracer = Tracer()
    cli = setup(cfg, plan, tracer)
    if SETUP_PROBE is not None:
        setup_s, setup_scaled_s, _ = SETUP_PROBE.stop()
    else:
        setup_s, setup_scaled_s = time.perf_counter() - T0, None
    result = {"setup_s": setup_s, "setup_scaled_s": setup_scaled_s}
    if cfg["mode"] == "setup":
        Path(cfg["result"]).write_text(json.dumps(result), encoding="utf-8")
        return

    import layers
    from workloads import Oracles

    if tracer is not None:
        tracer.restore()
    oracles = Oracles(plan, Path(cfg["workdir"]))
    seconds = float(cfg["seconds"])
    probe = None if tracer is not None else HostProbe(["python", "numpy"])
    attempted = failed = 0
    records = []
    traced_records = []
    # A cycle is one untraced pass, plus one traced pass in a traced run: the
    # two alternate, so a change in host speed falls on both sides of the
    # tracing overhead.  A new cycle starts while fewer than ``seconds`` have
    # elapsed (the oracle checks between passes included).
    cycle = [("plain", None)] if tracer is None else [("plain", None), ("pass", tracer)]
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        for prefix, active in cycle:
            traced = active is not None
            if traced:
                active.install()
            rec = run_pass(plan, cli, active, probe, f"{prefix}{len(traced_records if traced else records)}")
            # Oracles run outside the timed region, on every pass, and
            # untraced: the benchmark's own calls into the package are no spans.
            if traced:
                active.restore()
            bad = []
            for item, (code, out, err) in zip(plan["invocations"], rec["calls"]):
                bad.append(oracles.check(item, out, code))
                attempted += item["rows"]
            failed += sum(bad)
            rec["failed"] = bad
            if traced:
                rec["outputs"] = layers.pass_outputs(plan, Path(cfg["workdir"]), rec["calls"])
                traced_records.append(rec)
            else:
                records.append(rec)
            for call in rec.pop("calls"):
                if call[2].strip() and call[0] != 0:
                    result.setdefault("stderr", []).append(call[2].strip()[:500])
    if tracer is not None and plan["workload"] == "certify":
        tracer.install()
        result["extra"] = layers.sample_only_bounds(plan, tracer)
        tracer.restore()

    result.update(
        attempted=attempted,
        failed=failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        passes=records,
    )
    if tracer is not None:
        workdir = Path(cfg["workdir"])
        result["per_layer"] = layers.per_layer(plan, workdir, tracer, records, traced_records, result.get("extra", {}))
        result["exact_counts"] = layers.exact_counts(tracer, traced_records)
        tracer.write(Path(cfg["spans"]))
    Path(cfg["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
