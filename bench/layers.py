"""Per-layer figures of a traced run.

Times come from the spans of the traced passes (median over passes of each
per-pass sum, percentiles over single calls); exact counts come from the
span counts and from the program's own output columns (``iterations``,
``converged``, ``refine_evaluations``).  A figure that a workload never
exercises reads 0 with a sample count of 0.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import so3embed.analysis as analysis
from so3embed.embedding import embed, radius, registry_lookup
from so3embed.so3 import Rotation
from so3embed.tensors import sym_coordinates

from spans import LAYERS, ROOT
from workloads import CERTIFY_PAIRS, read_rows

EMBED_GROUPS = ("C4", "O", "D6", "Y")
BOUNDS_GROUPS = ("C4", "O", "Y")
PROJECT_KINDS = ("clean", "noisy")


def dense_bytes_per_embed(group: str) -> int:
    """Computed, not measured: the dense bytes one ``embed`` call materializes,
    sum over components of |orbit_i| 3^alpha_i 8."""
    spec = registry_lookup(group)
    return int(sum(len(vecs) * 3**a * 8 for (vecs, _), a in zip(spec.orbits, spec.alpha)))


def objective_certified(group: str, target_row: np.ndarray, quat: np.ndarray) -> bool:
    """Whether <embed(q), T> reaches radius * |sym T| * (1 - 1e-10)."""
    spec = registry_lookup(group)
    comps, offset = [], 0
    for a in spec.alpha:
        comps.append(target_row[offset : offset + 3**a].reshape((3,) * a))
        offset += 3**a
    sym_norm = math.sqrt(sum(float(np.sum(sym_coordinates(t) ** 2)) for t in comps))
    value = float(embed(spec, Rotation(quat)).flatten() @ target_row)
    return value >= radius(spec) * sym_norm * (1.0 - 1e-10)


def _count_rows(path: Path) -> int:
    with open(path, encoding="utf-8", newline="") as fh:
        return max(0, sum(1 for _ in fh) - 1)


def pass_outputs(plan: dict, workdir: Path, calls) -> dict:
    """Exact output counts of one pass, read from what the CLI wrote."""
    out = {"bytes_out": 0, "rows_out": 0, "iterations": defaultdict(list), "converged": defaultdict(list),
           "certified": defaultdict(list), "refine_evaluations": {}}
    for item, (_, stdout, _) in zip(plan["invocations"], calls):
        out["bytes_out"] += len(stdout.encode("utf-8"))
        if item["kind"] == "verify":
            out["rows_out"] += sum(1 for ln in stdout.splitlines() if ln.strip())
            continue
        path = workdir / item["output"]
        out["bytes_out"] += path.stat().st_size
        out["rows_out"] += _count_rows(path)
        if item["kind"] in PROJECT_KINDS:
            rows = read_rows(path)
            targets = read_rows(workdir / item["input"])
            for key in sorted(rows, key=int):
                row = rows[key]
                out["iterations"][item["kind"]].append(int(row[6]))
                out["converged"][item["kind"]].append(row[7] == "true")
                quat = np.array(row[1:5], dtype=float)
                target = np.array(targets[key][1:], dtype=float)
                out["certified"][item["kind"]].append(objective_certified(item["group"], target, quat))
        elif item["kind"] == "bounds":
            row = next(iter(read_rows(path).values()))
            out["refine_evaluations"][item["group"]] = int(row[6])
    return out


def sample_only_bounds(plan: dict, tracer) -> dict:
    """One traced ``global_bounds(refine=False)`` call per bounds group, in seconds."""
    out = {}
    for item in plan["invocations"]:
        if item["kind"] != "bounds":
            continue
        argv = item["argv"]
        seed = int(argv[argv.index("--seed") + 1])
        spec = registry_lookup(item["group"])
        t = time.perf_counter()
        tracer.root("extra", f"sample:{item['group']}", lambda s=spec: analysis.global_bounds(
            s, n_pairs=CERTIFY_PAIRS, refine=False, seed=seed), name="analysis.global_bounds")
        out[item["group"]] = time.perf_counter() - t
    return out


def _inputs(plan: dict, workdir: Path):
    rows = size = 0
    for item in plan["invocations"]:
        if "input" in item:
            path = workdir / item["input"]
            rows += _count_rows(path)
            size += path.stat().st_size
    return rows, size


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def per_layer(plan: dict, workdir: Path, tracer, plain: list, traced: list, extra: dict) -> dict:
    """Every per-layer figure as name -> {"value", "unit", "n"}."""
    out: dict[str, dict] = {}

    def put(name, value, unit, n):
        out[name] = {"value": float(value), "unit": unit, "n": int(n)}

    spans = tracer.table()  # (name, layer, phase, tag, inclusive_s, self_s)
    phases = [rec["phase"] for rec in traced]
    npass = len(phases)
    in_pass = defaultdict(list)
    for row in spans:
        in_pass[row[2]].append(row)
    first = in_pass[phases[0]]

    def per_pass_sum(pred, field):
        return [sum(r[field] for r in in_pass[p] if pred(r)) for p in phases]

    def med_sum(pred, field):
        return statistics.median(per_pass_sum(pred, field))

    def calls(name):
        return sum(1 for r in first if r[0] == name)

    def durations(name, tag_pred=lambda tag: True):
        return [r[4] for p in phases for r in in_pass[p] if r[0] == name and tag_pred(r[3])]

    # layer totals
    for layer in LAYERS:
        put(f"{layer}.self_s", med_sum(lambda r, L=layer: r[1] == L, 5), "s", npass)
        put(f"{layer}.calls", sum(1 for r in first if r[1] == layer), "count", npass)

    # cli
    rows_in, bytes_in = _inputs(plan, workdir)
    outs = [rec["outputs"] for rec in traced]
    put("cli.self_s", med_sum(lambda r: r[0] == ROOT, 5), "s", npass)
    put("cli.rows_in", rows_in, "count", 1)
    put("cli.bytes_in", bytes_in, "B", 1)
    put("cli.bytes_out", outs[0]["bytes_out"], "B", npass)
    put("cli.bytes_out_per_row", outs[0]["bytes_out"] / max(1, outs[0]["rows_out"]), "B", outs[0]["rows_out"])

    # so3
    put("so3.rotation_ctor.calls", calls("so3.rotation_ctor"), "count", npass)
    put("so3.rotation_ctor.self_s", med_sum(lambda r: r[0] == "so3.rotation_ctor", 5), "s", npass)
    d = durations("so3.coset_distance")
    put("so3.coset_distance.calls", calls("so3.coset_distance"), "count", npass)
    put("so3.coset_distance.us_p50", 1e6 * _pct(d, 50), "us", len(d))
    put("so3.coset_distance.us_p99", 1e6 * _pct(d, 99), "us", len(d))
    d = durations("so3.fundamental_representative")
    put("so3.fundamental_representative.calls", calls("so3.fundamental_representative"), "count", npass)
    put("so3.fundamental_representative.us_p50", 1e6 * _pct(d, 50), "us", len(d))
    setup = in_pass["setup"]
    put("so3.group_elements.s", sum(r[4] for r in setup if r[0] == "so3.group_elements"), "s", 1)

    # embedding
    put("embedding.embed.calls", calls("embedding.embed"), "count", npass)
    put("embedding.embed.self_s", med_sum(lambda r: r[0] == "embedding.embed", 5), "s", npass)
    for g in EMBED_GROUPS:
        d = durations("embedding.embed", lambda tag, g=g: tag.split(":")[1] == g)
        put(f"embedding.embed.us_p50.{g}", 1e6 * _pct(d, 50), "us", len(d))
        put(f"embedding.embed.us_p99.{g}", 1e6 * _pct(d, 99), "us", len(d))
        put(f"embedding.dense_bytes_per_embed.{g}", dense_bytes_per_embed(g), "B", 1)
    d = durations("embedding.embedded_distance")
    put("embedding.embedded_distance.calls", calls("embedding.embedded_distance"), "count", npass)
    put("embedding.embedded_distance.us_p50", 1e6 * _pct(d, 50), "us", len(d))
    put("embedding.registry_lookup.s", sum(r[4] for r in setup if r[0] == "embedding.registry_lookup"), "s", 1)

    # tensors
    put("tensors.outer_power.calls", calls("tensors.outer_power"), "count", npass)
    put("tensors.outer_power.self_s", med_sum(lambda r: r[0] == "tensors.outer_power", 5), "s", npass)

    # projection
    put("projection.project.calls", calls("projection.project"), "count", npass)
    iters_total = sum(sum(v) for v in outs[0]["iterations"].values())
    put("projection.iterations.total", iters_total, "count", npass)
    n_rows = conv = 0
    for kind in PROJECT_KINDS:
        d = durations("projection.project", lambda tag, k=kind: tag.startswith(k + ":"))
        put(f"projection.project.ms_p50.{kind}", 1e3 * _pct(d, 50), "ms", len(d))
        put(f"projection.project.ms_p99.{kind}", 1e3 * _pct(d, 99), "ms", len(d))
        its = outs[0]["iterations"].get(kind, [])
        put(f"projection.iterations_per_row.mean.{kind}", statistics.fmean(its) if its else 0.0, "count", len(its))
        put(f"projection.iterations_per_row.p99.{kind}", _pct(its, 99), "count", len(its))
        cert = outs[0]["certified"].get(kind, [])
        put(f"projection.certified_frac.{kind}", sum(cert) / len(cert) if cert else 0.0, "ratio", len(cert))
        n_rows += len(its)
        conv += sum(outs[0]["converged"].get(kind, []))
    put("projection.converged_frac", conv / n_rows if n_rows else 0.0, "ratio", n_rows)
    proj_self = per_pass_sum(lambda r: r[0] == "projection.project", 5)
    per_iter = [s / iters_total for s in proj_self] if iters_total else [0.0]
    put("projection.us_per_iteration", 1e6 * statistics.median(per_iter), "us", npass if iters_total else 0)

    # analysis
    refine_total = 0
    for g in BOUNDS_GROUPS:
        d = durations("analysis.global_bounds", lambda tag, g=g: tag == f"bounds:{g}")
        total = statistics.median(d) if d else 0.0
        sample = extra.get(g, 0.0)
        evals = outs[0]["refine_evaluations"].get(g, 0)
        refine_total += evals
        put(f"analysis.global_bounds.s.{g}", total, "s", len(d))
        put(f"analysis.bounds.sample_s.{g}", sample, "s", 1 if g in extra else 0)
        put(f"analysis.bounds.refine_s.{g}", total - sample if d else 0.0, "s", len(d))
        put(f"analysis.bounds.refine_evaluations.{g}", evals, "count", 1 if d else 0)
        put(f"analysis.bounds.pairs_per_s.{g}", CERTIFY_PAIRS / sample if sample else 0.0, "1/s", 1 if sample else 0)
    put("analysis.bounds.refine_evaluations.total", refine_total, "count", npass)
    for fn in ("isometry_check", "mean_check", "rank_check"):
        put(f"analysis.{fn}.s", med_sum(lambda r, f=fn: r[0] == f"analysis.{f}", 4), "s", npass)

    # tracing overhead: median traced pass minus median untraced pass
    put("trace.overhead_s", statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain), "s", min(len(traced), len(plain)))
    return out


def exact_counts(tracer, traced: list) -> list[dict]:
    """Per traced pass, the figures that must repeat exactly: span counts by
    name, output bytes and rows, iteration counts and refine evaluations."""
    per_phase = defaultdict(lambda: defaultdict(int))
    for name, _, phase, _, _, _ in tracer.table():
        per_phase[phase][name] += 1
    out = []
    for rec in traced:
        o = rec["outputs"]
        out.append({
            "calls": dict(sorted(per_phase[rec["phase"]].items())),
            "bytes_out": o["bytes_out"],
            "rows_out": o["rows_out"],
            "iterations": {k: list(v) for k, v in sorted(o["iterations"].items())},
            "refine_evaluations": dict(sorted(o["refine_evaluations"].items())),
            "dense_bytes_per_embed": {g: dense_bytes_per_embed(g) for g in EMBED_GROUPS},
        })
    return out
