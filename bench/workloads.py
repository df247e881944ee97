"""Seeded inputs, the CLI invocations of one pass, and the output oracles.

Each workload is a fixed list of ``so3embed`` CLI invocations (one *pass*)
over CSV files generated from the workload seed.  ``generate`` writes the
CSV files and returns the plan; the ground-truth orientations go into a
separate ``truth.npz`` that only the oracles read, never the program.

A plan is plain JSON so that the worker process can read it before it
imports numpy or the package (its set-up clock starts before those imports).
Every invocation names its stage: stage 1 and stage 2 are timed apart and
map to the workload-specific end-to-end metrics (see ``STAGES``).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

WORKLOADS = ("ingest", "recover", "certify")

# Stage names per workload, in the order (stage 1, stage 2), and the
# workload-specific metric each stage feeds.
STAGES = {
    "ingest": (("embed", "embed_rows_per_s"), ("distance", "distance_rows_per_s")),
    "recover": (("clean", "project_clean_rows_per_s"), ("noisy", "project_noisy_rows_per_s")),
    "certify": (("bounds", "bounds_s"), ("verify", "verify_s")),
}

# Row counts of one pass.  Orientation tables alternate between quaternion
# and ZYZ-degree columns.
INGEST_EMBED = (("C4", "quaternion", 2000), ("O", "euler", 2000), ("D6", "quaternion", 1000), ("Y", "euler", 3))
PAIRS_O = 2000  # pairs of O orientation-table rows, quaternion columns, --metric geodesic
PAIRS_O_EMBEDDED = 1000  # the first rows of that table again, --metric embedded
PAIRS_D6 = 2000  # independent pairs in ZYZ degrees, --metric geodesic
RECOVER_CLEAN = (("C4", 40), ("O", 40), ("D6", 40), ("Y", 2))
RECOVER_NOISY = (("C4", 8), ("O", 8), ("D6", 8))
NOISE_FRACTION = 0.05  # noise norm as a share of the embedding radius
CERTIFY_BOUNDS = ("C4", "O", "Y")
CERTIFY_PAIRS = 100_000
CERTIFY_SUITES = ("isometry", "mean", "rank")

# Criterion-9 targets for c_min; Y has none and is checked to lie in (0, 1].
C_MIN_TARGETS = {"C4": 0.452, "O": 0.604}

SETUP_GROUPS = {
    "ingest": ("C4", "O", "D6", "Y"),
    "recover": ("C4", "O", "D6", "Y"),
    "certify": ("C1", "C2", "C3", "C4", "C6", "D2", "D3", "D4", "D6", "T", "O", "Y"),
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# quaternion helpers of the oracle, independent of the package


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of (..., 4) arrays, scalar first."""
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def euler_zyz_to_quat(deg: np.ndarray) -> np.ndarray:
    """Quaternions of Rz(alpha) Ry(beta) Rz(gamma) for (N, 3) angles in degrees."""
    a, b, g = np.radians(deg).T
    zero = np.zeros_like(a)
    qa = np.stack([np.cos(a / 2), zero, zero, np.sin(a / 2)], axis=-1)
    qb = np.stack([np.cos(b / 2), zero, np.sin(b / 2), zero], axis=-1)
    qg = np.stack([np.cos(g / 2), zero, zero, np.sin(g / 2)], axis=-1)
    return quat_mul(quat_mul(qa, qb), qg)


def coset_angles(q1: np.ndarray, q2: np.ndarray, group_quats: np.ndarray) -> np.ndarray:
    """min over s in the group of the rotation angle between q1 s and q2, per row."""
    cands = quat_mul(q1[:, None, :], group_quats[None, :, :])  # (N, |S|, 4)
    best = np.abs(np.einsum("nsk,nk->ns", cands, q2)).argmax(axis=1)
    chosen = cands[np.arange(len(q1)), best]
    conj = q2 * np.array([1.0, -1.0, -1.0, -1.0])
    rel = quat_mul(conj, chosen)
    return 2.0 * np.arctan2(np.linalg.norm(rel[:, 1:], axis=1), np.abs(rel[:, 0]))


def _haar_quats(rng: np.random.Generator, n: int) -> np.ndarray:
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1)[:, None]


def _haar_euler_deg(rng: np.random.Generator, n: int) -> np.ndarray:
    alpha = rng.uniform(0.0, 360.0, n)
    beta = np.degrees(np.arccos(rng.uniform(-1.0, 1.0, n)))
    gamma = rng.uniform(0.0, 360.0, n)
    return np.column_stack([alpha, beta, gamma])


# ---------------------------------------------------------------------------
# CSV writing


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


_COLUMNS = {"quaternion": ("qw", "qx", "qy", "qz"), "euler": ("alpha", "beta", "gamma")}


def _orientations(rng, n: int, layout: str) -> tuple[np.ndarray, np.ndarray]:
    """(values as written, quaternions) of ``n`` Haar rotations.

    17 significant digits round-trip a double exactly, so the oracle's
    quaternions describe exactly the rotations the program reads."""
    if layout == "quaternion":
        q = _haar_quats(rng, n)
        return q, q
    deg = _haar_euler_deg(rng, n)
    return deg, euler_zyz_to_quat(deg)


def _table(path: Path, layout: str, *columns: np.ndarray) -> None:
    """Write ``id`` plus one block of orientation columns per array; a pair
    table gets the suffixes 1 and 2."""
    names = _COLUMNS[layout]
    header = ["id"]
    for k in range(len(columns)):
        header += [n + (str(k + 1) if len(columns) > 1 else "") for n in names]
    rows = ([i] + [_fmt(x) for block in blocks for x in block] for i, blocks in enumerate(zip(*columns)))
    _write_csv(path, header, rows)


def _invocation(stage: int, kind: str, group: str, argv, rows: int, **extra) -> dict:
    """One CLI call of a pass; ``rows`` is its operation count (CSV rows,
    one per bounds result, one per verify line)."""
    out = {"stage": stage, "kind": kind, "group": group, "argv": [str(a) for a in argv], "rows": rows}
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# generation


def generate(workload: str, seed: int, workdir: Path) -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``workdir``; return the plan.

    The plan holds the set-up groups, one warm-up invocation per command, the
    invocations of one pass, and the names of the output files the oracles
    read.  Ground truth is saved to ``workdir / "truth.npz"``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    root = np.random.SeedSequence(seed)
    gen = {"ingest": _gen_ingest, "recover": _gen_recover, "certify": _gen_certify}[workload]
    invocations, warmups, truth = gen(root, workdir)
    np.savez(workdir / "truth.npz", **truth)
    return {
        "workload": workload,
        "seed": seed,
        "setup_groups": list(SETUP_GROUPS[workload]),
        "warmups": warmups,
        "invocations": invocations,
    }


def _head_copy(src: Path, dst: Path, n_rows: int) -> None:
    """Copy the header and the first ``n_rows`` data rows of a table."""
    with open(src, encoding="utf-8") as fh:
        lines = [line for _, line in zip(range(n_rows + 1), fh)]
    dst.write_text("".join(lines), encoding="utf-8")


def _gen_ingest(root, wd: Path):
    rngs = iter(np.random.default_rng(s) for s in root.spawn(len(INGEST_EMBED) + 2))
    inv, truth = [], {}
    for group, layout, n in INGEST_EMBED:
        path = wd / f"orient_{group}.csv"
        written, truth[f"orient_{group}"] = _orientations(next(rngs), n, layout)
        _table(path, layout, written)
        argv = ["embed", "--group", group, "-i", path, "-o", wd / f"embed_{group}.csv"]
        if layout == "euler":
            argv.append("--degrees")
        inv.append(_invocation(1, "embed", group, argv, n, input=path.name, output=f"embed_{group}.csv"))
    # The O pair table pairs rows of the O orientation table, so embedded
    # distances can be checked against the embed output of the same pass.
    q_o = truth["orient_O"]
    rng = next(rngs)
    idx = np.column_stack([rng.integers(0, len(q_o), PAIRS_O), rng.integers(0, len(q_o), PAIRS_O)])
    truth["pairs_O_idx"] = idx
    _table(wd / "pairs_O.csv", "quaternion", q_o[idx[:, 0]], q_o[idx[:, 1]])
    _head_copy(wd / "pairs_O.csv", wd / "pairs_O_embedded.csv", PAIRS_O_EMBEDDED)
    rng = next(rngs)
    deg1, truth["pairs_D6_q1"] = _orientations(rng, PAIRS_D6, "euler")
    deg2, truth["pairs_D6_q2"] = _orientations(rng, PAIRS_D6, "euler")
    _table(wd / "pairs_D6.csv", "euler", deg1, deg2)
    for kind, group, table, n, flags in (("geodesic", "O", "pairs_O", PAIRS_O, []),
                                         ("geodesic", "D6", "pairs_D6", PAIRS_D6, ["--degrees"]),
                                         ("embedded", "O", "pairs_O_embedded", PAIRS_O_EMBEDDED, [])):
        out = f"dist_{kind}_{group}.csv"
        argv = ["distance", "--group", group, "--metric", kind, *flags, "-i", wd / f"{table}.csv", "-o", wd / out]
        inv.append(_invocation(2, kind, group, argv, n, input=f"{table}.csv", output=out))
    return inv, _warmups_from(inv, wd), truth


def _warmups_from(inv, wd: Path):
    """One single-row invocation per command (and distance metric), on the
    first table that command reads in the pass."""
    warm, seen = [], set()
    for item in inv:
        argv = list(item["argv"])
        key = (argv[0], argv[argv.index("--metric") + 1] if "--metric" in argv else "")
        if key in seen:
            continue
        seen.add(key)
        dst = wd / f"warm_{item['input']}"
        _head_copy(wd / item["input"], dst, 1)
        argv[argv.index("-i") + 1] = str(dst)
        argv[argv.index("-o") + 1] = str(wd / "warm_out.csv")
        warm.append(argv)
    return warm


def _gen_recover(root, wd: Path):
    from so3embed.embedding import embed, radius, registry_lookup
    from so3embed.so3 import Rotation

    rngs = iter(np.random.default_rng(s) for s in root.spawn(8))
    inv, truth = [], {}
    for stage, kind, table in ((1, "clean", RECOVER_CLEAN), (2, "noisy", RECOVER_NOISY)):
        for group, n in table:
            spec = registry_lookup(group)
            rng = next(rngs)
            q = _haar_quats(rng, n)
            exact = np.array([embed(spec, Rotation(r)).flatten() for r in q])
            rows = exact
            if kind == "noisy":
                noise = rng.standard_normal(rows.shape)
                noise *= (NOISE_FRACTION * radius(spec)) / np.linalg.norm(noise, axis=1)[:, None]
                rows = rows + noise
            name = f"{kind}_{group}"
            _write_csv(wd / f"{name}.csv", ["id"] + [f"e{j}" for j in range(rows.shape[1])],
                       ([i] + [_fmt(x) for x in r] for i, r in enumerate(rows)))
            truth[f"{name}_q"] = q
            truth[f"{name}_res"] = np.linalg.norm(rows - exact, axis=1)  # residual at the ground truth
            argv = ["project", "--group", group, "-i", wd / f"{name}.csv", "-o", wd / f"proj_{name}.csv"]
            inv.append(_invocation(stage, kind, group, argv, n, input=f"{name}.csv", output=f"proj_{name}.csv"))
    return inv, _warmups_from(inv, wd), truth


def _gen_certify(root, wd: Path):
    # The program receives no table here, only the seed for its own sampling.
    prog_seed = str(int(root.generate_state(1)[0]) % (2**31))
    inv = []
    for group in CERTIFY_BOUNDS:
        argv = ["bounds", "--group", group, "--pairs", CERTIFY_PAIRS, "--seed", prog_seed, "-o", wd / f"bounds_{group}.csv"]
        inv.append(_invocation(1, "bounds", group, argv, 1, output=f"bounds_{group}.csv"))
    for suite in CERTIFY_SUITES:
        argv = ["verify", "--suite", suite, "--seed", prog_seed]
        inv.append(_invocation(2, "verify", suite, argv, len(SETUP_GROUPS["certify"])))
    # One small bounds result without refinement, and one line of each suite.
    warm = [["bounds", "--group", CERTIFY_BOUNDS[0], "--pairs", "1000", "--no-refine", "--seed", prog_seed,
             "-o", str(wd / "warm_out.csv")]]
    warm += [["verify", "--suite", suite, "--group", "C4", "--samples", "1000", "--seed", prog_seed]
             for suite in CERTIFY_SUITES]
    return inv, warm, {}


# ---------------------------------------------------------------------------
# oracles


def read_rows(path: Path) -> dict[str, list[str]]:
    """Data rows of a CSV table keyed by their id cell (header dropped)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        return {row[0]: row for row in reader if row}


class Oracles:
    """Checks of one pass's outputs; ``check`` returns failures per invocation."""

    def __init__(self, plan: dict, workdir: Path):
        from so3embed.embedding import radius, registry_lookup
        from so3embed.so3 import group_elements

        self.plan = plan
        self.wd = workdir
        with np.load(workdir / "truth.npz") as z:
            self.truth = {k: z[k] for k in z.files}
        groups = {item["group"] for item in plan["invocations"] if item["kind"] != "verify"}
        self.group_quats = {g: np.array(group_elements(g).quaternions) for g in groups}
        self.radius = {g: radius(registry_lookup(g)) for g in groups}

    def check(self, item: dict, stdout: str, code: int) -> int:
        """Number of failed operations of one invocation (an operation is a row,
        a bounds result or a verify line)."""
        if code != 0:
            return item["rows"]
        kind = item["kind"]
        if kind == "verify":
            lines = [ln for ln in stdout.splitlines() if ln.strip()]
            bad = sum(1 for ln in lines if not ln.endswith(" PASS"))
            return bad + max(0, item["rows"] - len(lines))
        rows = read_rows(self.wd / item["output"])
        return getattr(self, "_check_" + kind)(item, rows)

    def _check_embed(self, item, rows) -> int:
        g, n = item["group"], item["rows"]
        r = self.radius[g]
        bad = 0
        for i in range(n):
            row = rows.get(str(i))
            if row is None:
                bad += 1
                continue
            try:
                v = np.array(row[1:], dtype=float)
            except ValueError:
                bad += 1
                continue
            if not abs(float(np.linalg.norm(v)) - r) <= 1e-9 * r:
                bad += 1
        return bad

    def _check_geodesic(self, item, rows) -> int:
        g, n = item["group"], item["rows"]
        if g == "O":
            q = self.truth["orient_O"]
            idx = self.truth["pairs_O_idx"][:n]
            q1, q2 = q[idx[:, 0]], q[idx[:, 1]]
        else:
            q1, q2 = self.truth[f"pairs_{g}_q1"][:n], self.truth[f"pairs_{g}_q2"][:n]
        want = coset_angles(q1, q2, self.group_quats[g])
        return _count_mismatch(rows, want, 1e-9)

    def _check_embedded(self, item, rows) -> int:
        n = item["rows"]
        emb = read_rows(self.wd / "embed_O.csv")
        idx = self.truth["pairs_O_idx"][:n]
        want = np.full(n, np.nan)  # a missing or unreadable embed row fails the pair
        for i, (a, b) in enumerate(idx):
            ra, rb = emb.get(str(int(a))), emb.get(str(int(b)))
            try:
                want[i] = float(np.linalg.norm(np.array(ra[1:], float) - np.array(rb[1:], float)))
            except (TypeError, ValueError):
                pass
        return _count_mismatch(rows, want, 1e-9)

    def _check_clean(self, item, rows) -> int:
        g, n = item["group"], item["rows"]
        got = _quats(rows, n)
        ok = ~np.isnan(got).any(axis=1)
        err = np.full(n, np.inf)
        if ok.any():
            truth = self.truth[f"clean_{g}_q"]
            err[ok] = coset_angles(got[ok], truth[ok], self.group_quats[g])
        return int(np.sum(~(err <= 1e-8)))

    def _check_noisy(self, item, rows) -> int:
        g, n = item["group"], item["rows"]
        limit = self.truth[f"noisy_{g}_res"] + 1e-12
        bad = 0
        for i in range(n):
            row = rows.get(str(i))
            try:
                ok = row is not None and row[7] == "true" and float(row[5]) <= limit[i]
            except ValueError:
                ok = False
            bad += 0 if ok else 1
        return bad

    def _check_bounds(self, item, rows) -> int:
        g = item["group"]
        row = next(iter(rows.values()), None)
        if row is None or row[0] != g:
            return 1
        try:
            c_min, c_max = float(row[2]), float(row[3])
        except ValueError:
            return 1
        ok = abs(c_max - 1.0) <= 0.005
        if g in C_MIN_TARGETS:
            ok = ok and abs(c_min - C_MIN_TARGETS[g]) <= 0.01
        else:
            ok = ok and 0.0 < c_min <= 1.0
        return 0 if ok else 1


def _quats(rows, n: int) -> np.ndarray:
    out = np.full((n, 4), np.nan)
    for i in range(n):
        row = rows.get(str(i))
        if row is None:
            continue
        try:
            out[i] = [float(x) for x in row[1:5]]
        except ValueError:
            pass
    return out


def _count_mismatch(rows, want: np.ndarray, tol: float) -> int:
    bad = 0
    for i, w in enumerate(want):
        row = rows.get(str(i))
        try:
            ok = row is not None and abs(float(row[1]) - w) <= tol
        except ValueError:
            ok = False
        bad += 0 if ok else 1
    return bad
