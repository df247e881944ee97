"""Self-test of the benchmark: exact counts repeat, and the oracles catch bad output.

Run from the root of the checkout:

    python3 -m pytest bench/test_bench.py

It takes about two minutes: every workload runs twice, traced, for one
second of passes each.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture
def workdir():
    path = BENCH.parent / ".bench_work" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_between_runs(workload):
    first = run.run_workload(workload, SEED, 1, 1)[1]
    second = run.run_workload(workload, SEED, 1, 1)[1]
    assert first["failed"] == 0 and second["failed"] == 0
    counts = first["exact_counts"] + second["exact_counts"]
    assert counts and all(c == counts[0] for c in counts)
    for name, fig in first["figures"].items():
        if fig["unit"] in ("count", "B"):
            assert second["figures"][name]["value"] == fig["value"], name


def _run_first(plan: dict, kind: str):
    """Run the first invocation of ``kind`` through the CLI; return (item, stdout, code)."""
    import contextlib
    import io

    from so3embed.cli import main

    item = next(i for i in plan["invocations"] if i["kind"] == kind)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(item["argv"])
    return item, out.getvalue(), code


def _perturb(path: Path, row_id: str, column: int, delta: float) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for i, line in enumerate(lines):
        cells = line.rstrip("\n").split(",")
        if cells[0] == row_id:
            cells[column] = repr(float(cells[column]) + delta)
            lines[i] = ",".join(cells) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def test_oracle_flags_perturbed_quaternion(workdir):
    plan = workloads.generate("recover", SEED, workdir)
    oracles = workloads.Oracles(plan, workdir)
    item, out, code = _run_first(plan, "clean")
    assert oracles.check(item, out, code) == 0
    _perturb(workdir / item["output"], "3", 2, 1e-3)
    assert oracles.check(item, out, code) == 1


def test_oracle_flags_perturbed_embedding_and_distance(workdir):
    plan = workloads.generate("ingest", SEED, workdir)
    oracles = workloads.Oracles(plan, workdir)
    for kind, column in (("embed", 5), ("geodesic", 1)):
        item, out, code = _run_first(plan, kind)
        assert oracles.check(item, out, code) == 0
        _perturb(workdir / item["output"], "11", column, 1e-3)
        assert oracles.check(item, out, code) == 1


def test_oracle_flags_failed_verify_line(workdir):
    plan = workloads.generate("certify", SEED, workdir)
    oracles = workloads.Oracles(plan, workdir)
    item = next(i for i in plan["invocations"] if i["kind"] == "verify")
    lines = [f"isometry {g}: max defect 1e-16 PASS" for g in workloads.SETUP_GROUPS["certify"]]
    assert oracles.check(item, "\n".join(lines), 0) == 0
    lines[4] = lines[4].replace("PASS", "FAIL")
    assert oracles.check(item, "\n".join(lines), 0) == 1
    assert oracles.check(item, "\n".join(lines[:-2]), 0) == 3
