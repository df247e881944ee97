import csv
import math
import subprocess
import sys

import numpy as np
import pytest

from so3embed.cli import main
from so3embed.embedding import embed, format_spec_document, registry_lookup
from so3embed.projection import project
from so3embed.so3 import Rotation, as_coset, coset_distance, random_rotation


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "so3embed.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=300,
    )


def read_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# embed


def test_embed_identity_c1_is_scaled_identity_matrix():
    out = run_cli("embed", "--group", "C1", stdin="id,qw,qx,qy,qz\nr0,1,0,0,0\n")
    assert out.returncode == 0
    header, rows = read_csv(out.stdout)
    assert header == ["id", "e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"]
    coords = np.array([float(x) for x in rows[0][1:]])
    want = np.eye(3).ravel() / math.sqrt(2.0)
    assert np.abs(coords - want).max() < 1e-16


def test_embed_empty_input_yields_header_only():
    out = run_cli("embed", "--group", "O", stdin="id,qw,qx,qy,qz\n")
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["id," + ",".join(f"e{i}" for i in range(81))]


def test_embed_malformed_row_exits_2_with_line_number():
    out = run_cli("embed", "--group", "C1", stdin="id,qw,qx,qy,qz\nr0,1,zero,0,0\n")
    assert out.returncode == 2
    assert "line 2" in out.stderr


def test_embed_rejects_denormalized_quaternion():
    out = run_cli("embed", "--group", "C1", stdin="id,qw,qx,qy,qz\nr0,1,0,0,0.5\n")
    assert out.returncode == 2
    assert "norm" in out.stderr


def test_embed_same_coset_representatives_agree():
    r = Rotation.from_axis_angle([1.0, 0.0, 0.0], 0.4)
    s = Rotation.from_axis_angle([1.0, 0.0, 0.0], math.pi / 2)  # C4 element
    lines = "id,qw,qx,qy,qz\n"
    for name, rot in (("a", r), ("b", r @ s)):
        q = rot.quat
        lines += f"{name}," + ",".join(repr(float(x)) for x in q) + "\n"
    out = run_cli("embed", "--group", "C4", stdin=lines)
    assert out.returncode == 0
    _, rows = read_csv(out.stdout)
    a = np.array([float(x) for x in rows[0][1:]])
    b = np.array([float(x) for x in rows[1][1:]])
    assert np.abs(a - b).max() < 1e-12


def test_embed_accepts_euler_angles_in_degrees():
    quat_in = "id,qw,qx,qy,qz\nr0,0.92387953251128674,0,0.38268343236508978,0\n"
    euler_in = "id,alpha,beta,gamma\nr0,0,45,0\n"
    a = run_cli("embed", "--group", "D2", stdin=quat_in)
    b = run_cli("embed", "--group", "D2", "--degrees", stdin=euler_in)
    assert a.returncode == 0 and b.returncode == 0
    _, rows_a = read_csv(a.stdout)
    _, rows_b = read_csv(b.stdout)
    va = np.array([float(x) for x in rows_a[0][1:]])
    vb = np.array([float(x) for x in rows_b[0][1:]])
    assert np.abs(va - vb).max() < 1e-15


@pytest.mark.parametrize(
    "argv,table",
    [
        (["embed"], "id,qw,qx,qy,qz\nr0,1,0,0,0\nr1,nan,0,0,0\n"),
        (["embed"], "id,alpha,beta,gamma\nr0,0,0,0\nr1,inf,1,0\n"),
        (["project"], "id," + ",".join(f"e{i}" for i in range(9)) + "\nr0,1,0,0,0,1,0,0,0,1\nr1,nan,0,0,0,1,0,0,0,1\n"),
        (["distance"], "id,qw1,qx1,qy1,qz1,qw2,qx2,qy2,qz2\np0,1,0,0,0,1,0,0,0\np1,1,0,0,0,nan,0,0,0\n"),
    ],
)
def test_non_finite_numbers_are_data_errors(argv, table, tmp_path, capsys):
    # every row is validated before the output is opened: a data error on a
    # later row creates no output file and leaves an existing one untouched
    src = tmp_path / "in.csv"
    src.write_text(table)
    out = tmp_path / "out.csv"
    code = main([*argv, "--group", "C1", "-i", str(src), "-o", str(out)])
    assert code == 2
    assert "line 3" in capsys.readouterr().err
    assert not out.exists()
    out.write_bytes(b"earlier output\n")
    assert main([*argv, "--group", "C1", "-i", str(src), "-o", str(out)]) == 2
    assert out.read_bytes() == b"earlier output\n"


def test_embed_euler_rejects_out_of_range_beta():
    out = run_cli("embed", "--group", "C1", stdin="id,alpha,beta,gamma\nr0,0,4.0,0\n")
    assert out.returncode == 2


def test_embed_with_spec_document(tmp_path):
    doc = tmp_path / "spec.txt"
    doc.write_text(format_spec_document(registry_lookup("D3")))
    out = run_cli("embed", "--spec", str(doc), stdin="id,qw,qx,qy,qz\nr0,1,0,0,0\n")
    assert out.returncode == 0
    want = embed(registry_lookup("D3"), Rotation.identity())
    _, rows = read_csv(out.stdout)
    got = np.array([float(x) for x in rows[0][1:]])
    assert np.abs(got - want.flatten()).max() < 1e-16


def test_embed_rejects_spec_rank_past_the_storage_limit(tmp_path, capsys):
    doc = tmp_path / "spec.txt"
    doc.write_text("group = C1\nu = 1 0 0\nalpha = 20\nbeta = 1\n")
    src = tmp_path / "in.csv"
    src.write_text("id,qw,qx,qy,qz\nr0,1,0,0,0\n")
    out = tmp_path / "out.csv"
    assert main(["embed", "--spec", str(doc), "-i", str(src), "-o", str(out)]) == 2
    assert "alpha" in capsys.readouterr().err
    assert not out.exists()


def test_embed_output_floats_round_trip_exactly():
    out = run_cli("embed", "--group", "C2", stdin="id,qw,qx,qy,qz\nr0,0.6,0.8,0,0\n")
    _, rows = read_csv(out.stdout)
    got = np.array([float(x) for x in rows[0][1:]])
    want = embed(registry_lookup("C2"), Rotation.from_quaternion([0.6, 0.8, 0.0, 0.0]))
    assert np.array_equal(got, want.flatten())


# ---------------------------------------------------------------------------
# project


def test_project_round_trip_through_files(tmp_path):
    rng = np.random.default_rng(4)
    spec = registry_lookup("O")
    rotations = [random_rotation(rng) for _ in range(5)]
    lines = "id,qw,qx,qy,qz\n"
    for i, r in enumerate(rotations):
        q = r.quat
        lines += f"r{i}," + ",".join(repr(float(x)) for x in q) + "\n"
    emb = run_cli("embed", "--group", "O", stdin=lines)
    assert emb.returncode == 0
    proj = run_cli("project", "--group", "O", "--seed", "0", stdin=emb.stdout)
    assert proj.returncode == 0
    header, rows = read_csv(proj.stdout)
    assert header == ["id", "qw", "qx", "qy", "qz", "residual", "iterations", "converged", "error"]
    for row, r in zip(rows, rotations):
        q = np.array([float(x) for x in row[1:5]])
        back = as_coset(Rotation.from_quaternion(q), spec.group)
        assert coset_distance(back, as_coset(r, spec.group)) < 1e-8
        assert row[7] == "true"
        assert row[8] == ""


def test_project_dimension_mismatch_names_counts():
    out = run_cli("project", "--group", "O", stdin="id,e0,e1\nr0,0.1,0.2\n")
    assert out.returncode == 2
    assert "81" in out.stderr and "2" in out.stderr


def test_project_c1_row_without_a_unique_alignment_climbs():
    # only e0 is set, so the rank-1 alignment has correlation rank 1 and no
    # unique solution; the row takes the multi-start ascent instead
    header = "id," + ",".join(f"e{i}" for i in range(9))
    out = run_cli("project", "--group", "C1", stdin=f"{header}\nr0,1,0,0,0,0,0,0,0,0\n")
    assert out.returncode == 0
    _, rows = read_csv(out.stdout)
    assert rows[0][7] == "true" and rows[0][8] == ""
    assert math.isfinite(float(rows[0][5]))


def test_project_zero_row_records_error_and_warns():
    header = "id," + ",".join(f"e{i}" for i in range(81))
    body = "z," + ",".join("0" for _ in range(81))
    out = run_cli("project", "--group", "O", stdin=f"{header}\n{body}\n")
    assert out.returncode == 0
    _, rows = read_csv(out.stdout)
    assert rows[0][0] == "z"
    assert rows[0][8] != ""
    assert "1" in out.stderr  # warning mentions the failed-row count


def test_project_zero_row_keeps_its_place_in_a_batch(tmp_path, capsys):
    # rows around a zero row come out as project() gives them one by one
    rng = np.random.default_rng(11)
    spec = registry_lookup("O")
    exact = embed(spec, random_rotation(rng)).flatten()
    noise = rng.normal(size=exact.shape)
    noisy = embed(spec, random_rotation(rng)).flatten() + 0.05 * noise / np.linalg.norm(noise)
    rows = {"a": exact, "z": np.zeros_like(exact), "b": noisy}
    src = tmp_path / "in.csv"
    src.write_text(
        "id," + ",".join(f"e{i}" for i in range(81)) + "\n"
        + "".join(f"{k}," + ",".join(repr(float(x)) for x in v) + "\n" for k, v in rows.items())
    )
    out = tmp_path / "out.csv"
    assert main(["project", "--group", "O", "--seed", "2", "-i", str(src), "-o", str(out)]) == 0
    assert "1 degenerate row" in capsys.readouterr().err
    _, got = read_csv(out.read_text())
    assert [row[0] for row in got] == ["a", "z", "b"]
    assert got[1][1:8] == [""] * 7 and got[1][8] != ""
    for row, key, tol in ((got[0], "a", 1e-12), (got[2], "b", 1e-8)):
        alone = project(spec, [rows[key].reshape(3, 3, 3, 3)], seed=2)
        q = np.array([float(x) for x in row[1:5]])
        assert coset_distance(as_coset(Rotation.from_quaternion(q), spec.group), alone.coset) < tol
        assert abs(float(row[5]) - alone.residual) <= 1e-12
        assert row[6:9] == [str(alone.iterations), "true" if alone.converged else "false", ""]


# ---------------------------------------------------------------------------
# distance


def test_distance_geodesic_c4_examples():
    stdin = (
        "id,qw1,qx1,qy1,qz1,qw2,qx2,qy2,qz2\n"
        "quarter,1,0,0,0,0.70710678118654757,0.70710678118654757,0,0\n"
        "eighth,1,0,0,0,0.92387953251128674,0.38268343236508978,0,0\n"
    )
    out = run_cli("distance", "--group", "C4", stdin=stdin)
    assert out.returncode == 0
    _, rows = read_csv(out.stdout)
    assert float(rows[0][1]) < 1e-12
    assert float(rows[1][1]) == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_distance_embedded_consistent_with_embed_rows(tmp_path):
    rng = np.random.default_rng(8)
    r1, r2 = random_rotation(rng), random_rotation(rng)
    q1, q2 = r1.quat, r2.quat
    pair = "id," + ",".join(f"{n}{i}" for i in (1, 2) for n in ("qw", "qx", "qy", "qz"))
    pair += "\np," + ",".join(repr(float(x)) for x in (*q1, *q2)) + "\n"
    dist = run_cli("distance", "--group", "T", "--metric", "embedded", stdin=pair)
    assert dist.returncode == 0
    _, rows = read_csv(dist.stdout)

    single = "id,qw,qx,qy,qz\nr1," + ",".join(repr(float(x)) for x in q1)
    single += "\nr2," + ",".join(repr(float(x)) for x in q2) + "\n"
    emb = run_cli("embed", "--group", "T", stdin=single)
    _, erows = read_csv(emb.stdout)
    v1 = np.array([float(x) for x in erows[0][1:]])
    v2 = np.array([float(x) for x in erows[1][1:]])
    assert float(rows[0][1]) == pytest.approx(float(np.linalg.norm(v1 - v2)), rel=1e-12)


# ---------------------------------------------------------------------------
# verify


def test_verify_binom_suite_passes():
    out = run_cli("verify", "--suite", "binom")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines and all(line.endswith("PASS") for line in lines)


def test_verify_rank_suite_octahedral_line():
    out = run_cli("verify", "--suite", "rank", "--group", "O")
    assert out.returncode == 0
    assert "rank O: rank 14 expected 14 PASS" in out.stdout


def test_verify_isometry_suite_reports_all_groups():
    out = run_cli("verify", "--suite", "isometry")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert len(lines) == 12
    assert all("PASS" in line for line in lines)


def test_verify_rejects_unknown_suite():
    out = run_cli("verify", "--suite", "everything")
    assert out.returncode == 1


# ---------------------------------------------------------------------------
# bounds and scatter


def test_bounds_csv_shape_and_determinism():
    a = run_cli("bounds", "--group", "C3", "--pairs", "20000", "--seed", "7")
    b = run_cli("bounds", "--group", "C3", "--pairs", "20000", "--seed", "7")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    header, rows = read_csv(a.stdout)
    assert header == ["group", "variant", "c_min", "c_max", "ratio", "pairs", "refine_evaluations"]
    assert rows[0][0] == "C3"
    c_min, c_max = float(rows[0][2]), float(rows[0][3])
    assert 0.0 < c_min < c_max < 1.01


def test_scatter_deterministic_and_positive():
    a = run_cli("scatter", "--group", "D3", "--pairs", "50", "--seed", "9")
    b = run_cli("scatter", "--group", "D3", "--pairs", "50", "--seed", "9")
    assert a.returncode == 0 and a.stdout == b.stdout
    header, rows = read_csv(a.stdout)
    assert header == ["geodesic", "embedded"]
    assert len(rows) == 50
    assert all(float(x) > 0 for row in rows for x in row)


def test_cli_import_loads_no_dependency_but_numpy():
    # numpy is the only runtime dependency: past numpy itself, a fresh import
    # of the CLI loads standard-library and so3embed modules only
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import so3embed.cli\n"
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'so3embed'}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# usage errors


def test_missing_group_and_spec_is_a_usage_error():
    out = run_cli("embed", stdin="id,qw,qx,qy,qz\n")
    assert out.returncode == 1


def test_unknown_group_is_a_usage_error():
    out = run_cli("embed", "--group", "C9", stdin="id,qw,qx,qy,qz\n")
    assert out.returncode == 1
    assert "C9" in out.stderr
