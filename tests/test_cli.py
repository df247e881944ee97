import contextlib
import csv
import importlib
import importlib.util
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from functools import lru_cache
from itertools import chain
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from so3embed import analysis, cli
from so3embed.analysis import distance_scatter
from so3embed.cli import _DataError, _blank, _read_rows, _table_rows, _write_rows, build_parser, main
from so3embed.embedding import (
    _BLOCK_ENTRIES,
    TABLE_GROUPS,
    class_values,
    dense_rows,
    embed,
    embedded_distance,
    format_spec_document,
    parse_spec_document,
    radius,
    registry_lookup,
)
from so3embed.projection import project
from so3embed.so3 import Coset, Rotation, as_coset, coset_distance, random_quaternions, random_rotation
from so3embed.so3 import normalized_quaternions, quaternions_to_matrices
from so3embed.tensors import tuple_norm


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


def quaternion_table(quats) -> str:
    rows = (f"r{i}," + ",".join(map(repr, map(float, q))) + "\n" for i, q in enumerate(quats))
    return "id,qw,qx,qy,qz\n" + "".join(rows)


# A Y row holds 59,049 entries, so a few dozen rows span several row blocks.
Y_BLOCK_ROWS = _BLOCK_ENTRIES // registry_lookup("Y").ambient_dimension


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


@pytest.mark.parametrize(
    "argv,table",
    [
        (["embed", "--degrees"], "id,alpha,beta,gamma\nr0,0,0,0\nr1,1_0,1,0\n"),
        (["project"], "id," + ",".join(f"e{i}" for i in range(9)) + "\nr0,1,0,0,0,1,0,0,0,1\nr1,1_0,0,0,0,1,0,0,0,1\n"),
        (["distance", "--degrees"], "id,alpha1,beta1,gamma1,alpha2,beta2,gamma2\np0,0,0,0,0,0,0\np1,0,0,0,1_0,0,0\n"),
    ],
)
def test_digit_underscores_are_not_numbers(argv, table, tmp_path, capsys):
    # Python's float reads 1_0 as 10, a valid value in every one of these
    # rows; the number grammar has no underscores, so the cell is named and
    # no output is written
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text(table)
    assert main([*argv, "--group", "C1", "-i", str(src), "-o", str(out)]) == 2
    assert "line 3: '1_0' is not a number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "row,message",
    [
        ("r, 0.5 ,1e308,1e308", None),  # a padded cell; finite cells whose sum overflows
        ("r,1,2_5,3", "line 4: '2_5' is not a number"),
        ("r,1,\u0662,3", "line 4: '\u0662' is not a number"),  # an Arabic-Indic 2, which float reads as 2.0
        ("r,1,x,inf", "line 4: 'x' is not a number"),
        ("r,1,inf,x", "line 4: 'inf' is not a finite number"),
        ("r,nan,2", "line 4: 'nan' is not a finite number"),
        ("r,1,2", "line 4: expected at least 4 columns, found 3"),
        ("r,1,2,3,", None),
    ],
)
def test_read_rows_converts_a_row_at_once_and_names_its_first_bad_cell(row, message):
    reader = _table_rows(io.StringIO("id,a,b,c\nr0,1,2,3\n\n" + row + "\n"))
    next(reader)
    if message is not None:
        with pytest.raises(_DataError) as err:
            _read_rows(reader, [1, 2, 3], 0)
        assert str(err.value) == message
        return
    vals, ids, lines = _read_rows(reader, [1, 2, 3], 0)
    want = [float(c) for c in row.split(",")[1:4]]
    assert vals.tolist() == [[1.0, 2.0, 3.0], want] and ids == ["r0", "r"] and lines == [2, 4]


def test_read_rows_holds_the_table_once():
    # 3,000 rows of 81 floats, an O target table of 1.94 MB.  Kept as one array
    # per row and then stacked into a second table, the rows gave a tracemalloc
    # peak of 2.59 times the table's bytes.  Written straight into one table
    # that grows in place by a quarter, the peak is its last capacity, the ids
    # and one row in flight: 1.29 times measured.  The bound of 1.5 times sits
    # well below the stacked 2.59.
    floats = np.random.default_rng(8).standard_normal((3000, 81))
    text = "".join(f"r{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(floats.tolist()))
    reader = _table_rows(io.StringIO(text))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        vals, ids, lines = _read_rows(reader, list(range(1, 82)), 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.array_equal(vals, floats) and vals.flags.c_contiguous
    assert ids[-1] == "r2999" and lines[-1] == 3000
    assert peak <= 1.5 * vals.nbytes


# Cells as csv writes them: plain text, or quoted with commas, doubled quotes
# and line breaks inside; rows ended by LF, CRLF or a bare CR, the last one
# possibly by nothing; blank and whitespace-only lines among them.
_PLAIN_CELLS = st.text(alphabet="ab1.- \t", max_size=4)
_QUOTED_CELLS = st.text(alphabet='ab1 ,"\r\n', max_size=5).map(lambda t: '"' + t.replace('"', '""') + '"')
_LINES = st.one_of(
    st.lists(st.one_of(_PLAIN_CELLS, _QUOTED_CELLS), min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", " ", " \t "]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.booleans(),
    st.lists(st.tuples(_LINES, st.sampled_from(["\n", "\r\n", "\r"])), max_size=6),
    st.sampled_from(["", "\n", "\r\n", "\r"]),
    st.text(alphabet='a1,"\r\n \ufeff', max_size=12),
)
def test_table_rows_yield_the_cells_and_line_numbers_of_csv_reader(bom, lines, last, noise):
    text = "\ufeff" * bom + "".join(a + b for a, b in lines) + last + noise
    reader = csv.reader(io.StringIO(text, newline=""))
    assert list(_table_rows(io.StringIO(text, newline=""))) == [(reader.line_num, cells) for cells in reader]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["", " ", "\t", " \u3000 ", "a", " 1 "]), st.lists(st.text(alphabet=" \t\r\n\u00a0\u2028a,1", max_size=3), max_size=4))
def test_blank_rows_are_those_of_whitespace_cells(first, rest):
    # decided on the first cell unless it is blank; the cells are then joined
    cells = [first, *rest]
    assert _blank(cells) == all(not c.strip() for c in cells)
    assert _blank([]) and _blank([""]) and not _blank(["", " ", "x"])


@pytest.mark.parametrize(
    "cell,code,message",
    [
        ("0" * 200_000, 0, None),  # an unquoted cell is split, not read by csv, and this one is a number
        ("0" * 199_999 + "x", 2, "line 2: '" + "0" * 40 + "'... (200000 characters) is not a number"),
        ('"' + "0" * 200_000 + '"', 2, "line 2: field larger than field limit (131072)"),
    ],
    ids=["unquoted-number", "unquoted-non-number", "quoted"],
)
def test_a_cell_past_the_csv_field_limit_is_read_or_a_data_error(cell, code, message, tmp_path, capsys):
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("id,qw,qx,qy,qz\nr0,1,0,0," + cell + "\n")
    assert main(["embed", "--group", "C1", "-i", str(src), "-o", str(out)]) == code
    if message is None:
        src.write_text("id,qw,qx,qy,qz\nr0,1,0,0,0\n")
        assert main(["embed", "--group", "C1", "-i", str(src), "-o", str(tmp_path / "short.csv")]) == 0
        assert out.read_bytes() == (tmp_path / "short.csv").read_bytes()
        return
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "rows,message",
    [
        # 1,500 rows of 3 cells span several blocks; the bad cell sits past them
        ([f"r{i},1,2,3" for i in range(1500)] + ["r,1,2,x", "r,y,2,3"], "line 1502: 'x' is not a number"),
        (["r0,1,2,3", "r1,1,x,3", "r2,1", "r3,z,2,3"], "line 3: 'x' is not a number"),  # then a short row
        (["r0,1,2,3", "r1,1,2", "r2,1,x,3"], "line 3: expected at least 4 columns, found 3"),
    ],
)
def test_read_rows_names_the_first_bad_row_of_any_block(rows, message):
    reader = _table_rows(io.StringIO("id,a,b,c\n" + "\n".join(rows) + "\n"))
    next(reader)
    with pytest.raises(_DataError) as err:
        _read_rows(reader, [1, 2, 3], 0)
    assert str(err.value) == message


def test_read_rows_takes_each_id_after_its_row_converts():
    # the id sits past the floats: a row without it fails before a later bad number
    reader = _table_rows(io.StringIO("a,b,id\n1,2\n1,x,r\n"))
    next(reader)
    with pytest.raises(_DataError) as err:
        _read_rows(reader, [0, 1], 2)
    assert str(err.value) == "line 2: expected at least 3 columns, found 2"


def _spy_paths(monkeypatch) -> list[str]:
    """The conversion of every row or block ``_read_rows`` converts at once, in
    order: "layout" (a raw row that ``_layout_floats`` accepts) or "cell"
    (``_cell_floats``)."""
    paths = []

    def layout(text, alpha, out, check=cli._layout_floats):
        ident = check(text, alpha, out)
        if ident is not None:
            paths.append("layout")
        return ident

    def cell(picked, size, convert=cli._cell_floats):
        paths.append("cell")
        return convert(picked, size)

    monkeypatch.setattr(cli, "_layout_floats", layout)
    monkeypatch.setattr(cli, "_cell_floats", cell)
    return paths


def _noisy_d6_table() -> str:
    # the recover noisy shape: 8 embedded D6 rows of 738 cells, each entry
    # moved by Gaussian noise, so no row repeats a cell
    spec = registry_lookup("D6")
    rows = dense_rows(spec, class_values(spec, quaternions_to_matrices(random_quaternions(np.random.default_rng(15), 8))))
    rows += 0.05 * radius(spec) / math.sqrt(rows.shape[1]) * np.random.default_rng(16).standard_normal(rows.shape)
    text = "id," + ",".join(f"e{i}" for i in range(rows.shape[1])) + "\n"
    return text + "".join(f"r{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(rows.tolist()))


@pytest.mark.parametrize("repeated", [True, False])
def test_read_rows_gives_the_bits_of_float_per_cell(repeated, tmp_path, monkeypatch):
    # two clean Y rows repeat 66 distinct class values over 59,049 cells and
    # pass the class-layout check, one class text converted once; random rows,
    # with a signed zero beside each zero in the first row, are converted cell
    # by cell, and noisy D6 rows of 738 cells fail the check and are too
    if repeated:
        src, out = tmp_path / "q.csv", tmp_path / "e.csv"
        src.write_text(quaternion_table(random_quaternions(np.random.default_rng(12), 2)))
        assert main(["embed", "--group", "Y", "-i", str(src), "-o", str(out)]) == 0
        texts = [(out.read_text(), registry_lookup("Y").alpha)]
    else:
        floats = np.random.default_rng(13).standard_normal((300, 40)) * 10.0 ** np.arange(-150, 150)[:, None]
        floats[0, :4] = [0.0, -0.0, 0.0, -0.0]
        text = "id," + ",".join(f"e{i}" for i in range(40)) + "\n"
        texts = [(text + "".join(f"r{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(floats.tolist())), None),
                 (_noisy_d6_table(), registry_lookup("D6").alpha)]
    paths = _spy_paths(monkeypatch)
    for text, alpha in texts:
        paths.clear()
        reader = _table_rows(io.StringIO(text), raw=alpha is not None)
        width = cli._id_and_width(next(reader)[1])[1] - 1
        vals, ids, lines = _read_rows(reader, range(1, width + 1), 0, alpha)
        want = np.array([[float(c) for c in line.split(",")[1:]] for line in text.splitlines()[1:]])
        assert vals.shape == want.shape and vals.tobytes() == want.tobytes()
        distinct = len(set(map(repr, vals.ravel().tolist())))
        if repeated:
            assert distinct < 200 and paths == ["layout"] * 2
        elif width == 40:
            assert distinct == vals.size - 2 and paths == ["cell"] * 25
        else:
            assert distinct == vals.size and paths == ["cell"] * 8


def _read_outcome(text: str, cols, idc: int, force: str | None = None, block_cells: int = 8, alpha=None):
    """What ``_read_rows`` gives on the rows of ``text`` after its header, in
    blocks of ``block_cells`` cells, each row read raw and checked against
    the class layout of ranks ``alpha`` if given: the table's bytes and shape,
    the ids and the line numbers, or the data error's message.  ``force``
    "row" takes every conversion at once away, so each row goes through
    ``_row_floats`` alone, the number grammar cell by cell."""
    patches = [mock.patch.object(cli, "_BLOCK_CELLS", block_cells)]
    if force == "row":
        patches.append(mock.patch.object(cli, "_block_floats", lambda block, pick, out: False))
        patches.append(mock.patch.object(cli, "_layout_floats", lambda text, alpha, out: None))
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        reader = _table_rows(io.StringIO(text), raw=alpha is not None)
        next(reader)
        try:
            vals, ids, lines = _read_rows(reader, cols, idc, alpha)
        except _DataError as exc:
            return str(exc)
        return vals.tobytes(), vals.shape, ids, lines


# Cells for the conversion paths: texts that repeat (a few numbers, padded,
# signed zeros, two 1e308 whose sum overflows), texts that do not (any
# float), and texts that Python's float reads but the grammar does not, or
# that are no finite number.
_REPEATED_CELLS = st.sampled_from(["0", "-0", "0.0", "-0.0", "1", " 1 ", "\t2.5", "1e308", "1e308 ", "-1e-320", "0.1"])
_UNIQUE_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_BAD_CELLS = st.sampled_from(["1_0", "\u0661", "nan", "-nan", "inf", "-inf", "1e999", "x", "", " ", "\u00a01", "1e5_0"])
_CONVERSION_LAYOUTS = [("id,a,b,c", range(1, 4), 0), ("id,a,b,c", [1, 2, 3], 0), ("a,id,b,c", [0, 2, 3], 1)]
_CONVERSION_TABLES = (
    st.sampled_from(_CONVERSION_LAYOUTS),
    st.lists(st.lists(st.one_of(_REPEATED_CELLS, _UNIQUE_CELLS), min_size=3, max_size=3), min_size=1, max_size=9),
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2), st.one_of(_BAD_CELLS, st.just(None))), max_size=2),
    st.integers(1, 16),
)


def _assert_every_conversion_path_agrees(layout, rows, edits, block_cells):
    # cell by cell, through the layout check, and with no conversion at once
    # at all, the same floats, ids and lines come out, or the same data error.
    # An edit puts a bad cell into a row or cuts the row short.
    header, cols, idc = layout
    for at, col, cell in edits:
        if at < len(rows):
            rows[at] = rows[at][:col] + ([cell] + rows[at][col + 1 :] if cell is not None else [])
    lines = []
    for i, cells in enumerate(rows):
        cells = [*cells]
        cells.insert(idc, f"r{i}")
        lines.append(",".join(cells))
    text = header + "\n" + "\n".join(lines) + "\n"
    want = _read_outcome(text, cols, idc, "row", block_cells)
    # three cells after the id are a dense row of rank 1: every raw row with
    # the id first passes the layout check if its cells are finite numbers
    assert _read_outcome(text, cols, idc, None, block_cells) == want, "cell"
    assert _read_outcome(text, cols, idc, None, block_cells, (1,)) == want, "layout"


@settings(max_examples=300, deadline=None)
@given(*_CONVERSION_TABLES)
def test_read_rows_gives_the_same_table_or_error_on_every_conversion_path(layout, rows, edits, block_cells):
    _assert_every_conversion_path_agrees(layout, rows, edits, block_cells)


def test_a_cell_path_without_its_finiteness_check_fails_the_conversion_test(monkeypatch):
    # the negative control: converted cell by cell, inf, nan and 1e999 are
    # floats, and only the finiteness check sends their block to _row_floats.
    # The same examples are drawn, and the first failure is not shrunk.
    def unchecked(picked, size):
        cells = list(chain.from_iterable(picked))
        if not cli._plain(cells):
            return None
        try:
            return np.fromiter(map(float, cells), float, size)
        except ValueError:
            return None

    monkeypatch.setattr(cli, "_cell_floats", unchecked)
    test = settings(max_examples=300, deadline=None, phases=[Phase.generate])(given(*_CONVERSION_TABLES)(
        _assert_every_conversion_path_agrees
    ))
    with pytest.raises(AssertionError, match="cell"):
        test()


@pytest.mark.parametrize("clean_first", [True, False])
def test_read_rows_picks_the_conversion_of_each_block(clean_first, monkeypatch):
    # a D6 row is wider than a block, so each row is a block of its own: clean
    # rows pass the class-layout check and noisy ones are converted cell by
    # cell, in either order, to the bits of float per cell
    spec = registry_lookup("D6")
    clean = dense_rows(spec, class_values(spec, quaternions_to_matrices(random_quaternions(np.random.default_rng(17), 3))))
    noisy = clean + 1e-3 * np.random.default_rng(18).standard_normal(clean.shape)
    rows = np.vstack([clean, noisy] if clean_first else [noisy, clean])
    text = "id," + ",".join(f"e{i}" for i in range(rows.shape[1])) + "\n"
    text += "".join(f"r{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(rows.tolist()))
    paths = _spy_paths(monkeypatch)
    reader = _table_rows(io.StringIO(text), raw=True)
    next(reader)
    vals, ids, lines = _read_rows(reader, range(1, rows.shape[1] + 1), 0, spec.alpha)
    assert vals.tobytes() == rows.tobytes() and ids[-1] == "r5" and lines[-1] == 7
    assert paths == (["layout"] * 3 + ["cell"] * 3 if clean_first else ["cell"] * 3 + ["layout"] * 3)
    want = _read_outcome(text, range(1, rows.shape[1] + 1), 0, "row", cli._BLOCK_CELLS, spec.alpha)
    assert want == (vals.tobytes(), vals.shape, ids, lines)


@lru_cache(maxsize=None)
def _exact_dense_cells(group: str) -> tuple:
    """Exact dense rows of ``group``, three (two of Y), as ``embed`` writes
    their cells: every entry of a class holds the same text."""
    spec = registry_lookup(group)
    quats = random_quaternions(np.random.default_rng(41), 2 if group == "Y" else 3)
    rows = dense_rows(spec, class_values(spec, quaternions_to_matrices(quats)))
    return tuple(tuple("%.17g" % x for x in row) for row in rows.tolist())


def _edit_cell(cells: list, at: int, kind: str, option: int) -> None:
    """Apply one edit to the cells of a row, the id first: at cell ``at`` (not
    the id), or at the row's end."""
    cell = cells[at]
    if kind == "equal":  # another text of the same float
        cells[at] = format(float(cell), ".16e")
    elif kind == "other":  # the next float, most often a text of the same length
        cells[at] = "%.17g" % math.nextafter(float(cell), math.inf)
    elif kind == "separator":  # the comma before the cell: a semicolon, padded on either side, or doubled
        before = cells[at - 1]
        cells[at - 1 : at + 1] = [[before + ";" + cell], [before, " " + cell], [before + " ", cell], [before, "", cell]][option % 4]
    elif kind == "extra":
        cells.append(["0.5", "x", "", cell][option % 4])
    elif kind == "missing":
        cells.pop()
    else:  # a quote, whitespace, or a cell that is no finite number under the grammar
        cells[at] = ['"' + cell + '"', " " + cell, cell + "\t", "nan", "1_0", "\u0661", "inf", "x"][option % 8]


_DENSE_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["equal", "other", "separator", "extra", "missing", "cell"]),
        st.integers(0, 2),
        st.integers(0, 10**6),
        st.integers(0, 7),
    ),
    max_size=3,
)
_DENSE_TABLES = (st.sampled_from(["C4", "D6", "Y"]), st.integers(1, 3), _DENSE_EDITS, st.booleans())


def _assert_the_layout_check_agrees_with_each_cell(group, n_rows, edits, crlf):
    # exact dense rows, edited: each row has the floats, id and line number
    # that _row_floats gives it alone, or the same data error comes out
    spec = registry_lookup(group)
    rows = [[f"r{i}", *cells] for i, cells in enumerate(_exact_dense_cells(group)[:n_rows])]
    for kind, row, at, option in edits:
        cells = rows[row % len(rows)]
        _edit_cell(cells, 1 + at % (len(cells) - 1), kind, option)
    end = "\r\n" if crlf else "\n"
    text = "id," + ",".join(f"e{i}" for i in range(spec.ambient_dimension)) + end
    text += "".join(",".join(cells) + end for cells in rows)
    cols = range(1, spec.ambient_dimension + 1)
    want = _read_outcome(text, cols, 0, "row", alpha=spec.alpha)
    assert _read_outcome(text, cols, 0, alpha=spec.alpha) == want


@settings(max_examples=100, deadline=None)
@given(*_DENSE_TABLES)
def test_the_layout_check_gives_the_table_or_error_of_each_cell_on_edited_dense_rows(group, n_rows, edits, crlf):
    _assert_the_layout_check_agrees_with_each_cell(group, n_rows, edits, crlf)


class _TrustingText(str):
    """A row text whose every ``startswith`` holds: a later block of a
    pattern is then trusted without being compared."""

    def startswith(self, prefix, *bounds):
        return True


def test_a_layout_check_that_trusts_repeated_blocks_fails_the_dense_row_test(monkeypatch):
    # the negative control: a cell of a later block set to another float of
    # the same length is taken for its class's text.  The same examples are
    # drawn, and the first failure is not shrunk.
    check = cli._layout_floats
    monkeypatch.setattr(cli, "_layout_floats", lambda text, alpha, out: check(_TrustingText(text), alpha, out))
    test = settings(max_examples=100, deadline=None, phases=[Phase.generate])(given(*_DENSE_TABLES)(
        _assert_the_layout_check_agrees_with_each_cell
    ))
    with pytest.raises(AssertionError):
        test()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(["id", " Id", "ID\t", "i d", "x", "", " ", "idx", "\u0130d", "e0"]), min_size=1, max_size=5),
    st.sampled_from(["", "\n", "\r\n", "\r"]),
)
def test_a_raw_header_gives_the_id_column_and_width_of_its_cells(cells, end):
    # the text of a header whose first cell reads id is not split; the
    # outcome is that of its cells either way, the error included
    assume(cells != [""])  # no line, or a line end alone, which has no cells

    def outcome(raw):
        header = next(_table_rows(io.StringIO(",".join(cells) + end, newline=""), raw=raw))[1]
        try:
            return cli._id_and_width(header)
        except _DataError as exc:
            return str(exc)

    idc = next((i for i, cell in enumerate(cells) if cell.strip().lower() == "id"), None)
    assert outcome(True) == outcome(False) == ((idc, len(cells)) if idc is not None else "header must contain an 'id' column")


def _project_variants(group: str) -> dict[str, str]:
    """Tables of exact dense targets of ``group`` as ``project`` may meet them:
    CRLF line ends, a byte order mark, quoted ids, a trailing extra cell, the
    id column not first, and a bad cell in the last row."""
    spec = registry_lookup(group)
    names = [f"e{i}" for i in range(spec.ambient_dimension)]
    rows = [list(cells) for cells in _exact_dense_cells(group)[:2]]

    def table(header, body, end="\n"):
        return "".join(",".join(cells) + end for cells in [header, *body])

    plain = table(["id", *names], [[f"r{i}", *cells] for i, cells in enumerate(rows)])
    bad = [[f"r{i}", *cells] for i, cells in enumerate(rows)]
    bad[-1][-1] = "1_0"
    return {
        "plain": plain,
        "crlf": table(["id", *names], [[f"r{i}", *cells] for i, cells in enumerate(rows)], "\r\n"),
        "bom": "\ufeff" + plain,
        "quoted": table(["id", *names], [[f'"r,{i}"', *cells] for i, cells in enumerate(rows)]),
        "extra": table(["id", *names], [[f"r{i}", *cells, "0.5"] for i, cells in enumerate(rows)]),
        "id-second": table([names[0], "id", *names[1:]], [[cells[0], f"r{i}", *cells[1:]] for i, cells in enumerate(rows)]),
        "bad-last": table(["id", *names], bad),
    }


@pytest.mark.parametrize("group", ["D6", "Y"])
def test_project_bytes_do_not_depend_on_the_layout_check(group, tmp_path, monkeypatch, capsys):
    # every variant gives the same output bytes, exit code and message with
    # the header shortcut and the class-layout check, and without them
    def run(text):
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_bytes(text.encode("utf-8"))
        out.unlink(missing_ok=True)
        code = main(["project", "--group", group, "-i", str(src), "-o", str(out)])
        return code, capsys.readouterr().err, out.read_bytes() if out.exists() else None

    variants = _project_variants(group)
    fast = {name: run(text) for name, text in variants.items()}
    monkeypatch.setattr(cli, "_layout_floats", lambda text, alpha, out: None)
    monkeypatch.setattr(cli, "_id_and_width", lambda header: (cli._id_column(cli._cells(header)), len(cli._cells(header))))
    for name, text in variants.items():
        assert fast[name] == run(text), name
    assert fast["plain"][0] == 0 and fast["bad-last"] == (2, "error: line 3: '1_0' is not a number\n", None)
    assert fast["crlf"] == fast["bom"] == fast["extra"] == fast["id-second"] == fast["plain"]


def test_header_names_match_stripped_and_caseless_and_the_first_one_wins():
    table = "Id , QW,qx , qY,QZ,id\nr0,0,1,0,0,other\n"
    out = run_cli("embed", "--group", "C1", stdin=table)
    assert out.returncode == 0
    _, rows = read_csv(out.stdout)
    assert rows[0][0] == "r0"
    coords = np.array([float(x) for x in rows[0][1:]])
    assert np.abs(coords - np.diag([1.0, -1.0, -1.0]).ravel() / math.sqrt(2.0)).max() < 1e-16


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_a_utf8_byte_order_mark_leaves_every_table_command_unchanged(source, tmp_path, monkeypatch, capsys):
    quats = random_quaternions(np.random.default_rng(31), 4)
    plain, embedded = tmp_path / "q.csv", tmp_path / "e.csv"
    plain.write_text(quaternion_table(quats))
    assert main(["embed", "--group", "O", "-i", str(plain), "-o", str(embedded)]) == 0
    pairs = "id,qw1,qx1,qy1,qz1,qw2,qx2,qy2,qz2\n" + "".join(
        f"p{i}," + ",".join(map(repr, map(float, (*a, *b)))) + "\n" for i, (a, b) in enumerate(zip(quats, quats[::-1]))
    )
    tables = {
        ("embed", "--group", "O"): plain.read_text(),
        ("distance", "--group", "O"): pairs,
        ("distance", "--group", "O", "--metric", "embedded"): pairs,
        ("project", "--group", "O"): embedded.read_text(),
    }

    def run(argv, text):
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert main(list(argv)) == 0, capsys.readouterr().err
            return capsys.readouterr().out.encode()
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_bytes(text.encode("utf-8"))
        assert main([*argv, "-i", str(src), "-o", str(out)]) == 0, capsys.readouterr().err
        return out.read_bytes()

    for argv, text in tables.items():
        assert text.startswith("id,")
        assert run(argv, "\ufeff" + text) == run(argv, text), argv


def test_parser_is_built_once_and_keeps_no_options_between_calls(tmp_path):
    assert build_parser() is build_parser()
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("id,alpha,beta,gamma\nr0,0,90,0\n")
    assert main(["embed", "--group", "C1", "--degrees", "-i", str(src), "-o", str(out)]) == 0
    degrees = out.read_text()
    assert main(["embed", "--group", "C1", "-i", str(src), "-o", str(out)]) == 2  # beta = 90 rad is out of range
    assert main(["embed", "--group", "C1", "--degrees", "-i", str(src), "-o", str(out)]) == 0
    assert out.read_text() == degrees


def test_embed_euler_rejects_out_of_range_beta():
    out = run_cli("embed", "--group", "C1", stdin="id,alpha,beta,gamma\nr0,0,4.0,0\n")
    assert out.returncode == 2


@pytest.mark.parametrize(
    "argv,table,message",
    [
        (["embed"], "id,alpha,beta,gamma\nr0,0,1,0\nr1,1e300,1,0\n", "alpha must lie in [-1e6, 1e6] rad, got 1e+300 rad"),
        (["embed", "--degrees"], "id,alpha,beta,gamma\nr0,0,1,0\nr1,0,1,-6e7\n", "gamma must lie in [-1e6, 1e6] rad, got -1047197."),
        (
            ["distance"],
            "id,alpha1,beta1,gamma1,alpha2,beta2,gamma2\np0,0,0,0,0,0,0\np1,0,0,0,0,0,1000000.5\n",
            "gamma must lie in [-1e6, 1e6] rad, got 1000000.5 rad",
        ),
        (
            ["distance", "--degrees"],
            "id,alpha1,beta1,gamma1,alpha2,beta2,gamma2\np0,0,0,0,0,0,0\np1,5.8e7,0,0,0,0,0\n",
            "alpha must lie in [-1e6, 1e6] rad, got 1012290.9",
        ),
    ],
)
def test_euler_angles_past_1e6_rad_are_data_errors(argv, table, message, tmp_path, capsys):
    # No digit of 1e300 rad modulo 2 pi is left; the limit applies to
    # radians, after --degrees converts the cells
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text(table)
    assert main([*argv, "--group", "C4", "-i", str(src), "-o", str(out)]) == 2
    assert f"line 3: Euler {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,angle", [(["embed"], "-1e6"), (["embed", "--degrees"], "5.7e7"), (["distance"], "1e6")])
def test_euler_angles_up_to_1e6_rad_are_accepted(argv, angle, tmp_path):
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    if argv[0] == "embed":
        src.write_text(f"id,alpha,beta,gamma\nr0,{angle},1,{angle}\n")
    else:
        src.write_text(f"id,alpha1,beta1,gamma1,alpha2,beta2,gamma2\np0,{angle},0,0,0,0,{angle}\n")
    assert main([*argv, "--group", "C4", "-i", str(src), "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


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


# A C12 spec past the dense-storage limit: e1 rank 1, e2 rank 24, locally isometric weights.
RANK_24_DOC = "group = C\nk = 12\nu = 1 0 0; 0 1 0\nalpha = 1 24\nbeta = 0.28208542890864785 0.6578716539662499\n"


def test_a_rank_24_spec_runs_the_class_value_commands_and_no_dense_one(tmp_path, capsys):
    doc, src, pairs = tmp_path / "spec.txt", tmp_path / "in.csv", tmp_path / "pairs.csv"
    doc.write_text(RANK_24_DOC)
    quats = random_quaternions(np.random.default_rng(24), 6)
    src.write_text(quaternion_table(quats))
    pairs.write_text("id,qw1,qx1,qy1,qz1,qw2,qx2,qy2,qz2\n" + "".join(
        f"p{i}," + ",".join(map(repr, map(float, np.concatenate([a, b])))) + "\n"
        for i, (a, b) in enumerate(zip(quats[:3], quats[3:]))
    ))
    # the leading text cells of a row: bounds' group and variant, distance's id
    for argv, skip in ((["bounds", "--pairs", "2000"], 2), (["scatter", "--pairs", "50"], 0),
                       (["distance", "--metric", "embedded", "-i", str(pairs)], 1)):
        out = tmp_path / "out.csv"
        assert main([*argv, "--spec", str(doc), "-o", str(out)]) == 0, argv
        _, rows = read_csv(out.read_text())
        values = np.array([[float(x) for x in row[skip:]] for row in rows])
        assert values.size and np.all(np.isfinite(values)), argv
    capsys.readouterr()
    for command in ("embed", "project"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--spec", str(doc), "-i", str(src), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "alpha" in err and "dense-storage limit 12" in err and not out.exists()
    doc.write_text(RANK_24_DOC.replace("alpha = 1 24", "alpha = 1 31"))
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--spec", str(doc), "--pairs", "10", "-o", str(out)]) == 2
    assert "alpha[1] must lie between 1 and 30, got 31" in capsys.readouterr().err and not out.exists()


def test_embed_y_table_past_one_row_block_matches_row_by_row_embed(tmp_path):
    spec = registry_lookup("Y")
    quats = random_quaternions(np.random.default_rng(5), Y_BLOCK_ROWS + 3)
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text(quaternion_table(quats))
    assert main(["embed", "--group", "Y", "-i", str(src), "-o", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[0] for row in rows] == [f"r{i}" for i in range(len(quats))]
    for row, q in zip(rows, quats):
        want = embed(spec, Rotation(q)).flatten()
        assert np.abs(np.array(row[1:], dtype=float) - want).max() <= 1e-15


def _peak_rss(*argv) -> int:
    """Peak resident size (kB) of one CLI call in a fresh process."""
    # VmHWM, not ru_maxrss: the latter keeps the spawning test process's
    # high-water mark across exec
    code = (
        "import sys\n"
        "from so3embed.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM')))\n"
        "sys.exit(code)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return int(out.stdout)


def _embed_peak_rss(tmp_path, n_rows: int) -> int:
    src = tmp_path / f"in{n_rows}.csv"
    src.write_text(quaternion_table(random_quaternions(np.random.default_rng(n_rows), n_rows)))
    return _peak_rss("embed", "--group", "Y", "-i", str(src), "-o", os.devnull)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak RSS from /proc")
def test_embed_peak_memory_does_not_grow_with_row_count(tmp_path):
    # rows are expanded and written block by block, so a table five times as
    # long peaks at the same resident size
    assert _embed_peak_rss(tmp_path, 100) <= 1.1 * _embed_peak_rss(tmp_path, 20)


def _project_peak_rss(tmp_path, n_rows: int, group: str = "Y") -> int:
    spec = registry_lookup(group)
    rows = (embed(spec, Rotation(q)).flatten() for q in random_quaternions(np.random.default_rng(n_rows), n_rows))
    src = tmp_path / f"targets{group}{n_rows}.csv"
    with open(src, "w") as fh:
        fh.write("id," + ",".join(f"e{i}" for i in range(spec.ambient_dimension)) + "\n")
        fh.writelines(f"r{i}," + ",".join(map(repr, row.tolist())) + "\n" for i, row in enumerate(rows))
    return _peak_rss("project", "--group", group, "-i", str(src), "-o", os.devnull)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak RSS from /proc")
def test_project_peak_memory_keeps_only_the_floats_of_each_row(tmp_path):
    # A Y row is 0.47 MB as floats and about 7 MB as Python strings.  Rows are
    # converted as they are read, so six more rows may add a few float copies
    # of themselves (about 4 MB measured) but never their text (about 40 MB).
    assert _project_peak_rss(tmp_path, 8) - _project_peak_rss(tmp_path, 2) <= 12 * 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak RSS from /proc")
def test_project_reads_clean_y_rows_without_splitting_them(tmp_path):
    # Split at its commas, a Y row or header is a list of 59,049 strings,
    # about 4.2 MB.  Against project on two O rows, which loads the same
    # modules, two clean Y rows peaked 5.8-6.0 MB higher when each was split,
    # and peak 2.4-2.6 MB higher (their text, the table and the Y set-up) when
    # the header is counted and the rows are checked against the class layout
    # instead.
    assert _project_peak_rss(tmp_path, 2) - _project_peak_rss(tmp_path, 2, "O") <= 4 * 1024


def test_embed_degree_rows_match_rotation_from_euler_zyz(tmp_path):
    rng = np.random.default_rng(6)
    deg = np.column_stack([rng.uniform(-180, 180, 8), rng.uniform(0, 180, 8), rng.uniform(-180, 180, 8)])
    deg[:2] = [(0.0, 0.0, 0.0), (30.0, 180.0, -75.0)]  # both ends of the beta range
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("id,alpha,beta,gamma\n" + "".join("r," + ",".join(map(repr, map(float, d))) + "\n" for d in deg))
    assert main(["embed", "--group", "C1", "--degrees", "-i", str(src), "-o", str(out)]) == 0
    _, rows = read_csv(out.read_text())
    for row, angles in zip(rows, deg):
        want = embed(registry_lookup("C1"), Rotation.from_euler_zyz(*np.radians(angles))).flatten()
        assert np.abs(np.array(row[1:], dtype=float) - want).max() <= 1e-15


def test_bad_row_after_the_first_block_exits_2_and_writes_nothing(tmp_path, capsys):
    quats = random_quaternions(np.random.default_rng(7), Y_BLOCK_ROWS + 5)
    quats[Y_BLOCK_ROWS + 2] = [1.0, 0.0, 0.0, 0.5]
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text(quaternion_table(quats))
    assert main(["embed", "--group", "Y", "-i", str(src), "-o", str(out)]) == 2
    assert f"line {Y_BLOCK_ROWS + 4}: quaternion norm" in capsys.readouterr().err
    assert not out.exists()


def _csv_bytes(rows) -> str:
    """Rows as the csv module writes them, every float at 17 digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([row[0]] + [format(float(x), ".17g") for x in row[1:]] for row in rows)
    return buf.getvalue()


def test_ids_keep_the_csv_module_quoting(tmp_path):
    ids = ["a,b", 'say "hi"', "two\nlines", "plain", ""]
    quats = random_quaternions(np.random.default_rng(9), len(ids))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [["id", "qw1", "qx1", "qy1", "qz1", "qw2", "qx2", "qy2", "qz2"]]
        + [[i, *map(repr, map(float, q)), *map(repr, map(float, q[::-1]))] for i, q in zip(ids, quats)]
    )
    pairs, single = tmp_path / "pairs.csv", tmp_path / "single.csv"
    pairs.write_text(buf.getvalue())
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [["id", "qw", "qx", "qy", "qz"]] + [[i, *map(repr, map(float, q))] for i, q in zip(ids, quats)]
    )
    single.write_text(buf.getvalue())
    for argv, src in ((["embed", "--group", "O"], single), (["distance", "--group", "O"], pairs),
                      (["distance", "--group", "O", "--metric", "embedded"], pairs)):
        out = tmp_path / "out.csv"
        assert main([*argv, "-i", str(src), "-o", str(out)]) == 0
        text = out.read_text()
        with open(out, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert [row[0] for row in rows] == ids
        assert text == ",".join(header) + "\n" + _csv_bytes(rows)


def test_embed_output_floats_round_trip_exactly():
    out = run_cli("embed", "--group", "C2", stdin="id,qw,qx,qy,qz\nr0,0.6,0.8,0,0\n")
    _, rows = read_csv(out.stdout)
    got = np.array([float(x) for x in rows[0][1:]])
    want = embed(registry_lookup("C2"), Rotation.from_quaternion([0.6, 0.8, 0.0, 0.0]))
    assert np.array_equal(got, want.flatten())


# The identity, two half turns and a three-fold turn give class values with
# exact zeros; four generic rows follow.
BYTE_QUATS = np.vstack(
    [[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.5, 0.5, 0.5, 0.5]],
     random_quaternions(np.random.default_rng(11), 4)]
)
RANK_12_DOC = "group = C1\nu = 1 0 0\nalpha = 12\nbeta = 1\n"


def _assert_embed_bytes_format_every_dense_entry(tmp_path, spec, argv, quats):
    # the oracle formats every entry of the dense rows, one "%.17g" each
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text(quaternion_table(quats))
    assert main(["embed", *argv, "-i", str(src), "-o", str(out)]) == 0
    rows = dense_rows(spec, class_values(spec, quaternions_to_matrices(normalized_quaternions(quats))))
    want = "id," + ",".join(f"e{i}" for i in range(spec.ambient_dimension)) + "\n"
    want += "".join(f"r{i}" + "".join(",%.17g" % x for x in row) + "\n" for i, row in enumerate(rows.tolist()))
    assert out.read_text() == want


@pytest.mark.parametrize("variant", ["isometric", "arnold"])
@pytest.mark.parametrize("group", TABLE_GROUPS)
def test_embed_bytes_equal_formatting_every_dense_entry(group, variant, tmp_path):
    argv = ["--group", group, "--variant", variant]
    _assert_embed_bytes_format_every_dense_entry(tmp_path, registry_lookup(group, variant), argv, BYTE_QUATS)


def test_embed_rank_12_bytes_equal_formatting_every_dense_entry(tmp_path):
    doc = tmp_path / "spec.txt"
    doc.write_text(RANK_12_DOC)
    spec = parse_spec_document(RANK_12_DOC)
    _assert_embed_bytes_format_every_dense_entry(tmp_path, spec, ["--spec", str(doc)], BYTE_QUATS[[0, 1, 3, 4]])


_IDS = st.one_of(
    st.sampled_from(["", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "crlf\r\n", " lead", "trail ", " "]),
    st.text(alphabet='ab1 ,"\r\n\t\u00e9', max_size=6),
)
_WRITE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e300, -1e300, 0.1, 1.0 / 3.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda c: st.lists(st.tuples(_IDS, st.lists(_WRITE_FLOATS, min_size=c, max_size=c)),
                                                    min_size=1, max_size=8)),
       st.booleans(), st.sampled_from([1, 2, 3, 5, cli._WRITE_CELLS]))
def test_write_rows_without_take_is_the_csv_writer_at_17_digits(rows, with_ids, write_cells):
    # the narrow path formats a block of rows with one "%"; the oracle is one
    # csv row per line, the id first when there is one, every float by format().
    # Small write blocks hold plain ids only, quoted ones only, or both.
    values = np.array([v for _, v in rows], dtype=float).reshape(len(rows), -1)
    ids = [i for i, _ in rows] if with_ids else None
    buf, want = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_WRITE_CELLS", write_cells):
        _write_rows(buf, ids, values)
    csv.writer(want, lineterminator="\n").writerows(
        [i] * with_ids + [format(x, ".17g") for x in v] for i, v in rows
    )
    assert buf.getvalue() == want.getvalue()


def test_write_rows_writes_a_table_past_one_write_block(monkeypatch):
    monkeypatch.setattr(cli, "_WRITE_CELLS", 4)
    values = np.random.default_rng(14).standard_normal((11, 3))
    buf = io.StringIO()
    _write_rows(buf, [f"r{i}" for i in range(11)], values)
    assert buf.getvalue() == "".join(f"r{i}" + "".join(",%.17g" % x for x in row) + "\n" for i, row in enumerate(values.tolist()))


def test_write_rows_repeats_each_formatted_value_with_its_sign():
    # class values never come out as -0.0 in practice, so the gather of
    # formatted strings is checked on one directly
    values = np.array([[-0.0, 0.0, 5e-324, -1.0 / 3.0], [1e300, -2.5, 0.1, -0.0]])
    take = [3, 0, 0, 1, 2, 3, 1]
    buf = io.StringIO()
    _write_rows(buf, ["a", "b"], values, take)
    want = "".join(i + "".join(",%.17g" % x for x in row[take]) + "\n" for i, row in zip("ab", values))
    assert buf.getvalue() == want
    assert buf.getvalue().startswith("a,-0.33333333333333331,-0,-0,0,")
    buf = io.StringIO()
    _write_rows(buf, ["a", "b"], values[:, :1])
    assert buf.getvalue() == "a,-0\nb,1.0000000000000001e+300\n"


_FAST_FLOATS = st.floats(1e-4, 10.0, exclude_max=True).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), _FAST_FLOATS), max_size=40))
def test_texts_are_the_17_digit_format_of_every_float(floats):
    # any float, and the range that numpy lays out, 1e-4 <= |v| < 10
    assert cli._texts(np.array(floats, dtype=float)) == ["%.17g" % x for x in floats]


def _neighbours(x: float, n: int = 3) -> list[float]:
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


def test_texts_of_decades_ties_and_the_other_floats():
    # the range ends and every power of ten with its neighbours, values that
    # round up into the next decade, products that are exact ties at 17
    # digits (half to even: 1.0000076293945312, not ...13), and the floats
    # that go through "%": zeros, subnormals, large, small and integral ones
    floats = [x for m in range(-6, 3) for x in _neighbours(float(f"1e{m}"), 4)]
    floats += [0.99999999999999999, 9.9999999999999995e-05, 0.09999999999999999, 9.999999999999998]
    floats += [1.0 + 2.0**-17, 1.0 + 3 * 2.0**-17, 7.0 + 2.0**-16, 0.25 + 2.0**-19, 1.0 / 3.0, 0.1, 2.5, 9.5]
    floats += [0.0, 5e-324, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308, 1e-5, 12.0, 3.0, 1e17]
    floats += np.random.default_rng(24).standard_normal(2_000).tolist()
    floats += [-x for x in floats]
    assert cli._texts(np.array(floats)) == ["%.17g" % x for x in floats]
    assert cli._texts(np.array([1.0 + 2.0**-17, 0.5])) == ["1.0000076293945312", "0.5"]
    assert cli._texts(np.array([])) == []


def test_write_rows_formats_a_dense_table_in_small_blocks():
    # 2,000 C4 rows of 18 class values, 84 columns: formatted at most
    # _WRITE_CELLS values per call, the write peaked at 0.64 MiB of tracemalloc
    # (the per-row "%" of every row's floats, one list of the whole block's
    # floats: 1.34 MiB); one call over the whole table peaked at 4.7 MiB
    spec = registry_lookup("C4")
    quats = random_quaternions(np.random.default_rng(25), 2_000)
    values = np.concatenate(class_values(spec, quaternions_to_matrices(quats)), axis=1)
    ids, take = [f"r{i}" for i in range(2_000)], cli.dense_class_columns(spec)
    sink = SimpleNamespace(write=len)  # holds no output
    _write_rows(sink, ids[:1], values[:1], take)  # the lookup tables are built on first use
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _write_rows(sink, ids, values, take)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


SMALL_GROUPS = tuple(g for g in TABLE_GROUPS if registry_lookup(g).ambient_dimension <= 1000)
UNIT_QUATERNIONS = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda q: math.sqrt(sum(x * x for x in q)) > 0.1
).map(lambda q: np.array(q) / np.linalg.norm(q))


@settings(max_examples=25, deadline=None)
@given(group=st.sampled_from(SMALL_GROUPS), quats=st.lists(UNIT_QUATERNIONS, min_size=1, max_size=3))
def test_embed_csv_projects_back_to_its_coset(group, quats):
    spec = registry_lookup(group)
    with tempfile.TemporaryDirectory() as tmp:
        src, emb, proj = (os.path.join(tmp, name) for name in ("in.csv", "embed.csv", "project.csv"))
        Path(src).write_text(quaternion_table(quats))
        assert main(["embed", "--group", group, "-i", src, "-o", emb]) == 0
        assert main(["project", "--group", group, "-i", emb, "-o", proj]) == 0
        _, rows = read_csv(Path(proj).read_text())
    for row, q in zip(rows, quats):
        back = Coset(Rotation.from_quaternion(np.array(row[1:5], dtype=float)), spec.group)
        assert coset_distance(back, Coset(Rotation(q), spec.group)) < 1e-8


def test_project_empty_input_yields_header_only(tmp_path):
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("id," + ",".join(f"e{i}" for i in range(81)) + "\n")
    assert main(["project", "--group", "O", "-i", str(src), "-o", str(out)]) == 0
    assert out.read_text() == "id,qw,qx,qy,qz,residual,iterations,converged,error\n"


def test_project_row_whose_squared_norm_overflows_is_a_data_error(tmp_path, capsys):
    # every cell is finite, but the squared norm of the second row is not:
    # its line is named and no output is written
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    header = "id," + ",".join(f"e{i}" for i in range(9))
    src.write_text(f"{header}\nr0,1,0,0,0,1,0,0,0,1\nr1,1e200,0,0,0,1e200,0,0,0,1e200\n")
    assert main(["project", "--group", "C1", "-i", str(src), "-o", str(out)]) == 2
    assert "line 3: the squared norm of the coordinates overflows" in capsys.readouterr().err
    assert not out.exists()


def test_project_start_set_past_memory_is_a_usage_error(tmp_path, capsys):
    # 10^15 starts would take petabytes: numpy refuses the start set before it
    # allocates anything, and the error names the option, with no output written
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    dim = registry_lookup("C4").ambient_dimension
    src.write_text("id," + ",".join(f"e{i}" for i in range(dim)) + "\nr0,1" + ",0" * (dim - 1) + "\n")
    argv = ["project", "--group", "C4", "--starts", "1000000000000000", "-i", str(src), "-o", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --starts 1000000000000000")
    assert not out.exists()


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


@pytest.mark.parametrize("metric", ["geodesic", "embedded"])
def test_distance_empty_input_yields_header_only(metric, tmp_path):
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("id,qw1,qx1,qy1,qz1,alpha2,beta2,gamma2\n")
    assert main(["distance", "--group", "O", "--metric", metric, "-i", str(src), "-o", str(out)]) == 0
    assert out.read_text() == "id,distance\n"


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


def test_distance_embedded_rows_do_not_depend_on_their_neighbours(tmp_path):
    # Each row of a 300-pair table prints exactly as it does alone in a
    # one-row table, and as the scalar embedded_distance gives it.
    rng = np.random.default_rng(23)
    q1, q2 = random_quaternions(rng, 300), random_quaternions(rng, 300)
    header = "id," + ",".join(f"{n}{i}" for i in (1, 2) for n in ("qw", "qx", "qy", "qz"))
    rows = [f"p{i}," + ",".join(repr(float(x)) for x in (*a, *b)) for i, (a, b) in enumerate(zip(q1, q2))]
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"

    def distances(lines):
        src.write_text(header + "\n" + "\n".join(lines) + "\n")
        assert main(["distance", "--group", "O", "--metric", "embedded", "-i", str(src), "-o", str(out)]) == 0
        return [line.split(",")[1] for line in out.read_text().splitlines()[1:]]

    table = distances(rows)
    spec = registry_lookup("O")
    assert [distances([row])[0] for row in rows] == table
    assert [format(embedded_distance(spec, Rotation(a), Rotation(b)), ".17g") for a, b in zip(q1, q2)] == table


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


def test_verify_mean_suite_for_all_groups_prints_each_groups_own_line(capsys):
    # each group reads its own quadrature, so its line is the one a run for
    # that group alone prints
    assert main(["verify", "--suite", "mean", "--samples", "5000", "--seed", "3"]) == 0
    together = capsys.readouterr().out
    alone = ""
    for name in TABLE_GROUPS:
        assert main(["verify", "--suite", "mean", "--samples", "5000", "--seed", "3", "--group", name]) == 0
        alone += capsys.readouterr().out
    assert together == alone
    assert len(together.splitlines()) == len(TABLE_GROUPS)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_verify_mean_lines_are_those_of_the_dense_mean_norm(seed, capsys):
    # the oracle averages dense embed tensors over each group's design; it and
    # the printed norm are rounding-level, below the printed 1e-12 r bound,
    # and the seed, which only Monte Carlo checks read, leaves the lines alone
    assert main(["verify", "--suite", "mean", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert main(["verify", "--suite", "mean"]) == 0
    assert capsys.readouterr().out == out
    lines = out.splitlines()
    assert len(lines) == len(TABLE_GROUPS)
    for name, line in zip(TABLE_GROUPS, lines):
        spec = registry_lookup(name)
        head, norm, _, bound, verdict = line.rsplit(" ", 4)
        assert (head, verdict) == (f"mean {name}: norm", "PASS")
        assert bound == f"{1e-12 * radius(spec):.3e}" and float(norm) < float(bound)
        slabs, weights = analysis._haar_design(max(spec.alpha))
        mean = [0.0] * spec.n_components
        for slab, weight in zip(slabs, weights):
            for q in slab:
                point = embed(spec, Rotation.from_quaternion(q)).value
                mean = [m + (weight / len(slab)) * t for m, t in zip(mean, point)]
        assert tuple_norm(mean) < 1e-12 * radius(spec)


def test_verify_mean_fails_on_a_design_too_short_for_the_rank(monkeypatch, capsys):
    # O's rank-4 mean needs a degree-4 design; a degree-3 one leaves 0.197
    design = analysis._haar_design
    monkeypatch.setattr(analysis, "_haar_design", lambda L: design(3))
    assert main(["verify", "--suite", "mean", "--group", "O"]) == 3
    out = capsys.readouterr().out
    assert out.startswith("mean O: norm 1.97") and out.endswith(" FAIL\n")


def test_verify_group_all_ignores_case_and_surrounding_spaces(capsys):
    assert main(["verify", "--suite", "isometry", "--group", "all"]) == 0
    want = capsys.readouterr().out
    for group in ("ALL", " all"):
        assert main(["verify", "--suite", "isometry", "--group", group]) == 0
        assert capsys.readouterr().out == want


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


def test_scatter_bytes_are_the_csv_writers_of_each_pair(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["scatter", "--group", "O", "--pairs", "300", "--seed", "4", "-o", str(out)]) == 0
    want = io.StringIO()
    csv.writer(want, lineterminator="\n").writerows(
        [["geodesic", "embedded"]] + [[format(g, ".17g"), format(e, ".17g")] for g, e in
                                      distance_scatter(registry_lookup("O"), 300, seed=4).tolist()]
    )
    assert out.read_text() == want.getvalue()


def test_scatter_deterministic_and_positive():
    a = run_cli("scatter", "--group", "D3", "--pairs", "50", "--seed", "9")
    b = run_cli("scatter", "--group", "D3", "--pairs", "50", "--seed", "9")
    assert a.returncode == 0 and a.stdout == b.stdout
    header, rows = read_csv(a.stdout)
    assert header == ["geodesic", "embedded"]
    assert len(rows) == 50
    assert all(float(x) > 0 for row in rows for x in row)


def test_bench_tracer_names_stay_bound():
    # bench/spans.py swaps these attributes for traced wrappers; a name the
    # package stops binding would break the traced benchmark runs
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    loader = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    for module, attr, _ in spans.TARGETS:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
    cli = importlib.import_module("so3embed.cli")
    for ctor in spans.ROTATION_CTORS:
        assert callable(getattr(cli.Rotation, ctor))


def test_bench_tracer_installs_and_restores_every_target():
    # Tracer.install looks up every TARGETS attribute with getattr, so a name
    # the package stops binding breaks the traced benchmark run; each must be
    # callable, and restore must put every original back
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    loader = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    before = {(module, attr): getattr(importlib.import_module(module), attr) for module, attr, _ in spans.TARGETS}
    assert all(callable(fn) for fn in before.values())
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, attr), fn in before.items():
            assert getattr(importlib.import_module(module), attr).__wrapped__ is fn, f"{module}.{attr}"
    finally:
        tracer.restore()
    assert all(getattr(importlib.import_module(module), attr) is fn for (module, attr), fn in before.items())


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


_PRINT_PACKAGE_MODULES = "print(sorted(m for m in sys.modules if m.startswith('so3embed')))\n"
_BASE_MODULES = ["so3embed", "so3embed.embedding", "so3embed.so3", "so3embed.tensors"]


def test_package_import_loads_neither_analysis_nor_projection():
    code = "import sys\nimport so3embed\n" + _PRINT_PACKAGE_MODULES + "import so3embed.cli\n" + _PRINT_PACKAGE_MODULES
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [str(_BASE_MODULES), str(sorted(_BASE_MODULES + ["so3embed.cli"]))]


_PAIR_TABLE = "id,qw1,qx1,qy1,qz1,qw2,qx2,qy2,qz2\np0,1,0,0,0,0,1,0,0\n"


@pytest.mark.parametrize(
    "argv,table,loaded",
    [
        (["embed", "--group", "Y"], "id,qw,qx,qy,qz\nr0,1,0,0,0\n", []),
        (["distance", "--group", "C4"], _PAIR_TABLE, []),
        (["distance", "--group", "C4", "--metric", "embedded"], _PAIR_TABLE, []),
        (["project", "--group", "C1"], "id," + ",".join(f"e{i}" for i in range(9)) + "\nr0,1,0,0,0,1,0,0,0,1\n",
         ["so3embed.projection"]),
        (["bounds", "--group", "C4", "--pairs", "10", "--no-refine"], None, ["so3embed.analysis"]),
        (["verify", "--suite", "binom"], None, ["so3embed.analysis"]),
        (["scatter", "--group", "C4", "--pairs", "10"], None, ["so3embed.analysis"]),
    ],
    ids=["embed", "distance-geodesic", "distance-embedded", "project", "bounds", "verify", "scatter"],
)
def test_a_command_loads_analysis_or_projection_only_if_it_calls_them(argv, table, loaded, tmp_path):
    # embed and distance start faster for importing neither module
    argv = [*argv, "-o", str(tmp_path / "out.csv")] if argv[0] != "verify" else argv
    if table is not None:
        (tmp_path / "in.csv").write_text(table)
        argv += ["-i", str(tmp_path / "in.csv")]
    code = (
        "import sys\n"
        "from so3embed.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(m for m in ('so3embed.analysis', 'so3embed.projection') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == str(loaded)


def test_bench_tracer_sees_the_analysis_calls_of_the_cli():
    # the commands bind the analysis names in cli on first use and keep a
    # binding that exists, so a wrapper installed before they run sees the calls
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    loader = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["bounds", "--group", "C4", "--pairs", "100", "--no-refine"]) == 0
            assert cli.main(["verify", "--suite", "isometry", "--group", "C4"]) == 0
            assert cli.main(["verify", "--suite", "rank", "--group", "C4"]) == 0
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    assert {"analysis.global_bounds", "analysis.isometry_check", "analysis.rank_check"} <= names
    assert not hasattr(cli.global_bounds, "__wrapped__")


# ---------------------------------------------------------------------------
# usage errors


@pytest.mark.parametrize(
    "argv",
    [
        ["project", "--group", "O", "--starts", "0"],
        ["project", "--group", "O", "--seed", "-1"],
        ["bounds", "--group", "C4", "--seed", "-1"],
        ["scatter", "--group", "C4", "--seed", "-1"],
        ["verify", "--seed", "-1"],
        ["bounds", "--group", "C4", "--pairs", "0"],
        ["scatter", "--group", "C4", "--pairs", "0"],
        ["verify", "--suite", "mean", "--samples", "0"],
        ["bounds", "--group", "C4", "--beta", "-1", "1"],
        ["bounds", "--group", "C4", "--beta", "nan", "1"],
        ["project", "--group", "O", "--tol", "nan"],
        ["project", "--group", "O", "--tol", "-1"],
        ["project", "--group", "O", "--tol", "inf"],
        ["project", "--group", "O", "--max-iter", "-1"],
    ],
)
def test_out_of_range_option_values_are_usage_errors(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: argument --")


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--group", "C4", "--pairs", "1_000", "--no-refine"],
        ["bounds", "--group", "C4", "--pairs", "10", "--no-refine", "--seed", "1_0"],
        ["bounds", "--group", "C4", "--pairs", "10", "--no-refine", "--beta", "1_0", "1"],
        ["scatter", "--group", "C4", "--pairs", "\u0661\u0660"],  # Arabic-Indic 10, which int reads
        ["project", "--group", "O", "--tol", "1e-1_0"],
        ["verify", "--suite", "mean", "--samples", "1_000"],
    ],
)
def test_options_take_the_number_grammar_of_table_cells(argv, capsys):
    # Python's int and float read these as 1000, 10 and so on; the cell
    # grammar has no digit underscores and no non-ASCII digits
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "line,cell",
    [
        ("beta = 1_0 1", "1_0"),
        ("alpha = 1 \u0664", "\u0664"),
        ("u = 1 0 0; 0 1_0 0", "1_0"),
        ("k = 0_4", "0_4"),
    ],
)
def test_spec_documents_take_the_number_grammar_of_table_cells(line, cell, tmp_path, capsys):
    doc = tmp_path / "spec.txt"
    doc.write_text(f"group = C\n{line}\n" + ("" if line.startswith("k") else "k = 4\n"))
    assert main(["bounds", "--spec", str(doc), "--pairs", "10", "--no-refine"]) == 2
    assert capsys.readouterr().err == f"error: {doc}: {cell!r} is not a number\n"


def test_a_long_spec_value_that_is_no_number_is_quoted_to_40_characters(tmp_path, capsys):
    doc = tmp_path / "spec.txt"
    doc.write_text("group = C\nk = 4\nbeta = 1 " + "1" * 300 + "x\n")
    assert main(["bounds", "--spec", str(doc), "--pairs", "10", "--no-refine"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {doc}: {'1' * 40!r}... (301 characters) is not a number\n"
    assert len(err.splitlines()) == 1


def test_a_group_name_takes_ascii_digits_only(tmp_path, capsys):
    doc = tmp_path / "spec.txt"
    doc.write_text("group = C\u0664\n")
    assert main(["bounds", "--spec", str(doc), "--pairs", "10", "--no-refine"]) == 2
    assert "unknown symmetry group" in capsys.readouterr().err


@pytest.mark.parametrize("group", ["C4", "Y"])
def test_embed_header_is_the_csv_writers(group, tmp_path):
    src, out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("id,qw,qx,qy,qz\nr0,1,0,0,0\n")
    assert main(["embed", "--group", group, "-i", str(src), "-o", str(out)]) == 0
    want = io.StringIO()
    n = registry_lookup(group).ambient_dimension
    csv.writer(want, lineterminator="\n").writerow(["id"] + [f"e{i}" for i in range(n)])
    assert out.read_text().splitlines(keepends=True)[0] == want.getvalue()


def test_embed_header_of_a_rank_10_spec_names_every_entry(tmp_path):
    doc, src, out = tmp_path / "spec.txt", tmp_path / "in.csv", tmp_path / "out.csv"
    doc.write_text("group = C2\nu = 0 1 0\nalpha = 10\nbeta = 1\n")
    src.write_text("id,qw,qx,qy,qz\n")
    assert main(["embed", "--spec", str(doc), "-i", str(src), "-o", str(out)]) == 0
    assert out.read_text() == "id," + ",".join(f"e{i}" for i in range(59049)) + "\n"


def test_verify_mean_loads_neither_numpy_polynomial_nor_numpy_ma_nor_fractions():
    # the design's Gauss-Legendre nodes come from the Legendre recurrence, not numpy.polynomial
    code = (
        "import sys\n"
        "from so3embed.cli import main\n"
        "assert main(['verify', '--suite', 'mean']) == 0\n"
        "print(sorted(m for m in ('numpy.polynomial', 'numpy.ma', 'fractions') if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


def test_embed_loads_neither_numpy_ma_nor_fractions(tmp_path):
    # both cost import time and memory at every launch and serve no output of embed
    src = tmp_path / "in.csv"
    src.write_text("id,qw,qx,qy,qz\nr0,1,0,0,0\n")
    code = (
        "import sys\n"
        "from so3embed.cli import main\n"
        "assert main(['embed', '--group', 'Y', '-i', sys.argv[1], '-o', sys.argv[2]]) == 0\n"
        "print(sorted(m for m in ('numpy.ma', 'fractions') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src), str(tmp_path / "out.csv")], capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv,table",
    [
        (["embed", "--group", "C4"], "id,qw,qx,qy,qz\nr0,1,0,0,0\n"),
        (["project", "--group", "C1"], "id," + ",".join(f"e{i}" for i in range(9)) + "\nr0,1,0,0,0,1,0,0,0,1\n"),
        (["distance", "--group", "C4"], "id,qw1,qx1,qy1,qz1,qw2,qx2,qy2,qz2\np0,1,0,0,0,1,0,0,0\n"),
        (["bounds", "--group", "C4", "--pairs", "10", "--no-refine"], None),
        (["scatter", "--group", "C4", "--pairs", "10"], None),
    ],
)
def test_unwritable_output_path_is_a_data_error(argv, table, tmp_path, capsys):
    if table is not None:
        src = tmp_path / "in.csv"
        src.write_text(table)
        argv = [*argv, "-i", str(src)]
    out = tmp_path / "missing" / "out.csv"
    assert main([*argv, "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"


def test_missing_group_and_spec_is_a_usage_error():
    out = run_cli("embed", stdin="id,qw,qx,qy,qz\n")
    assert out.returncode == 1


def test_unknown_group_is_a_usage_error():
    out = run_cli("embed", "--group", "C9", stdin="id,qw,qx,qy,qz\n")
    assert out.returncode == 1
    assert "C9" in out.stderr


def test_fold_count_past_the_limit_is_a_usage_error_or_a_spec_error(tmp_path, capsys):
    # rejected before any table is built: the closure check of C_k costs O(k^2 log k)
    assert main(["distance", "--group", "C1001"]) == 1
    assert "at most 1000" in capsys.readouterr().err
    doc = tmp_path / "spec.txt"
    doc.write_text("group = D1001\nu = 1 0 0\nalpha = 2\nbeta = 1\n")
    src = tmp_path / "in.csv"
    src.write_text("id,qw,qx,qy,qz\nr0,1,0,0,0\n")
    out = tmp_path / "out.csv"
    assert main(["embed", "--spec", str(doc), "-i", str(src), "-o", str(out)]) == 2
    assert "at most 1000" in capsys.readouterr().err
    assert not out.exists()
