"""Command line interface.

Subcommands
-----------
embed     orientation CSV -> flattened embedding coordinate CSV
project   ambient coordinate CSV -> representative quaternion CSV
distance  orientation-pair CSV -> geodesic or embedded distances
verify    numerical verification suites with PASS/FAIL report
bounds    global distance-distortion constants for one spec
scatter   (geodesic, embedded) distance samples for plotting

Orientations are ingested either as quaternions (columns qw,qx,qy,qz, scalar
first; norm may deviate from 1 by at most 1e-3) or as ZYZ Euler angles
(columns alpha,beta,gamma with beta in [0, pi]; --degrees switches the unit).
alpha and gamma must lie in [-1e6, 1e6] rad after that switch: a larger angle
keeps fewer than ten digits modulo 2 pi, and at 1e17 rad none.
A numeric cell holds one decimal number: optional sign, ASCII digits with an
optional decimal point, optional exponent, surrounding spaces ignored.  Digit
underscores and non-ASCII digits, which Python's float reads (1_0 as 10), inf
and nan are data errors that name the cell.
CSV is comma-separated UTF-8 with a header row; numeric output carries 17
significant digits so 64-bit floats round-trip exactly, and every command is
deterministic given --seed: identical invocations produce identical bytes.
embed, project and distance validate every row before the output is opened.
Spec ranks go up to 30; embed and project write or read dense rows, 3^alpha
entries per component, and take ranks up to 12.

Exit codes: 0 success, 1 usage error, 2 data error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import math
import sys
from contextlib import ExitStack
from functools import lru_cache
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .embedding import (
    TABLE_GROUPS,
    EmbeddingSpec,
    _parse_number,
    _quoted,
    _row_blocks,
    class_norms,
    class_values,
    dense_class_columns,
    expected_hull_dimension,
    parse_spec_document,
    radius,
    registry_lookup,
)
from .so3 import fundamental_quaternions, group_elements, normalized_quaternions, quaternions_from_euler_zyz
from .so3 import quaternions_to_matrices, quotient_angles, relative_quaternions
from .tensors import _classes, binom_identity_check

# Bound but not called: bench/spans.py traces these names in this module.
from .embedding import embed, embedded_distance  # noqa: F401
from .so3 import Rotation, coset_distance, fundamental_representative  # noqa: F401

# Names of ``analysis`` and ``projection`` bound here by ``_bind`` in the
# commands that call them, so that ``embed`` and ``distance`` load neither
# module.  ``mean_check`` and ``project`` are bound but not called, as above.
_LAZY = {
    "analysis": (
        "_mean_norm",
        "b_norms_closed_form",
        "derive_beta",
        "differential_at_identity",
        "distance_scatter",
        "global_bounds",
        "isometry_check",
        "mean_check",
        "rank_check",
    ),
    "projection": ("_ZERO_ROW", "_NonFiniteRowError", "_project_table", "project"),
}


def _bind(module: str) -> None:
    """Import ``module`` and bind its names of ``_LAZY`` here.  A name already
    bound is kept, so a wrapper set on this module (bench/spans.py) still sees
    the calls."""
    mod = importlib.import_module(f".{module}", __package__)
    names = globals()
    for name in _LAZY[module]:
        if name not in names:
            names[name] = getattr(mod, name)


def __getattr__(name: str):
    """A name of ``_LAZY``, bound on first access as a command binds it."""
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["entry", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; remap to the usage-error code.
    def error(self, message):
        raise _UsageError(message)


def _number(kind, low, strict: bool = False):
    """An argparse type: a finite ``kind`` value of at least ``low``, or above it if ``strict``."""
    def parse(text: str):
        value = _parse_number(text, kind)
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(f"expected a finite value {'>' if strict else '>='} {low}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its "invalid int value" message
    return parse


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# CSV plumbing


def _open(stack: ExitStack, path: str | None, mode: str):
    """``path`` opened in ``mode`` "r" or "w"; no path or "-" is stdin or stdout."""
    if path is None or path == "-":
        return sys.stdin if mode == "r" else sys.stdout
    try:
        return stack.enter_context(open(path, mode, encoding="utf-8", newline=""))
    except OSError as exc:
        raise _DataError(f"cannot {'read' if mode == 'r' else 'write'} {path}: {exc.strerror}") from None


def _read_header(stack: ExitStack, path: str | None, raw: bool = False):
    """The rows of a table (``_table_rows``, ``raw`` passed on) and its header
    row, the first non-blank row.  A UTF-8 byte order mark at the start of the
    input is dropped; a header that starts with one is split, as is every row
    of a table read without ``raw``."""
    rows = _table_rows(_open(stack, path, "r"), raw)
    for n, (_, cells) in enumerate(rows):
        if n == 0 and cells and cells[0].startswith("\ufeff"):
            cells = _cells(cells)
            cells[0] = cells[0][1:]
        if not _blank(cells):
            return rows, cells
    raise _DataError("input is empty: missing header row")


def _table_rows(fh, raw: bool = False):
    """``(line number, cells)`` of every row of the text file ``fh``, as
    ``csv.reader`` and its ``line_num`` give them, when ``fh`` ends its lines
    at CR, LF and CRLF (``newline=""`` or ``None``).  A line without a quote is
    split at its commas; a line with one is read by ``csv.reader``, which reads
    on through a quoted line break.  A row that ``csv`` cannot read is a data
    error that names its line.  With ``raw``, a line without a quote that
    starts with neither a comma nor whitespace, and so is not blank, is given
    as its text, line end included, in place of its cells: ``_cells`` splits
    it, and ``_read_rows`` first checks it against a dense class layout."""
    lines = iter(fh)
    n = 0
    for line in lines:
        n += 1
        if '"' in line:
            cells, n = _csv_row(line, lines, n)
        elif line in ("\n", "\r\n", "\r"):
            cells = []
        elif raw and line[0] != "," and not line[0].isspace():
            cells = line
        else:  # as _cells splits a text, inline: a narrow table pays no call per line
            cells = line.split(",")
            cells[-1] = cells[-1].rstrip("\r\n")
        del line  # a row's text is held once, by its cells
        yield n, cells


def _cells(row) -> list[str]:
    """The cells of a row of ``_table_rows``: the row itself, or the text of a
    raw row split at its commas, its line end dropped from the last cell."""
    if not isinstance(row, str):
        return row
    cells = row.split(",")
    cells[-1] = cells[-1].rstrip("\r\n")
    return cells


def _csv_row(line: str, lines, n: int):
    """The cells of the row that starts with ``line``, line ``n``, read by
    ``csv.reader`` on through ``lines``, and the number of its last line."""
    reader = csv.reader(chain((line,), lines))
    try:
        return next(reader), n + reader.line_num - 1
    except csv.Error as exc:
        raise _DataError(f"line {n + reader.line_num - 1}: {exc}") from None


def _blank(cells) -> bool:
    """True if every cell is whitespace; a row whose first cell is not is never
    joined, so a wide row costs one test.  The text of a raw row (``_table_rows``)
    starts with a character that is not whitespace, so it is never blank
    either."""
    return not cells or (not cells[0].strip() and not "".join(cells).strip())


def _decade(m: int) -> float:
    """The least double that is at least ``10**m``, for ``m <= 0``."""
    x = float(f"1e{m}")
    num, den = x.as_integer_ratio()
    return math.nextafter(x, 1.0) if num * 10**-m < den else x


# 2^27 + 1: Veltkamp's split of x into two 26-bit halves starts from x * _VELTKAMP
_VELTKAMP = 134217729.0


@lru_cache(maxsize=None)
def _text_tables():
    """The lookup tables of :func:`_texts`, built on first use.

    ``words``: the numbers 0-9999 as 4-byte records of four digits, then
    (at ``+ 10000``) without their trailing zeros, null-padded, so 10000 is
    empty.  ``head``: 8-byte records ``,[-]d.`` for ``k = 0`` and
    ``,[-]0.0..d`` (``-k - 1`` zeros) for ``k`` in -4..-1, null-padded, at
    ``(k + 4) 40 + 20 negative + 2 d + point``, split in two 4-byte halves.
    ``decades``: the least doubles at least 1e-3, 1e-2, 1e-1 and 1.
    ``scales``: ``10^(16 - k)`` at ``k + 4`` for ``k`` in -4..0, exact, and
    its Veltkamp halves.
    """
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # of 0-9999, the first digit first
    kept = digits != 0
    for j in (2, 1, 0):
        kept[j] |= kept[j + 1]  # a digit stays if it or a later one is nonzero
    digits += ord("0")
    words = np.concatenate([digits, digits * kept], axis=1).T.copy()
    heads = [
        ("," + neg + ("0." + "0" * (-k - 1) + d if k < 0 else d + point)).encode().ljust(8, b"\0")
        for k in range(-4, 1) for neg in ("", "-") for d in "0123456789" for point in ("", ".")
    ]
    head = np.frombuffer(b"".join(heads), np.uint32).reshape(-1, 2).T.copy()
    scales = np.array([float(10**p) for p in range(20, 15, -1)])
    split = _VELTKAMP * scales
    high = split - (split - scales)
    tables = words.view(np.uint32).ravel(), head, np.array([_decade(m) for m in range(-3, 1)]), scales, high, scales - high
    for table in tables:
        table.setflags(write=False)
    return tables


def _texts(values: np.ndarray) -> list[str]:
    """``"%.17g" % v`` for every float ``v`` of the 1-D array ``values``, the
    same bytes, laid out by numpy for most of them.

    A ``v`` with ``1e-4 <= |v| < 10`` and a nonzero fractional digit prints as
    ``[-]d.ddd`` or ``[-]0.0..ddd`` without trailing zeros.  Its decimal
    exponent ``k`` comes from exact comparisons with the least doubles at
    least 1e-3, 1e-2, 0.1 and 1.  Its 17 digits are ``|v| 10^(16-k)`` rounded
    half to even: the product is ``hi + lo`` exactly (Dekker's product, with
    ``10^(16-k)`` exact), ``hi`` an even integer in [1e16, 1e17], so the
    digits are ``hi + rint(lo)``, held exactly as a leading digit and four
    4-digit words.  Each value is one 24-byte record: a comma, the sign and
    the digits up to the first fraction digit (``head``), then the four
    words, the last nonzero one without its trailing zeros and the ones
    after it empty.  One ``translate`` drops the nulls and one ``split`` makes
    the strings.  Other values (+-0, subnormals, ``|v| >= 10``, ``|v| <
    1e-4``, integers, and any that rounds up to the next decade, which no
    double in the range does) go through ``%``.
    """
    words, head, decades, scales, high, low_part = _text_tables()
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 10.0) & (np.floor(a) != a)
    a[~fast] = 1.5  # any fast value: the others' records are replaced
    i = decades.searchsorted(a, side="right")  # k + 4
    hi = a * scales.take(i)
    split = _VELTKAMP * a
    ah = split - (split - a)
    al = a - ah
    sh, sl = high.take(i), low_part.take(i)
    lo = ah * sh  # lo = ((ah sh - hi) + ah sl + al sh) + al sl, left to right
    lo -= hi
    lo += ah * sl
    lo += al * sh
    lo += al * sl
    del a, split, ah, al, sh, sl  # each temporary goes once spent: they set the peak of a write
    top = np.floor(hi / 1e8)  # the digits are top 1e8 + low; the quotient may round top up by one
    low = hi
    low -= top * 1e8
    low += np.rint(lo, out=lo)
    carry = np.floor(low / 1e8)
    top += carry
    low -= carry * 1e8
    fast &= top < 1e9
    lead = np.floor(top / 1e8)
    top -= lead * 1e8
    quad = np.empty((4, len(values)))
    np.floor(top / 1e4, out=quad[0])
    np.subtract(top, quad[0] * 1e4, out=quad[1])
    np.floor(low / 1e4, out=quad[2])
    np.subtract(low, quad[2] * 1e4, out=quad[3])
    del hi, lo, top, low, carry
    rest = quad[1:] == 0  # row j: the words after word j are all zero
    rest[1] &= rest[2]
    rest[0] &= rest[1]
    quad[:3] += 1e4 * rest
    quad[3] += 1e4
    code = (40 * i + 20 * (values < 0) + 2 * lead + ((i == 4) & (quad[0] != 1e4))).astype(np.intp)
    records = np.empty((6, len(values)), np.uint32)
    head.take(code, axis=1, out=records[:2], mode="clip")  # a record replaced below may index past the table
    words.take(quad.astype(np.intp), out=records[2:], mode="clip")
    del i, lead, quad, rest, code
    texts = records.T.tobytes().translate(None, b"\0").decode("ascii").split(",")
    del texts[0]
    for n in np.flatnonzero(~fast).tolist():
        texts[n] = "%.17g" % values[n]
    return texts


# Floats formatted per call of ``_texts``: a block's records and strings stay
# small whatever the caller's block.
_WRITE_CELLS = 2**12


def _write_rows(fh, ids, values: np.ndarray, take: list[int] | None = None) -> None:
    """One line per row: the id, quoted as the csv module quotes it (no id
    column if ``ids`` is None), then the floats of ``values`` ``(N, C)`` at 17
    significant digits (``%.17g``).  Blocks of at most ``_WRITE_CELLS``
    floats are formatted by one :func:`_texts` call.  Without ``take`` a
    block of rows is joined by one ``%`` and written at once.  ``take``, a
    list of at least two column indices, repeats them in its order, as
    ``embedding.dense_class_columns`` expands class values: each row gathers
    its formatted floats."""
    width = values.shape[1]
    step = max(1, _WRITE_CELLS // width)
    line = "%s" + ",".join(["%s"] * width) + "\n"  # the id cell and its comma, if any, then the floats
    pick = itemgetter(*take) if take else None
    for lo in range(0, len(values), step):
        texts = _texts(values[lo : lo + step].ravel())
        n = len(texts) // width
        starts = [""] * n if ids is None else _heads(ids[lo : lo + step])
        if take:
            for at, start in zip(range(0, len(texts), width), starts):
                fh.write(start + ",".join(pick(texts[at : at + width])) + "\n")
        else:
            args = [None] * (n * (width + 1))
            args[:: width + 1] = starts
            for k in range(width):
                args[k + 1 :: width + 1] = texts[k::width]
            fh.write((line * n) % tuple(args))
        del texts  # before the next block's strings are made


def _heads(ids) -> list[str]:
    """``"<id>,"`` for every id, quoted as the csv module quotes it.  Ids none
    of which holds a comma, a quote or a line break need no quoting; the
    others go through ``csv.writer``."""
    joined = "".join(ids)
    if not ("," in joined or '"' in joined or "\r" in joined or "\n" in joined):
        return [i + "," for i in ids]
    heads = []  # "<id>,\n" per row: the line terminator takes part in the quoting rule
    csv.writer(SimpleNamespace(write=heads.append), lineterminator="\n").writerows((i, "") for i in ids)
    return [head[:-1] for head in heads]


_QUAT_COLS = ("qw", "qx", "qy", "qz")
_EULER_COLS = ("alpha", "beta", "gamma")


def _column(header, name: str) -> int | None:
    """The first column whose header cell, stripped and lowercased, is ``name``."""
    return next((i for i, cell in enumerate(header) if cell.strip().lower() == name), None)


def _rotation_layout(header, suffix: str = ""):
    for kind, names in (("quaternion", _QUAT_COLS), ("euler", _EULER_COLS)):
        cols = [_column(header, n + suffix) for n in names]
        if None not in cols:
            return kind, cols
    need_q = ",".join(n + suffix for n in _QUAT_COLS)
    need_e = ",".join(n + suffix for n in _EULER_COLS)
    raise _DataError(f"header must contain columns {need_q} or {need_e}")


def _id_column(header) -> int:
    idc = _column(header, "id")
    if idc is None:
        raise _DataError("header must contain an 'id' column")
    return idc


def _id_and_width(header) -> tuple[int, int]:
    """The ``id`` column of a header row (``_id_column``) and its cell count.
    The text of a raw header (``_table_rows``) whose first cell reads ``id`` is
    not split: its width is one more than its comma count.  Any other is split
    (``_cells``)."""
    if isinstance(header, str):
        comma = header.find(",")
        if (header if comma < 0 else header[:comma]).strip().lower() == "id":
            return 0, header.count(",") + 1
        header = _cells(header)
    return _id_column(header), len(header)


def _cell(row, col: int, line: int) -> str:
    if col >= len(row):
        raise _DataError(f"line {line}: expected at least {col + 1} columns, found {len(row)}")
    return row[col].strip()


# Cells converted at a time.  A block's text and conversion dicts are held at
# once: blocks of 2**11 cells left the peak RSS of a process that embeds
# 2,000-row tables about 0.2 MB higher, at the same speed.
_BLOCK_CELLS = 2**9
# Trailing digits of a flat index that one block of the class-layout check
# spans: 3^3 = 27 cells, whose classes are fixed by the counts of the other
# digits (``_dense_layout``).  A clean Y row took 1.3 ms at 3 digits, 1.9 ms
# at 2 and 1.5 ms at 4; a D6 row 0.11, 0.08 and 0.17 ms.
_LAYOUT_DIGITS = 3


def _picker(cols):
    """A function that gives the cells ``cols`` (at least two) of a row, in
    their order, and raises IndexError on a row too short for them.  A
    ``range`` of step 1 is taken as one slice, so no index is held per cell."""
    if isinstance(cols, range) and cols.step == 1:
        lo, hi = cols.start, cols.stop

        def pick(cells):
            if len(cells) < hi:
                raise IndexError
            return cells[lo:hi]

        return pick
    return itemgetter(*cols)


def _read_rows(rows, cols, idc: int, alpha: tuple[int, ...] | None = None):
    """The cells ``cols`` (at least two, a list or a ``range``) of every
    remaining row of ``rows`` (``_table_rows``) as one ``(N, len(cols))``
    array of finite floats, with the id cell and the line number of every row.
    Rows are converted in blocks of about ``_BLOCK_CELLS`` cells, cell by cell
    (``_block_floats``), straight into the table, which grows in place by a
    quarter when full, so no block's text outlives it and the floats are held
    once.

    With the ranks ``alpha`` of a dense row, ``rows`` come from
    ``_table_rows(fh, raw=True)`` and each row is a block of its own.  If
    ``idc`` is 0, ``cols`` must be ``range(1, 1 + sum 3^alpha_i)``, and the
    text of a raw row is first checked against the class layout and converted
    once per class text (``_layout_floats``); a row that fails the check, and
    any other row, is split and read as above, so the floats, ids, line
    numbers and data errors do not depend on the check."""
    pick = _picker(cols)
    table = np.empty((0, len(cols)))
    ids, lines = [], []
    filled = ((line, cells) for line, cells in rows if not _blank(cells))
    step = 1 if alpha else max(1, _BLOCK_CELLS // len(cols))
    while block := list(islice(filled, step)):
        n = len(ids)
        if n + len(block) > len(table):
            table.resize((max(n + len(block), n + 1 + n // 4), len(cols)), refcheck=False)  # realloc, no second table
        out = table[n : n + len(block)]
        if alpha and isinstance(block[0][1], str):
            line, text = block.pop()
            ident = _layout_floats(text, alpha, out[0]) if idc == 0 else None
            if ident is not None:
                ids.append(ident)
                lines.append(line)
                continue
            block.append((line, _cells(text)))
            del text
        if not _block_floats(block, pick, out):
            for row, (line, cells) in zip(out, block):  # the first bad row, and its first bad cell, is named
                _row_floats(cells, cols, line, row)
                _cell(cells, idc, line)
        try:
            ids += [cells[idc].strip() for _, cells in block]
        except IndexError:  # a short row: ``_cell`` names it
            ids += [_cell(cells, idc, line) for line, cells in block]
        lines += [line for line, _ in block]
    table.resize((len(ids), len(cols)), refcheck=False)
    return table, ids, lines


def _block_floats(block, pick, out: np.ndarray) -> bool:
    """Write the cells of the rows ``block`` that ``pick`` takes into ``out`` if
    all of them are finite numbers, one ``float`` call per cell
    (``_cell_floats``), so ``_read_rows`` gives the bits of ``float`` per
    cell, or the same data error.  False, with ``out`` unwritten, if a cell is
    missing or a conversion gives None; ``_row_floats`` then converts the
    block again under the number grammar."""
    try:
        picked = [pick(cells) for _, cells in block]
    except IndexError:
        return False
    values = _cell_floats(picked, out.size)
    if values is None:
        return False
    out.reshape(-1)[:] = values
    return True


def _plain(texts) -> bool:
    """True if the joined ``texts`` hold no digit underscore and no non-ASCII
    character: Python's ``float`` reads both (``1_0`` is 10, an Arabic-Indic
    digit two is 2.0), and the number grammar has neither."""
    joined = "".join(texts)
    return "_" not in joined and joined.isascii()


def _cell_floats(picked, size: int):
    """The ``size`` floats of the cells of the rows ``picked``, one ``float``
    call per cell, or None if the cells are not ``_plain``, or a cell is no
    number or is not finite."""
    cells = list(chain.from_iterable(picked))
    if not _plain(cells):
        return None
    try:
        values = np.fromiter(map(float, cells), float, size)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


@lru_cache(maxsize=None)
def _dense_layout(alpha: tuple[int, ...]):
    """The class layout of a dense row of ranks ``alpha``, for
    ``_layout_floats``: ``(components, n_classes)``.

    The flat index of a rank-``a`` component is cut into a prefix of ``a - h``
    digits and a block of ``h = min(a, _LAYOUT_DIGITS)``, so a block is 3^h
    consecutive cells, and the digit counts of its prefix, its pattern, fix the
    class of every cell in it.  Per component, ``(a, keys, patterns)``:
    ``keys[b]`` is the pattern of block ``b``, the class of its prefix among
    those of rank ``a - h``, and ``patterns[k]`` the class of every cell of a
    block of pattern ``k``, numbered over the classes of all components side
    by side, ``n_classes`` of them.  Only these short lists are kept;
    ``tensors._classes`` holds the maps that expand a component."""
    components, first = [], 0
    for a in alpha:
        h = min(a, _LAYOUT_DIGITS)
        keys = _classes(a - h)[0].tolist()
        cells = _classes(a)[0].reshape(len(keys), 3**h) + first
        patterns = [None] * len(_classes(a - h)[1])
        for b, key in enumerate(keys):
            if patterns[key] is None:
                patterns[key] = cells[b].tolist()
        components.append((a, keys, patterns))
        first += len(_classes(a)[1])
    return tuple(components), first


def _layout_floats(text: str, alpha: tuple[int, ...], out: np.ndarray) -> str | None:
    """Write the dense row of ranks ``alpha`` that follows the id cell of the
    raw row ``text`` into ``out`` and give the id, stripped, if every cell of a
    class holds the same text (``_dense_layout``) and the class texts are
    finite numbers; else None, with ``out`` unwritten.

    The first block of each pattern is read cell by cell, and each cell is
    checked against the text already seen for its class, or gives it; every
    later block of that pattern is one ``startswith`` of the first one's
    text, its closing comma included.  Only a row whose text is used up
    exactly, no cell short or over, passes.  Each class text is then
    converted once, as ``_cell_floats`` converts a cell, and expanded by its
    class map in place."""
    components, n_classes = _dense_layout(alpha)
    stop = len(text)
    while stop and text[stop - 1] in "\r\n":  # the line end, as _cells drops it
        stop -= 1
    pos = head = text.find(",", 0, stop) + 1
    if not pos:
        return None
    texts = [None] * n_classes
    for _, keys, patterns in components:
        firsts = [None] * len(patterns)  # the text of the first block of each pattern, its comma included
        for key in keys:
            block = firsts[key]
            if block is not None and text.startswith(block, pos, stop):
                pos += len(block)
                continue
            start = pos  # a first block, or the row's last block, which has no closing comma
            for c in patterns[key]:
                if pos > stop:
                    return None
                end = text.find(",", pos, stop)
                if end < 0:
                    end = stop
                cell, known = text[pos:end], texts[c]
                if known is None:
                    texts[c] = cell
                elif cell != known:
                    return None
                pos = end + 1
            if block is None:
                firsts[key] = text[start:pos]
    if pos != stop + 1 or not _plain(texts):
        return None
    try:
        values = np.fromiter(map(float, texts), float, n_classes)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    at = first = 0
    for a, _, _ in components:
        ids, count = _classes(a)[0], len(_classes(a)[1])
        values[first : first + count].take(ids, out=out[at : at + len(ids)])
        at, first = at + len(ids), first + count
    return text[: head - 1].strip()


def _row_floats(cells, cols, line: int, out: np.ndarray) -> None:
    """Write the cells ``cols`` of one row into ``out`` as finite floats, cell by
    cell under the number grammar (``embedding._parse_number``), naming the
    first bad cell."""
    for i, c in enumerate(cols):
        text = _cell(cells, c, line)
        try:
            value = _parse_number(text)
        except ValueError as exc:
            raise _DataError(f"line {line}: {exc}") from None
        if not math.isfinite(value):
            raise _DataError(f"line {line}: {_quoted(text)} is not a finite number")
        out[i] = value


def _orientations(kind: str, vals: np.ndarray, lines, degrees: bool) -> np.ndarray:
    """Unit quaternions ``(N, 4)`` from the orientation cells of every row;
    ``lines`` holds the rows' line numbers."""
    if kind == "quaternion":
        norms = np.linalg.norm(vals, axis=1)
        bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-3)
        if bad.size:
            k = bad[0]
            raise _DataError(f"line {lines[k]}: quaternion norm {norms[k]:.6g} deviates from 1 by more than 1e-3")
        return normalized_quaternions(vals)
    if degrees:
        vals = np.radians(vals)
    bad = np.flatnonzero(~((vals[:, 1] >= 0.0) & (vals[:, 1] <= math.pi + 1e-12)))
    if bad.size:
        k = bad[0]
        raise _DataError(f"line {lines[k]}: Euler beta must lie in [0, pi], got {vals[k, 1]:.6g}")
    big = np.abs(vals[:, ::2]) > 1e6  # alpha and gamma, in radians
    bad = np.flatnonzero(big.any(axis=1))
    if bad.size:
        k = bad[0]
        name, value = ("alpha", vals[k, 0]) if big[k, 0] else ("gamma", vals[k, 2])
        raise _DataError(f"line {lines[k]}: Euler {name} must lie in [-1e6, 1e6] rad, got {float(value)!r} rad")
    return quaternions_from_euler_zyz(vals)


# ---------------------------------------------------------------------------
# spec resolution


def _resolve_spec(args) -> EmbeddingSpec:
    if getattr(args, "spec", None):
        try:
            text = Path(args.spec).read_text(encoding="utf-8")
        except OSError as exc:
            raise _DataError(f"cannot read {args.spec}: {exc.strerror}") from None
        try:
            return parse_spec_document(text)
        except ValueError as exc:
            raise _DataError(f"{args.spec}: {exc}") from None
    if getattr(args, "group", None) is None:
        raise _UsageError("either --group or --spec is required")
    try:
        return registry_lookup(args.group.strip().upper(), args.variant)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _dense_spec(args) -> tuple[EmbeddingSpec, int]:
    """The spec and its dense row width; a rank past the dense-storage limit is a data error."""
    spec = _resolve_spec(args)
    try:
        return spec, spec.ambient_dimension
    except ValueError as exc:
        raise _DataError(str(exc)) from None


# ---------------------------------------------------------------------------
# commands


def cmd_embed(args) -> int:
    spec, dim = _dense_spec(args)
    with ExitStack() as stack:
        reader, header = _read_header(stack, args.input)
        kind, cols = _rotation_layout(header)
        idc = _id_column(header)
        # Every row is validated before the output is opened, so a data error
        # leaves no partial file behind.
        vals, ids, lines = _read_rows(reader, cols, idc)
        quats = _orientations(kind, vals, lines, args.degrees)
        fh = _open(stack, args.output, "w")
        fh.write("id" + (",e%d" * dim) % tuple(range(dim)) + "\n")  # no cell needs quoting
        take = dense_class_columns(spec)
        for block in _row_blocks(len(quats), dim):
            comps = class_values(spec, quaternions_to_matrices(quats[block]))
            _write_rows(fh, ids[block], np.concatenate(comps, axis=1), take)
    return EXIT_OK


def cmd_project(args) -> int:
    _bind("projection")
    spec, dim = _dense_spec(args)
    wide = dim > _BLOCK_CELLS  # a row of more than a block: its text is checked against the class layout
    with ExitStack() as stack:
        reader, header = _read_header(stack, args.input, raw=wide)
        idc, width = _id_and_width(header)
        del header  # a Y header is 59,050 cells: dropped before the rows are read
        coord_cols = range(1, width) if idc == 0 else [*range(idc), *range(idc + 1, width)]
        if len(coord_cols) != dim:
            raise _DataError(f"expected {dim} coordinate columns for this spec, found {len(coord_cols)}")
        table, ids, lines = _read_rows(reader, coord_cols, idc, spec.alpha if wide else None)
        try:
            quats, _, res, iters, conv, zero = _project_table(spec, table, args.tol, args.max_iter, args.starts, args.seed)
        except _NonFiniteRowError as exc:
            raise _DataError(f"line {lines[exc.row]}: the squared norm of the coordinates overflows") from None
        except MemoryError:  # rows go in batches: only the start set can exhaust memory
            raise _UsageError(f"--starts {args.starts}: the start set does not fit in memory") from None
        quats[~zero] = normalized_quaternions(fundamental_quaternions(quats[~zero], spec.group))
        writer = csv.writer(_open(stack, args.output, "w"), lineterminator="\n")
        writer.writerow(["id", "qw", "qx", "qy", "qz", "residual", "iterations", "converged", "error"])
        for ident, q, d, k, c, z in zip(ids, quats.tolist(), res.tolist(), iters.tolist(), conv, zero):
            if z:
                writer.writerow([ident, "", "", "", "", "", "", "", _ZERO_ROW])
                continue
            writer.writerow([ident, *map(_fmt, q), _fmt(d), str(k), "true" if c else "false", ""])
        if zero.any():
            print(f"warning: {np.count_nonzero(zero)} degenerate row(s) could not be projected", file=sys.stderr)
    return EXIT_OK


def cmd_distance(args) -> int:
    if args.metric == "embedded" or args.spec:
        spec = _resolve_spec(args)
        group = spec.group
    else:
        if args.group is None:
            raise _UsageError("either --group or --spec is required")
        try:
            group = group_elements(args.group.strip().upper())
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        spec = None
    with ExitStack() as stack:
        reader, header = _read_header(stack, args.input)
        idc = _id_column(header)
        kind1, cols1 = _rotation_layout(header, "1")
        kind2, cols2 = _rotation_layout(header, "2")
        vals, ids, lines = _read_rows(reader, cols1 + cols2, idc)
        q1 = _orientations(kind1, vals[:, : len(cols1)], lines, args.degrees)
        q2 = _orientations(kind2, vals[:, len(cols1) :], lines, args.degrees)
        fh = _open(stack, args.output, "w")
        fh.write("id,distance\n")
        geodesic = args.metric == "geodesic"
        # a row takes the group's dot products, or the class monomials of every orbit vector
        width = len(group) if geodesic else spec.monomial_width
        for block in _row_blocks(len(q1), width):
            if geodesic:
                d = quotient_angles(relative_quaternions(q1[block], q2[block]), group.quaternions)
            else:
                here = class_values(spec, quaternions_to_matrices(q1[block]))
                there = class_values(spec, quaternions_to_matrices(q2[block]))
                d = class_norms(spec, [v1 - v2 for v1, v2 in zip(here, there)])
            _write_rows(fh, ids[block], d[:, None])
    return EXIT_OK


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _verify_checks(suite: str, groups, seed: int):
    """Yield (report_line, passed) pairs for the requested suite."""
    if suite in ("isometry", "all"):
        for name in groups:
            report = isometry_check(registry_lookup(name))
            yield (
                f"isometry {name}: max defect {report.max_defect:.3e} {_verdict(report.is_isometric)}",
                report.is_isometric,
            )
    if suite in ("norms", "all"):
        for k in range(3, 9):
            closed = np.array(b_norms_closed_form(k))
            spec = EmbeddingSpec(group_elements("C", k), ((0.0, 1.0, 0.0),), (k,), (1.0,), centered=False)
            numeric = np.array([sum(float(np.sum(t * t)) for t in d) for d in differential_at_identity(spec)])
            defect = float(np.max(np.abs(numeric - closed)))
            ok = defect < 1e-10
            yield f"norms k={k}: max defect {defect:.3e} {_verdict(ok)}", ok
        for name in ("C3", "C4", "C6", "D3", "D4", "D6"):
            got = derive_beta(name[0], int(name[1:]))
            want = registry_lookup(name).beta
            defect = max(abs(a - b) for a, b in zip(got, want))
            ok = defect < 1e-12
            yield f"beta {name}: max defect {defect:.3e} {_verdict(ok)}", ok
    if suite in ("mean", "all"):
        # Exact means, each group on its own quadrature; the bound is the
        # rounding bound derived in analysis._mean_norm.  Every norm is taken
        # before the first line is printed: taking each between printed lines
        # read about 0.1 MB more bench certify peak_rss_mb and 2% more wall_s.
        specs = [registry_lookup(name) for name in groups]
        for name, spec, value in zip(groups, specs, [_mean_norm(spec) for spec in specs]):
            bound = 1e-12 * radius(spec)
            ok = value < bound
            yield f"mean {name}: norm {value:.3e} bound {bound:.3e} {_verdict(ok)}", ok
    if suite in ("rank", "all"):
        for name in groups:
            spec = registry_lookup(name)
            expected = expected_hull_dimension(spec)
            got = rank_check(spec, n_samples=max(500, 2 * expected), seed=seed)
            ok = got == expected
            yield f"rank {name}: rank {got} expected {expected} {_verdict(ok)}", ok
    if suite in ("binom", "all"):
        for alpha in range(2, 31, 2):
            lhs, rhs = binom_identity_check(alpha)
            ok = lhs == rhs
            yield f"binom alpha={alpha}: {lhs} == {rhs} {_verdict(ok)}", ok


def cmd_verify(args) -> int:
    name = args.group.strip().upper()
    if name == "ALL":
        groups = TABLE_GROUPS
    elif name in TABLE_GROUPS:
        groups = (name,)
    else:
        raise _UsageError(f"no registered embedding for group {args.group!r}")
    _bind("analysis")
    failures = 0
    for text, ok in _verify_checks(args.suite, groups, args.seed):
        print(text)
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} check(s) FAILED", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_bounds(args) -> int:
    _bind("analysis")
    spec = _resolve_spec(args)
    if args.beta is not None:
        betas = tuple(args.beta)
        if len(betas) != spec.n_components:
            raise _UsageError(f"--beta needs {spec.n_components} values for this spec, got {len(betas)}")
        spec = EmbeddingSpec(spec.group, spec.u, spec.alpha, betas, centered=spec.centered)
    est = global_bounds(spec, n_pairs=args.pairs, refine=args.refine, seed=args.seed)
    with ExitStack() as stack:
        writer = csv.writer(_open(stack, args.output, "w"), lineterminator="\n")
        writer.writerow(["group", "variant", "c_min", "c_max", "ratio", "pairs", "refine_evaluations"])
        writer.writerow(
            [
                spec.group.name,
                "custom" if args.beta is not None or args.spec else args.variant,
                _fmt(est.c_min),
                _fmt(est.c_max),
                _fmt(est.c_max / est.c_min),
                str(est.sample_count),
                str(est.refine_evaluations),
            ]
        )
    return EXIT_OK


def cmd_scatter(args) -> int:
    _bind("analysis")
    spec = _resolve_spec(args)
    points = distance_scatter(spec, n_pairs=args.pairs, seed=args.seed)
    with ExitStack() as stack:
        fh = _open(stack, args.output, "w")
        fh.write("geodesic,embedded\n")
        _write_rows(fh, None, points)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_spec_flags(p: argparse.ArgumentParser):
    p.add_argument("--group", help="registered group name (C1, C2, C3, C4, C6, D2, D3, D4, D6, T, O, Y)")
    p.add_argument("--variant", choices=("isometric", "arnold"), default="isometric", help="registry row to use")
    p.add_argument("--spec", help="path to a spec document (overrides --group/--variant)")


def _add_io_flags(p: argparse.ArgumentParser):
    p.add_argument("-i", "--input", help="input CSV path (default: stdin)")
    p.add_argument("-o", "--output", help="output CSV path (default: stdout)")


@lru_cache(maxsize=None)  # parsing never changes the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="so3embed", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed orientations into tensor coordinates")
    _add_spec_flags(p)
    _add_io_flags(p)
    p.add_argument("--degrees", action="store_true", help="Euler angles are in degrees")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("project", help="project ambient coordinates back onto the quotient")
    _add_spec_flags(p)
    _add_io_flags(p)
    p.add_argument(
        "--tol", type=_number(float, 0, strict=True), default=1e-10, help="gradient norm tolerance relative to |target|"
    )
    p.add_argument("--max-iter", type=_number(int, 0), default=200, help="ascent iteration cap per start")
    p.add_argument("--starts", type=_number(int, 1), default=None, help="number of quasi-random starts")
    p.add_argument("--seed", type=_number(int, 0), default=0, help="seed for the quasi-random starts")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("distance", help="distances between orientation pairs")
    _add_spec_flags(p)
    _add_io_flags(p)
    p.add_argument("--metric", choices=("geodesic", "embedded"), default="geodesic")
    p.add_argument("--degrees", action="store_true", help="Euler angles are in degrees")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("verify", help="run the numerical verification suites")
    p.add_argument("--suite", choices=("isometry", "norms", "mean", "rank", "binom", "all"), default="all")
    p.add_argument("--group", default="all", help="restrict group-wise suites to one group")
    p.add_argument("--samples", type=_number(int, 1), default=100_000, help="validated, not read: the mean suite is exact")
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="estimate the distance-distortion constants")
    _add_spec_flags(p)
    p.add_argument("-o", "--output", help="output CSV path (default: stdout)")
    p.add_argument("--pairs", type=_number(int, 1), default=100_000, help="number of sampled coset pairs")
    p.add_argument("--refine", action=argparse.BooleanOptionalAction, default=True, help="local ratio refinement")
    p.add_argument("--beta", type=_number(float, 0, strict=True), nargs="+", help="override the spec weights")
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("scatter", help="sample (geodesic, embedded) distance pairs")
    _add_spec_flags(p)
    p.add_argument("-o", "--output", help="output CSV path (default: stdout)")
    p.add_argument("--pairs", type=_number(int, 1), default=2000, help="number of sampled coset pairs")
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.set_defaults(func=cmd_scatter)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        return EXIT_OK


def entry() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    entry()
