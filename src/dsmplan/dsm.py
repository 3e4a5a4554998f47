"""Dependency structure matrices.

A Dsm is a square matrix over the conversation elements, read row-to-column:
cell [i][j] is nonzero when element i depends on element j.  The numerical
form built by :func:`build_dsm` stores, in every cell of column j, the token
count of provider j — the worst-case cost of re-sending j's text.  The binary
form keeps only the marks.

A Dsm is its marks: ``marks = (rows, cols, vals)``, the nonzero cells in
row-major order as three tuples of ints, each one provider→consumer edge.
Its one constructor, ``Dsm(element_ids, marks, kind)``, takes marks of that
shape in any order and validates them in one place; :func:`build_dsm`,
:func:`permute`, :func:`to_binary` and the CSV reader all call it, and
``Dsm(d.element_ids, d.marks, d.kind) == d``.  So building, validating,
comparing, hashing, sequencing, reachability and the clustering scores all
cost O(n + marks), every weight is an exact Python int however large, and
planning a conversation never allocates an n×n array.  Output that prints
the whole matrix — CSV and the CLI's ``dsm`` output — builds one dense row
at a time from the marks, so it touches n² cells; :func:`write_dsm` writes
each row as it is built, and :func:`write_dsm_csv` joins the same CSV lines.
``weights``, the dense (n, n) int64 matrix, is an optional view that nothing
in the library reads, and the only reader of numpy in the library.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import lt
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .errors import (
    DuplicateId,
    LengthMismatch,
    NegativeWeight,
    NonSquare,
    NonzeroDiagonal,
    ParseError,
    all_ints,
    require_int,
)
from .manifest import ConversationElement, ConversationModel, read_text_file

BINARY = "binary"
NUMERICAL = "numerical"

_ID_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-")


@dataclass(frozen=True, init=False)
class Dsm:
    element_ids: tuple[str, ...]
    kind: str
    # (rows, cols, vals) of the nonzero cells, row-major; see the module docstring
    marks: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] = field(repr=False)

    def __init__(self, element_ids: Iterable[str], marks: tuple[Sequence[int], ...], kind: str = NUMERICAL) -> None:
        """A Dsm from its marks: mark k has weight ``vals[k]`` at row ``rows[k]``,
        column ``cols[k]``, in any order; zero weights are dropped.  They are
        sorted by position (``row * n + col``) as parallel sequences, in about
        linear time on marks that come row by row, as all but :func:`permute` give them."""
        ids = tuple(element_ids)
        seen: set[str] = set()
        for element_id in ids:
            if element_id in seen:
                raise DuplicateId(element_id)
            seen.add(element_id)
        n = len(ids)
        rows, cols, vals = marks
        if not len(rows) == len(cols) == len(vals):
            k = min(len(rows), len(cols), len(vals))
            raise ValueError(f"mark {k} is incomplete: {len(rows)} rows, {len(cols)} columns, {len(vals)} weights")
        if not (all_ints(rows) and all_ints(cols) and all_ints(vals)):
            _raise_first_bad_mark(n, rows, cols, vals)
        position = [row * n + col for row, col in zip(rows, cols)]
        order = sorted(range(len(position)), key=position.__getitem__)  # row-major
        # once every column is in 0..n-1 the sorted rows ascend, so the first and last bound them
        if order and not (0 <= min(cols) and max(cols) < n and 0 <= rows[order[0]] and rows[order[-1]] < n):
            _raise_first_bad_mark(n, rows, cols, vals)
        kept_rows, kept_cols, kept_vals = [], [], []
        clean = kind in (BINARY, NUMERICAL)
        last = -1  # the position of the previous mark kept
        for k in order:
            val = vals[k]
            if val:
                row, col = rows[k], cols[k]
                kept_rows.append(row)
                kept_cols.append(col)
                kept_vals.append(val)
                if val < 0 or row == col or position[k] == last:
                    clean = False
                last = position[k]
        if not clean or kind == BINARY and kept_vals and max(kept_vals) > 1:
            _raise_first_fault(ids, kept_rows, kept_cols, kept_vals, kind)
        object.__setattr__(self, "element_ids", ids)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "marks", (tuple(kept_rows), tuple(kept_cols), tuple(kept_vals)))

    def _dense_rows(self, zero: str, mark: Callable[[int], str]) -> Iterator[list[str]]:
        """The dense matrix one row at a time, built from the row-major marks:
        each row is a list of n cells, ``zero`` where the matrix holds 0 and
        ``mark(weight)`` at each mark."""
        rows, cols, vals = self.marks
        start = 0
        for i in range(self.n):
            end = bisect_right(rows, i, start)
            row = [zero] * self.n
            for col, val in zip(cols[start:end], vals[start:end]):
                row[col] = mark(val)
            start = end
            yield row

    @cached_property
    def weights(self):
        """The dense (n, n) int64 numpy array, read-only; built from the marks on
        first read.  A weight beyond int64 raises numpy's OverflowError here,
        and only here: the marks hold it exactly.  The one reader of numpy in
        the library, which installs it with the ``dense`` extra
        (``pip install "dsmplan[dense]"``)."""
        import numpy as np

        rows, cols, vals = self.marks
        w = np.zeros((self.n, self.n), dtype=np.int64)
        w[rows, cols] = vals
        w.setflags(write=False)
        return w

    @property
    def n(self) -> int:
        return len(self.element_ids)


def _raise_first_bad_mark(n: int, rows: Sequence, cols: Sequence, vals: Sequence) -> None:
    """Raise ValueError for the first mark, in the given order, that holds a
    row, column or weight that is not an int, or a row or column outside 0..n-1."""
    for k, (row, col, val) in enumerate(zip(rows, cols, vals)):
        for name, value in (("row", row), ("column", col), ("weight", val)):
            require_int(f"mark {k}'s {name}", value)
        if not (0 <= row < n and 0 <= col < n):
            raise ValueError(f"mark {k} at row {row}, column {col} lies outside the {n} x {n} matrix")


def _raise_first_fault(
    ids: tuple[str, ...], rows: Sequence[int], cols: Sequence[int], vals: Sequence[int], kind: str
) -> None:
    """Raise for what is wrong with these row-major marks, checked in this order:
    a negative weight, a diagonal mark, the kind, a binary weight above 1, and
    two marks in one cell."""
    marks = list(zip(rows, cols, vals))
    for row, col, val in marks:
        if val < 0:
            raise NegativeWeight(f"negative weight {val} at row {ids[row]}, column {ids[col]}")
    for row, col, _ in marks:
        if row == col:
            raise NonzeroDiagonal(f"nonzero diagonal at {ids[row]}")
    if kind not in (BINARY, NUMERICAL):
        raise ValueError(f"unknown matrix kind {kind!r}")
    if kind == BINARY and max(vals) > 1:
        raise ValueError("binary matrix may only contain 0/1")
    for (row, col, _), (next_row, next_col, _) in zip(marks, marks[1:]):
        if (row, col) == (next_row, next_col):
            raise ValueError(f"two marks at row {ids[row]}, column {ids[col]}")


@dataclass(frozen=True)
class Permutation:
    """A bijection on 0..n-1; ``order[k]`` is the source index of target slot k."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        order = tuple(self.order)
        if not all_ints(order):
            for k, i in enumerate(order):
                require_int(f"permutation entry {k}", i)
        object.__setattr__(self, "order", order)
        if sorted(order) != list(range(len(order))):
            raise ValueError(f"not a permutation of 0..{len(order) - 1}: {order}")

    def __len__(self) -> int:
        return len(self.order)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.order)
        for slot, src in enumerate(self.order):
            inv[src] = slot
        return Permutation(tuple(inv))


def build_dsm(conversation: ConversationModel | Iterable[ConversationElement]) -> Dsm:
    """Build the numerical DSM of a conversation, a :class:`ConversationModel`
    whose ``positions`` it reads, or its elements, which it makes into one.

    Cell [i][j] holds the token count of element j when i depends on j, else 0;
    every dependency is charged at the full cost of re-sending the provider.
    A provider whose token count is zero therefore leaves no mark.
    """
    if not isinstance(conversation, ConversationModel):
        conversation = ConversationModel(tuple(conversation))
    elements, index = conversation.elements, conversation.positions
    rows = [i for i, element in enumerate(elements) for _ in element.dependencies]
    cols = [index[dep] for element in elements for dep in element.dependencies]
    vals = [elements[j].token_count for j in cols]
    return Dsm(index, (rows, cols, vals))


def to_binary(dsm: Dsm) -> Dsm:
    """Collapse weights to 0/1 marks; idempotent."""
    rows, cols, _ = dsm.marks
    return Dsm(dsm.element_ids, (rows, cols, [1] * len(rows)), BINARY)


def permute(dsm: Dsm, permutation: Permutation) -> Dsm:
    """Reorder rows, columns, and ids simultaneously by ``permutation``."""
    if len(permutation) != dsm.n:
        raise LengthMismatch(dsm.n, len(permutation))
    ids = tuple(dsm.element_ids[i] for i in permutation.order)
    slot = permutation.inverse().order  # source index -> target slot
    rows, cols, vals = dsm.marks
    return Dsm(ids, ([slot[r] for r in rows], [slot[c] for c in cols], vals), dsm.kind)


def above_diagonal_marks(dsm: Dsm) -> int:
    """Number of nonzero cells strictly above the diagonal (feedback marks)."""
    rows, cols, _ = dsm.marks
    return sum(map(lt, rows, cols))


# ---------------------------------------------------------------------------
# CSV round-trip.  Canonical form: header row with a leading empty cell, one
# row per element, zeros written as empty cells, comma-separated, LF endings.
# ---------------------------------------------------------------------------


def _csv_lines(dsm: Dsm) -> Iterator[str]:
    """The canonical CSV form one LF-ended line at a time, built from the marks.
    An id that needs quoting raises ParseError before the first line."""
    for element_id in dsm.element_ids:
        if not element_id or not set(element_id) <= _ID_CHARS:
            raise ParseError(f"element id {element_id!r} needs quoting, not supported in CSV form")
    yield ",".join(["", *dsm.element_ids]) + "\n"
    for element_id, cells in zip(dsm.element_ids, dsm._dense_rows("", str)):
        yield element_id + "," + ",".join(cells) + "\n"


def write_dsm_csv(dsm: Dsm) -> str:
    return "".join(_csv_lines(dsm))


def write_dsm(dsm: Dsm, fmt: str, out: TextIO) -> None:
    """Write the matrix as ``dsmplan dsm --format fmt`` prints it, a row at a time."""
    if fmt == "csv":
        out.writelines(_csv_lines(dsm))
    elif fmt == "json":  # json.dumps(..., indent=2) of the same object
        out.write('{\n  "element_ids": ' + _json_list([json.dumps(e) for e in dsm.element_ids], 4))
        out.write(',\n  "kind": ' + json.dumps(dsm.kind) + ',\n  "weights": [')
        for i, cells in enumerate(dsm._dense_rows("0", str)):
            out.write((",\n    " if i else "\n    ") + _json_list(cells, 6))
        out.write("\n  ]\n}\n" if dsm.n else "]\n}\n")
    else:
        width = max((len(e) for e in dsm.element_ids), default=1) + 1
        out.write(" " * width + "".join(f"{e:>{width}}" for e in dsm.element_ids) + "\n")
        mark, blank = f"{'X':>{width}}", f"{'.':>{width}}"
        for element_id, cells in zip(dsm.element_ids, dsm._dense_rows(blank, lambda _: mark)):
            out.write(f"{element_id:<{width}}" + "".join(cells) + "\n")


def _json_list(items: list[str], indent: int) -> str:
    """``json.dumps(..., indent=2)`` of a list nested ``indent`` spaces deep, from its items already encoded."""
    if not items:
        return "[]"
    pad = "\n" + " " * indent
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * (indent - 2) + "]"


def dsm_from_csv_text(text: str) -> Dsm:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty DSM file", line=1)
    header = lines[0].split(",")
    if header[0] != "":
        raise ParseError("first header cell must be empty", line=1)
    ids = header[1:]
    n = len(ids)
    if len(lines) - 1 != n:
        raise NonSquare(f"{n} columns but {len(lines) - 1} rows")
    rows: list[int] = []
    cols: list[int] = []
    vals: list[int] = []
    for i, line in enumerate(lines[1:]):
        lineno = i + 2
        cells = line.split(",")
        if len(cells) != n + 1:
            raise NonSquare(f"row {i + 1} has {len(cells) - 1} cells, expected {n}")
        if cells[0] != ids[i]:
            raise ParseError(f"row id {cells[0]!r} does not match header id {ids[i]!r}", line=lineno)
        for j, cell in enumerate(cells[1:]):
            if cell == "":
                continue
            try:
                value = int(cell)
            except ValueError:
                raise ParseError(f"cell {cell!r} is not an integer", line=lineno) from None
            rows.append(i)
            cols.append(j)
            vals.append(value)
    kind = BINARY if set(vals) - {0} == {1} else NUMERICAL
    return Dsm(ids, (rows, cols, vals), kind)


def parse_dsm_csv(path: str | Path) -> Dsm:
    """Parse a DSM from its CSV file form (see :func:`write_dsm_csv`)."""
    return dsm_from_csv_text(read_text_file(path, "DSM"))
