"""Dependency structure matrices.

A Dsm is a square matrix over the conversation elements, read row-to-column:
cell [i][j] is nonzero when element i depends on element j.  The numerical
form built by :func:`build_dsm` stores, in every cell of column j, the token
count of provider j — the worst-case cost of re-sending j's text.  The binary
form keeps only the marks.

A Dsm stores only its marks: ``marks = (rows, cols, vals)``, the nonzero
cells in row-major order as three tuples of ints.  :func:`build_dsm`,
:func:`permute`, :func:`to_binary` and the CSV reader build the marks
directly, and every constructor, the dense ``Dsm(ids, weights, kind)`` one
included, validates them in one place.  So building, validating, comparing,
hashing, sequencing, reachability and the clustering scores all cost
O(n + marks), and planning a conversation never allocates an n×n array.
Output that prints the whole matrix — CSV and the CLI's ``dsm`` output —
builds one dense row at a time from the marks, so it touches n² cells; the
CLI writes each row as it is built and never holds more than one of them,
and :func:`write_dsm_csv` joins the same CSV lines into one string.
``weights``, the dense (n, n) int64 matrix, is an optional view: built from
the marks on first read and cached, read-only, and read by nothing in the
library.  numpy is imported by the dense constructor and the dense view
alone; a weight that does not fit the view's int64 cells is rejected when
the marks are stored.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import lt
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .errors import (
    DuplicateId,
    LengthMismatch,
    NegativeWeight,
    NonSquare,
    NonzeroDiagonal,
    ParseError,
    WeightOverflow,
)
from .manifest import ConversationElement, check_references

if TYPE_CHECKING:
    import numpy as np

BINARY = "binary"
NUMERICAL = "numerical"

_ID_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-")
_INT64_MAX = 2**63 - 1  # the largest weight a cell of the dense int64 view holds


@dataclass(frozen=True, eq=False, init=False)
class Dsm:
    element_ids: tuple[str, ...]
    kind: str
    # (rows, cols, vals) of the nonzero cells, row-major; see the module docstring
    marks: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] = field(repr=False)
    positions: dict[str, int] = field(repr=False)  # id -> row/column

    def __init__(self, element_ids: Iterable[str], weights: np.ndarray, kind: str = NUMERICAL) -> None:
        """A Dsm from a dense (n, n) matrix; it keeps the nonzero cells, not the matrix."""
        import numpy as np

        w = np.asarray(weights, dtype=np.int64)
        rows = cols = vals = []
        if w.ndim == 2 and w.shape[0] == w.shape[1]:
            nonzero = np.nonzero(w)
            rows, cols, vals = nonzero[0].tolist(), nonzero[1].tolist(), w[nonzero].tolist()
        self._store(element_ids, w.shape, rows, cols, vals, kind)

    @classmethod
    def _from_marks(cls, element_ids: Sequence[str], rows, cols, vals, kind: str) -> "Dsm":
        """A Dsm from its cells, in any order; zero cells are dropped."""
        dsm = cls.__new__(cls)
        dsm._store(element_ids, (len(element_ids), len(element_ids)), rows, cols, vals, kind)
        return dsm

    def _store(self, element_ids: Iterable[str], shape: tuple[int, ...], rows, cols, vals, kind: str) -> None:
        """The one validation path of every constructor; it sorts the cells row-major.

        The cells come as parallel sequences and are sorted by position
        (``row * n + col``), so no cell becomes an object of its own; the sort
        runs in about linear time on cells that come row by row, as every
        constructor but :func:`permute` gives them.
        """
        ids = tuple(element_ids)
        positions: dict[str, int] = {}
        for element_id in ids:
            if element_id in positions:
                raise DuplicateId(element_id)
            positions[element_id] = len(positions)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise NonSquare(f"weights shape {shape} is not square")
        if shape[0] != len(ids):
            raise NonSquare(f"{len(ids)} element ids but {shape[0]} matrix rows")
        n = len(ids)
        position = [row * n + col for row, col in zip(rows, cols)]
        kept_rows: list[int] = []
        kept_cols: list[int] = []
        kept_vals: list[int] = []
        top = 1 if kind == BINARY else _INT64_MAX
        clean = kind in (BINARY, NUMERICAL)
        for k in sorted(range(len(position)), key=position.__getitem__):  # row-major
            val = vals[k]
            if val:
                row, col = rows[k], cols[k]
                kept_rows.append(row)
                kept_cols.append(col)
                kept_vals.append(val)
                if val < 0 or val > top or row == col:
                    clean = False
        if not clean:
            _raise_first_fault(ids, kept_rows, kept_cols, kept_vals, kind)
        object.__setattr__(self, "element_ids", ids)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "marks", (tuple(kept_rows), tuple(kept_cols), tuple(kept_vals)))
        object.__setattr__(self, "positions", positions)

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
    def weights(self) -> np.ndarray:
        """The dense (n, n) int64 matrix, read-only; built from the marks on first read."""
        import numpy as np

        rows, cols, vals = self.marks
        w = np.zeros((self.n, self.n), dtype=np.int64)
        w[rows, cols] = vals
        w.setflags(write=False)
        return w

    @property
    def n(self) -> int:
        return len(self.element_ids)

    def index(self, element_id: str) -> int:
        return self.positions[element_id]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dsm):
            return NotImplemented
        return self.element_ids == other.element_ids and self.kind == other.kind and self.marks == other.marks

    def __hash__(self) -> int:  # frozen dataclass with eq=False would otherwise use identity
        return hash((self.element_ids, self.kind, self.marks))


def _raise_first_fault(ids: tuple[str, ...], rows: list[int], cols: list[int], vals: list[int], kind: str) -> None:
    """Raise for what is wrong with these row-major marks, checked in this order:
    a negative weight, a diagonal mark, the kind, a binary weight above 1, and
    a weight the dense int64 view cannot hold."""
    marks = list(zip(rows, cols, vals))
    for row, col, val in marks:
        if val < 0:
            raise NegativeWeight(f"negative weight {val} at row {ids[row]}, column {ids[col]}")
    for row, col, _ in marks:
        if row == col:
            raise NonzeroDiagonal(f"nonzero diagonal at {ids[row]}")
    if kind not in (BINARY, NUMERICAL):
        raise ValueError(f"unknown matrix kind {kind!r}")
    if kind == BINARY:
        raise ValueError("binary matrix may only contain 0/1")
    for row, col, val in marks:
        if val > _INT64_MAX:
            raise WeightOverflow(f"weight {val} at row {ids[row]}, column {ids[col]} exceeds {_INT64_MAX}")


@dataclass(frozen=True)
class Permutation:
    """A bijection on 0..n-1; ``order[k]`` is the source index of target slot k."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        order = tuple(int(i) for i in self.order)
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


def build_dsm(elements: Iterable[ConversationElement]) -> Dsm:
    """Build the numerical DSM of a conversation.

    Cell [i][j] holds the token count of element j when i depends on j, else 0;
    every dependency is charged at the full cost of re-sending the provider.
    A provider whose token count is zero therefore leaves no mark.
    """
    elements = list(elements)
    index = check_references(elements)
    rows = [i for i, element in enumerate(elements) for _ in element.dependencies]
    cols = [index[dep] for element in elements for dep in element.dependencies]
    vals = [elements[j].token_count for j in cols]
    return Dsm._from_marks(tuple(index), rows, cols, vals, NUMERICAL)


def to_binary(dsm: Dsm) -> Dsm:
    """Collapse weights to 0/1 marks; idempotent."""
    rows, cols, _ = dsm.marks
    return Dsm._from_marks(dsm.element_ids, rows, cols, [1] * len(rows), BINARY)


def permute(dsm: Dsm, permutation: Permutation) -> Dsm:
    """Reorder rows, columns, and ids simultaneously by ``permutation``."""
    if len(permutation) != dsm.n:
        raise LengthMismatch(dsm.n, len(permutation))
    ids = tuple(dsm.element_ids[i] for i in permutation.order)
    slot = permutation.inverse().order  # source index -> target slot
    rows, cols, vals = dsm.marks
    return Dsm._from_marks(ids, [slot[r] for r in rows], [slot[c] for c in cols], vals, dsm.kind)


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
    nonzero = [v for v in vals if v != 0]
    kind = BINARY if nonzero and all(v == 1 for v in nonzero) else NUMERICAL
    return Dsm._from_marks(tuple(ids), rows, cols, vals, kind)


def parse_dsm_csv(path: str | Path) -> Dsm:
    """Parse a DSM from its CSV file form (see :func:`write_dsm_csv`)."""
    return dsm_from_csv_text(Path(path).read_text(encoding="utf-8-sig"))
