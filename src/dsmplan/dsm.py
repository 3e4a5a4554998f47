"""Dependency structure matrices.

A Dsm is a square matrix over the conversation elements, read row-to-column:
cell [i][j] is nonzero when element i depends on element j.  The numerical
form built by :func:`build_dsm` stores, in every cell of column j, the token
count of provider j — the worst-case cost of re-sending j's text.  The binary
form keeps only the marks.

A Dsm stores only its marks: ``marks = (rows, cols, vals)``, the nonzero
cells in row-major order as read-only int64 arrays.  :func:`build_dsm`,
:func:`permute`, :func:`to_binary` and the CSV reader build the marks
directly, and every constructor, the dense ``Dsm(ids, weights, kind)`` one
included, validates them in one place.  So building, validating, comparing,
hashing, sequencing and the clustering scores all cost O(n + marks), and
planning a conversation never allocates an n×n array.  ``weights``, the dense
(n, n) matrix, is built from the marks on first read and cached, read-only;
only output that prints the whole matrix reads it — CSV and the CLI's ``dsm``
output — and so only that output touches n² cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateId,
    LengthMismatch,
    MissingTokenCount,
    NegativeWeight,
    NonSquare,
    NonzeroDiagonal,
    ParseError,
)
from .manifest import ConversationElement, check_references

BINARY = "binary"
NUMERICAL = "numerical"

_ID_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-")


@dataclass(frozen=True, eq=False, init=False)
class Dsm:
    element_ids: tuple[str, ...]
    kind: str
    # (rows, cols, vals) of the nonzero cells, row-major; see the module docstring
    marks: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    positions: dict[str, int] = field(repr=False)  # id -> row/column

    def __init__(self, element_ids: Iterable[str], weights: np.ndarray, kind: str = NUMERICAL) -> None:
        """A Dsm from a dense (n, n) matrix; it keeps the nonzero cells, not the matrix."""
        w = np.asarray(weights, dtype=np.int64)
        square = w.ndim == 2 and w.shape[0] == w.shape[1]
        rows, cols = np.nonzero(w) if square else ((), ())
        self._store(element_ids, w.shape, rows, cols, w[rows, cols] if square else (), kind)

    @classmethod
    def _from_marks(cls, element_ids: Sequence[str], rows, cols, vals, kind: str) -> "Dsm":
        """A Dsm from its cells, in any order; zero cells are dropped."""
        dsm = cls.__new__(cls)
        dsm._store(element_ids, (len(element_ids), len(element_ids)), rows, cols, vals, kind)
        return dsm

    def _store(self, element_ids: Iterable[str], shape: tuple[int, ...], rows, cols, vals, kind: str) -> None:
        """The one validation path of every constructor; it sorts the marks row-major."""
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
        rows, cols, vals = (np.asarray(a, dtype=np.int64) for a in (rows, cols, vals))
        keep = np.flatnonzero(vals)
        keep = keep[np.lexsort((cols[keep], rows[keep]))]
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        negative = np.flatnonzero(vals < 0)
        if negative.size:
            k = negative[0]
            raise NegativeWeight(f"negative weight {vals[k]} at row {ids[rows[k]]}, column {ids[cols[k]]}")
        diagonal = np.flatnonzero(rows == cols)
        if diagonal.size:
            raise NonzeroDiagonal(f"nonzero diagonal at {ids[rows[diagonal[0]]]}")
        if kind not in (BINARY, NUMERICAL):
            raise ValueError(f"unknown matrix kind {kind!r}")
        if kind == BINARY and (vals > 1).any():
            raise ValueError("binary matrix may only contain 0/1")
        for array in (rows, cols, vals):
            array.setflags(write=False)
        object.__setattr__(self, "element_ids", ids)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "marks", (rows, cols, vals))
        object.__setattr__(self, "positions", positions)

    @cached_property
    def weights(self) -> np.ndarray:
        """The dense (n, n) int64 matrix, read-only; built from the marks on first read."""
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
        return (
            self.element_ids == other.element_ids
            and self.kind == other.kind
            and all(np.array_equal(a, b) for a, b in zip(self.marks, other.marks))
        )

    def __hash__(self) -> int:  # frozen dataclass with eq=False would otherwise use identity
        return hash((self.element_ids, self.kind, *(a.tobytes() for a in self.marks)))


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
    rows: list[int] = []
    cols: list[int] = []
    vals: list[int] = []
    for i, element in enumerate(elements):
        for dep in element.dependencies:
            j = index[dep]
            if elements[j].token_count is None:
                raise MissingTokenCount(dep)
            rows.append(i)
            cols.append(j)
            vals.append(elements[j].token_count)
    return Dsm._from_marks(tuple(index), rows, cols, vals, NUMERICAL)


def to_binary(dsm: Dsm) -> Dsm:
    """Collapse weights to 0/1 marks; idempotent."""
    rows, cols, vals = dsm.marks
    return Dsm._from_marks(dsm.element_ids, rows, cols, np.ones_like(vals), BINARY)


def permute(dsm: Dsm, permutation: Permutation) -> Dsm:
    """Reorder rows, columns, and ids simultaneously by ``permutation``."""
    if len(permutation) != dsm.n:
        raise LengthMismatch(dsm.n, len(permutation))
    ids = tuple(dsm.element_ids[i] for i in permutation.order)
    slot = np.array(permutation.inverse().order, dtype=np.int64)  # source index -> target slot
    rows, cols, vals = dsm.marks
    return Dsm._from_marks(ids, slot[rows], slot[cols], vals, dsm.kind)


def above_diagonal_marks(dsm: Dsm) -> int:
    """Number of nonzero cells strictly above the diagonal (feedback marks)."""
    rows, cols, _ = dsm.marks
    return int(np.count_nonzero(rows < cols))


# ---------------------------------------------------------------------------
# CSV round-trip.  Canonical form: header row with a leading empty cell, one
# row per element, zeros written as empty cells, comma-separated, LF endings.
# ---------------------------------------------------------------------------


def write_dsm_csv(dsm: Dsm) -> str:
    for element_id in dsm.element_ids:
        if not element_id or not set(element_id) <= _ID_CHARS:
            raise ParseError(f"element id {element_id!r} needs quoting, not supported in CSV form")
    lines = [",".join(["", *dsm.element_ids])]
    for i, element_id in enumerate(dsm.element_ids):
        cells = ["" if v == 0 else str(int(v)) for v in dsm.weights[i]]
        lines.append(element_id + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


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
    return dsm_from_csv_text(Path(path).read_text(encoding="utf-8"))
