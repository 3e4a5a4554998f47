"""Dependency structure matrices.

A Dsm is a square matrix over the conversation elements, read row-to-column:
``weights[i][j] != 0`` means element i depends on element j.  The numerical
form built by :func:`build_dsm` stores, in every cell of column j, the token
count of provider j — the worst-case cost of re-sending j's text.  The binary
form keeps only the marks.

Every Dsm also carries ``marks = (rows, cols, vals)``: its nonzero cells in
row-major order, as read-only int64 arrays, built once when the Dsm is made.
They are exactly the cells where ``weights != 0``, and ``vals[k]`` is
``weights[rows[k], cols[k]]``.  Stages that need only the dependencies read
the marks, so their cost is O(marks), not O(n²): validation, equality and
hashing, :func:`above_diagonal_marks`, sequencing and the clustering scores.
The dense ``weights`` stay for the stages that emit or reshape the whole
matrix: CSV and the CLI's ``dsm`` output, :func:`permute`, :func:`to_binary`
and reachability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import (
    DuplicateId,
    LengthMismatch,
    MissingTokenCount,
    NegativeWeight,
    NonSquare,
    NonzeroDiagonal,
    ParseError,
    SelfDependency,
    UnknownDependency,
)

if TYPE_CHECKING:  # pragma: no cover
    from .manifest import ConversationElement

BINARY = "binary"
NUMERICAL = "numerical"

_ID_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-")


@dataclass(frozen=True, eq=False)
class Dsm:
    element_ids: tuple[str, ...]
    weights: np.ndarray  # (n, n) non-negative int64, zero diagonal
    kind: str = NUMERICAL
    # (rows, cols, vals) of the nonzero cells, row-major; see the module docstring
    marks: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    positions: dict[str, int] = field(init=False, repr=False, compare=False)  # id -> row/column

    def __post_init__(self) -> None:
        ids = tuple(self.element_ids)
        object.__setattr__(self, "element_ids", ids)
        positions: dict[str, int] = {}
        for element_id in ids:
            if element_id in positions:
                raise DuplicateId(element_id)
            positions[element_id] = len(positions)
        w = np.asarray(self.weights, dtype=np.int64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise NonSquare(f"weights shape {w.shape} is not square")
        n = w.shape[0]
        if n != len(ids):
            raise NonSquare(f"{len(ids)} element ids but {n} matrix rows")
        # one scan, before the copy below, so its n² bool mask and the copy
        # are never held at once; a bool scan is several times faster than
        # an int64 one
        flat = np.flatnonzero(w != 0)
        rows, cols = np.divmod(flat, max(n, 1))
        vals = w[rows, cols]
        if (vals < 0).any():
            raise NegativeWeight("matrix weights must be non-negative")
        if (rows == cols).any():
            raise NonzeroDiagonal("matrix diagonal must be zero")
        if self.kind not in (BINARY, NUMERICAL):
            raise ValueError(f"unknown matrix kind {self.kind!r}")
        if self.kind == BINARY and (vals > 1).any():
            raise ValueError("binary matrix may only contain 0/1")
        w = np.array(w)  # the Dsm's own copy: the caller may still change its array
        for array in (w, rows, cols, vals):
            array.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "marks", (rows, cols, vals))
        object.__setattr__(self, "positions", positions)

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


def build_dsm(elements: Iterable["ConversationElement"]) -> Dsm:
    """Build the numerical DSM of a conversation.

    Cell [i][j] holds the token count of element j when i depends on j, else 0;
    every dependency is charged at the full cost of re-sending the provider.
    A provider whose token count is zero therefore leaves no mark.
    """
    elements = list(elements)
    ids = [e.id for e in elements]
    seen: set[str] = set()
    for element_id in ids:
        if element_id in seen:
            raise DuplicateId(element_id)
        seen.add(element_id)
    index = {element_id: i for i, element_id in enumerate(ids)}
    n = len(elements)
    w = np.zeros((n, n), dtype=np.int64)
    for i, element in enumerate(elements):
        for dep in element.dependencies:
            if dep == element.id:
                raise SelfDependency(element.id)
            if dep not in index:
                raise UnknownDependency(element.id, dep)
            j = index[dep]
            if elements[j].token_count is None:
                raise MissingTokenCount(ids[j])
            w[i, j] = elements[j].token_count
    return Dsm(tuple(ids), w, kind=NUMERICAL)


def to_binary(dsm: Dsm) -> Dsm:
    """Collapse weights to 0/1 marks; idempotent."""
    return Dsm(dsm.element_ids, (dsm.weights != 0).astype(np.int64), kind=BINARY)


def permute(dsm: Dsm, permutation: Permutation) -> Dsm:
    """Reorder rows, columns, and ids simultaneously by ``permutation``."""
    if len(permutation) != dsm.n:
        raise LengthMismatch(dsm.n, len(permutation))
    order = list(permutation.order)
    ids = tuple(dsm.element_ids[i] for i in order)
    w = dsm.weights[np.ix_(order, order)]
    return Dsm(ids, w, kind=dsm.kind)


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
    lines = ["," + ",".join(dsm.element_ids)]
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
    w = np.zeros((n, n), dtype=np.int64)
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
            if value < 0:
                raise NegativeWeight(f"negative weight {value} at row {ids[i]}, column {ids[j]}")
            if i == j and value != 0:
                raise NonzeroDiagonal(f"nonzero diagonal at {ids[i]}")
            w[i, j] = value
    nonzero = w[w != 0]
    kind = BINARY if nonzero.size and (nonzero == 1).all() else NUMERICAL
    return Dsm(tuple(ids), w, kind=kind)


def parse_dsm_csv(path: str | Path) -> Dsm:
    """Parse a DSM from its CSV file form (see :func:`write_dsm_csv`)."""
    return dsm_from_csv_text(Path(path).read_text(encoding="utf-8"))
