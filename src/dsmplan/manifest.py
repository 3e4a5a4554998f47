"""Conversation manifests.

A manifest is a JSON file describing one structured conversation: a user
statement, per-piece instruction text, and a list of elements with labels,
dependencies, and either literal token counts or raw text to be counted.
Parsing is total — malformed input raises structured errors, never crashes.

Schema::

    {
      "user_statement": "text"            | {"tokens": 200},
      "instructions":   "text"            | {"tokens": 50},
      "elements": [
        {"id": "B", "label": "Payload", "tokens": 272, "deps": ["A"]},
        {"id": "C", "label": "Orbit",   "text": "...", "deps": ["A"]}
      ]
    }

Without a token table each element needs exactly one of text/tokens; with
one, the table supplies every count.  A literal token number wins over text
for the user statement and instructions.

Every input file is read here: :func:`read_text_file` opens it, and
:func:`read_csv_table` checks the token table and the model catalog.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Any, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    DuplicateId,
    MissingTableEntry,
    MissingTokenCount,
    ParseError,
    SelfDependency,
    UnknownDependency,
    require_int,
)
from .tokens import count_tokens_approx


@dataclass(frozen=True)
class ConversationElement:
    """One addressable chunk of the conversation.

    ``token_count`` is a required keyword-only int, so every element has a
    count; :func:`parse_manifest` resolves it before it builds the element.
    """

    id: str
    label: str
    dependencies: tuple[str, ...] = ()
    text: str | None = None
    token_count: int = field(kw_only=True)

    def __post_init__(self) -> None:
        # a repeated dependency is one dependency: one DSM mark, one miss when lost
        object.__setattr__(self, "dependencies", tuple(dict.fromkeys(self.dependencies)))
        try:
            require_int("token_count", self.token_count)
        except ValueError as exc:  # name the element only on failure: most elements pass
            raise ValueError(f"element {self.id!r}: {exc}") from None
        if self.token_count < 0:
            raise ValueError(f"element {self.id!r} has negative token count")


@dataclass(frozen=True)
class ConversationModel:
    """A parsed conversation: elements plus fixed per-conversation token costs.

    Its elements pass :func:`check_references`: ids are unique and every
    dependency names another element, however the model was built.  It keeps
    the id -> position map that check returns as ``positions`` and the id ->
    count map as ``counts``, which the pipeline reads; :meth:`token_counts` copies it.
    Both maps are read-only views, so no write can move a later plan while
    ``==`` and ``hash``, which read only the three init fields, miss it."""

    elements: tuple[ConversationElement, ...]
    user_statement_tokens: int = 0
    instruction_tokens: int = 0
    positions: Mapping[str, int] = field(init=False, repr=False, compare=False)
    counts: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        for name in ("user_statement_tokens", "instruction_tokens"):
            require_int(name, getattr(self, name))
        if self.user_statement_tokens < 0 or self.instruction_tokens < 0:
            raise ValueError("token overheads must be non-negative")
        object.__setattr__(self, "positions", MappingProxyType(check_references(self.elements)))
        object.__setattr__(self, "counts", MappingProxyType({e.id: e.token_count for e in self.elements}))

    def __reduce__(self) -> tuple[type[ConversationModel], tuple[Any, ...]]:
        """Pickle and copy as the init fields: a read-only view does not pickle,
        and ``__post_init__`` builds both maps again."""
        return type(self), (self.elements, self.user_statement_tokens, self.instruction_tokens)

    @property
    def element_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.elements)

    def token_counts(self) -> dict[str, int]:
        return dict(self.counts)

    def dependencies(self) -> dict[str, tuple[str, ...]]:
        return {e.id: e.dependencies for e in self.elements}

    def total_tokens(self) -> int:
        return sum(e.token_count for e in self.elements)


def check_references(elements: Sequence[ConversationElement]) -> dict[str, int]:
    """Check that ids are unique and every dependency names another element;
    returns id -> position.

    Raises DuplicateId first, then SelfDependency or UnknownDependency for the
    first bad dependency in element order.
    """
    positions: dict[str, int] = {}
    for element in elements:
        if element.id in positions:
            raise DuplicateId(element.id)
        positions[element.id] = len(positions)
    for element in elements:
        for dep in element.dependencies:
            if dep == element.id:
                raise SelfDependency(element.id)
            if dep not in positions:
                raise UnknownDependency(element.id, dep)
    return positions


def read_text_file(path: str | Path, what: str) -> str:
    """``path`` as UTF-8 text with an optional BOM; the one place the package
    opens a file.  A read or decode fault is a ParseError naming ``what``."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from None
    except ValueError as exc:  # not UTF-8, or a NUL in the path
        raise ParseError(f"{what} {path}: {exc}") from None


def read_json_file(path: str | Path, what: str) -> Any:
    """The JSON document in ``path``; a fault in it is a ParseError naming ``what``."""
    text = read_text_file(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} {path}: {exc.msg}", line=exc.lineno) from None
    except (ValueError, RecursionError) as exc:  # nested too deeply, huge integer
        raise ParseError(f"{what} {path}: {exc}") from None


def read_csv_table(path: str | Path, what: str, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """``(line, cells)`` for each row of the CSV file ``path`` after its header,
    its first non-blank row, which must match ``header`` up to case and spaces.
    Blank rows are skipped, every other has as many cells, and ``line`` is the
    physical line that ends it.  Faults surface in file order, as ParseErrors."""
    reader = csv.reader(io.StringIO(read_text_file(path, what)))
    rows = ((reader.line_num, row) for row in reader if row and (len(row) > 1 or row[0].strip()))
    try:
        line, first = next(rows, (1, []))
        if [cell.strip().lower() for cell in first] != list(header):
            raise ParseError(f"expected header {','.join(header)!r}, got {','.join(first)!r}", line=line)
        for line, row in rows:
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} cells, got {len(row)}", line=line)
            yield line, row
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(f"{what} {path}: {exc}", line=reader.line_num) from None


def load_token_table(path: str | Path) -> dict[str, int]:
    """Load a CSV token table headed ``id,tokens`` as ``{id: tokens}``."""
    table: dict[str, int] = {}
    for line, (element_id, count) in read_csv_table(path, "token table", ("id", "tokens")):
        element_id = element_id.strip()
        if element_id in table:
            raise DuplicateId(element_id)
        try:
            tokens = int(count)
        except ValueError:
            raise ParseError(f"token count {count!r} is not an integer", line=line) from None
        if tokens < 0:
            raise ParseError(f"token count for {element_id!r} is negative", line=line)
        table[element_id] = tokens
    return table


def _text_field(raw: dict, label: str) -> str | None:
    """The ``text`` of a manifest object, or None when it has none: a missing
    key and a JSON ``null`` both mean no text, for an element and for a
    user_statement/instructions object alike.  Any other non-string is a
    ParseError headed ``label``."""
    text = raw.get("text")
    if text is not None and not isinstance(text, str):
        raise ParseError(f"{label} must be a string")
    return text


def _statement_tokens(raw: Any, what: str) -> int:
    """Resolve user_statement / instructions: literal tokens win over text."""
    if raw is None:
        return 0
    if isinstance(raw, str):
        return count_tokens_approx(raw)
    if isinstance(raw, dict):
        if "tokens" in raw:
            tokens = raw["tokens"]
            if not isinstance(tokens, int) or isinstance(tokens, bool) or tokens < 0:
                raise ParseError(f"{what}.tokens must be a non-negative integer")
            return tokens
        text = _text_field(raw, f"{what}.text")
        if text is None:
            raise ParseError(f"{what} object needs a 'tokens' or 'text' key")
        return count_tokens_approx(text)
    raise ParseError(f"{what} must be a string or an object with a 'tokens' key")


class _ElementFields(NamedTuple):
    """An element's validated manifest fields, before its count is resolved;
    it has the ``id``/``dependencies`` that :func:`check_references` reads."""

    id: str
    label: str
    dependencies: tuple[str, ...]
    text: str | None
    token_count: int | None


def _parse_element(raw: Any, position: int) -> _ElementFields:
    if not isinstance(raw, dict):
        raise ParseError(f"elements[{position}] is not an object")
    element_id = raw.get("id")
    if not isinstance(element_id, str) or not element_id:
        raise ParseError(f"elements[{position}] needs a non-empty string id")
    label = raw.get("label", element_id)
    if not isinstance(label, str):
        raise ParseError(f"element {element_id!r}: label must be a string")
    deps = raw.get("deps", [])
    if not isinstance(deps, list) or not all(isinstance(d, str) for d in deps):
        raise ParseError(f"element {element_id!r}: deps must be a list of ids")
    text = _text_field(raw, f"element {element_id!r}: text")
    tokens = raw.get("tokens")
    if tokens is not None and (not isinstance(tokens, int) or isinstance(tokens, bool) or tokens < 0):
        raise ParseError(f"element {element_id!r}: tokens must be a non-negative integer")
    return _ElementFields(element_id, label, tuple(deps), text, tokens)


def _element_tokens(f: _ElementFields, table: Mapping[str, int] | None) -> int:
    """The count of one element: its table entry when a table is given (the
    table is ground truth), else its literal ``tokens`` or its counted ``text``."""
    if table is not None:
        if f.id not in table:
            raise MissingTableEntry(f.id)
        return table[f.id]
    if f.text is not None and f.token_count is not None:
        raise ParseError(f"element {f.id!r} has both text and a literal token count")
    if f.token_count is not None:
        return f.token_count
    if f.text is not None:
        return count_tokens_approx(f.text)
    raise MissingTokenCount(f.id)


def parse_manifest(path: str | Path, table: Mapping[str, int] | None = None) -> ConversationModel:
    """Parse ``path`` into a ConversationModel with resolved token counts.

    With a token ``table`` (``{id: tokens}``, e.g. from :func:`load_token_table`)
    every element's count is its table entry, whatever the manifest says, and
    an id the table lacks raises MissingTableEntry.  Without one, each element
    needs a literal ``tokens`` or a ``text`` to count, and giving both is a
    ParseError.

    Errors come in this order: any malformed element field, then the
    :func:`check_references` errors, then per element in order a text-and-
    tokens clash, a count that cannot be resolved, or a negative count.  The
    model checks a good manifest's references, the fields only after a fault.
    """
    doc = read_json_file(path, "manifest")
    if not isinstance(doc, dict):
        raise ParseError("manifest root must be an object")
    raw_elements = doc.get("elements")
    if not isinstance(raw_elements, list):
        raise ParseError("manifest needs an 'elements' list")

    fields = [_parse_element(raw, k) for k, raw in enumerate(raw_elements)]
    try:
        elements = tuple(
            ConversationElement(f.id, f.label, f.dependencies, f.text, token_count=_element_tokens(f, table))
            for f in fields
        )
        user_statement_tokens = _statement_tokens(doc.get("user_statement"), "user_statement")
        instruction_tokens = _statement_tokens(doc.get("instructions"), "instructions")
    except ValueError:
        check_references(fields)  # type: ignore[arg-type]
        raise
    return ConversationModel(elements, user_statement_tokens, instruction_tokens)
