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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Sequence

from .errors import (
    DuplicateId,
    MissingTableEntry,
    MissingTokenCount,
    ParseError,
    SelfDependency,
    UnknownDependency,
)
from .tokens import count_tokens_approx


@dataclass(frozen=True)
class ConversationElement:
    """One addressable chunk of the conversation."""

    id: str
    label: str
    dependencies: tuple[str, ...] = ()
    text: str | None = None
    token_count: int | None = None

    def __post_init__(self) -> None:
        # a repeated dependency is one dependency: one DSM mark, one miss when lost
        object.__setattr__(self, "dependencies", tuple(dict.fromkeys(self.dependencies)))
        if self.token_count is not None and self.token_count < 0:
            raise ValueError(f"element {self.id!r} has negative token count")


@dataclass(frozen=True)
class ConversationModel:
    """A parsed conversation: elements plus fixed per-conversation token costs."""

    elements: tuple[ConversationElement, ...]
    user_statement_tokens: int = 0
    instruction_tokens: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.user_statement_tokens < 0 or self.instruction_tokens < 0:
            raise ValueError("token overheads must be non-negative")

    @property
    def element_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.elements)

    def token_counts(self) -> dict[str, int]:
        return {e.id: e.token_count or 0 for e in self.elements}

    def dependencies(self) -> dict[str, tuple[str, ...]]:
        return {e.id: e.dependencies for e in self.elements}

    def total_tokens(self) -> int:
        return sum(e.token_count or 0 for e in self.elements)


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


def read_json_file(path: str | Path, what: str) -> Any:
    """The JSON document in ``path``; any way reading or decoding it fails is a
    ParseError naming ``what`` (e.g. "manifest")."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} {path}: {exc.msg}", line=exc.lineno) from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, nested too deeply, huge integer
        raise ParseError(f"{what} {path}: {exc}") from None


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
        if "text" not in raw:
            raise ParseError(f"{what} object needs a 'tokens' or 'text' key")
        if not isinstance(raw["text"], str):
            raise ParseError(f"{what}.text must be a string")
        return count_tokens_approx(raw["text"])
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
    text = raw.get("text")
    if text is not None and not isinstance(text, str):
        raise ParseError(f"element {element_id!r}: text must be a string")
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

    With a token ``table`` (``{id: tokens}``, e.g. from
    :func:`~dsmplan.tokens.load_token_table`) every element's count is its
    table entry, whatever the manifest says, and an id the table lacks raises
    MissingTableEntry.  Without one, each element needs a literal ``tokens``
    or a ``text`` to count, and giving both is a ParseError.

    Errors come in this order: any malformed element field, then the
    :func:`check_references` errors, then per element in order a text-and-
    tokens clash, a count that cannot be resolved, or a negative count.
    """
    doc = read_json_file(path, "manifest")
    if not isinstance(doc, dict):
        raise ParseError("manifest root must be an object")
    raw_elements = doc.get("elements")
    if not isinstance(raw_elements, list):
        raise ParseError("manifest needs an 'elements' list")

    fields = [_parse_element(raw, k) for k, raw in enumerate(raw_elements)]
    check_references(fields)  # type: ignore[arg-type]
    elements = [
        ConversationElement(f.id, f.label, f.dependencies, f.text, _element_tokens(f, table)) for f in fields
    ]
    return ConversationModel(
        elements=tuple(elements),
        user_statement_tokens=_statement_tokens(doc.get("user_statement"), "user_statement"),
        instruction_tokens=_statement_tokens(doc.get("instructions"), "instructions"),
    )
