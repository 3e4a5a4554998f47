"""Token counting.

Two providers: a fast approximation (maximal alphanumeric runs plus
punctuation-like characters) and an exact lookup table loaded from a CSV of
``id,tokens`` rows.  The approximation is deliberately tokenizer-free; when
exact counts for a corpus are known they ship as a table fixture instead.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DuplicateId, MissingTableEntry, MissingTokenCount, ParseError

if TYPE_CHECKING:  # pragma: no cover
    from .manifest import ConversationElement

APPROXIMATE = "approximate"
TABLE = "table"


def count_tokens_approx(text: str) -> int:
    """Approximate LLM token count of ``text``.

    Counts one token per maximal run of alphanumeric characters and one per
    non-whitespace, non-alphanumeric character.  Unicode-aware via
    ``str.isalnum``/``str.isspace``.  Whitespace itself is free, so
    ``count(a + " " + b) == count(a) + count(b)``.
    """
    tokens = 0
    # str.split() splits on exactly the characters str.isspace() accepts, so
    # an all-alphanumeric word is one run and only the others need a scan
    for word in text.split():
        if word.isalnum():
            tokens += 1
            continue
        in_run = False
        for ch in word:
            if ch.isalnum():
                if not in_run:
                    tokens += 1
                    in_run = True
            else:
                in_run = False
                tokens += 1
    return tokens


@dataclass(frozen=True)
class TokenCountProvider:
    """Strategy object deciding how element token counts are resolved."""

    mode: str = APPROXIMATE
    table: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in (APPROXIMATE, TABLE):
            raise ValueError(f"unknown token provider mode {self.mode!r}")

    @classmethod
    def approximate(cls) -> "TokenCountProvider":
        return cls(mode=APPROXIMATE)

    @classmethod
    def from_table(cls, table: dict[str, int]) -> "TokenCountProvider":
        return cls(mode=TABLE, table=dict(table))


def count_for_element(element: "ConversationElement", provider: TokenCountProvider) -> int:
    """Resolve the token count of one element under ``provider``.

    Table mode returns the table entry (the table is ground truth) and raises
    MissingTableEntry when the id is absent.  Approximate mode prefers a
    literal count and otherwise counts the element text.
    """
    if provider.mode == TABLE:
        if element.id not in provider.table:
            raise MissingTableEntry(element.id)
        return provider.table[element.id]
    if element.token_count is not None:
        return element.token_count
    if element.text is not None:
        return count_tokens_approx(element.text)
    raise MissingTokenCount(element.id)


def load_token_table(path: str | Path) -> TokenCountProvider:
    """Load a CSV token table (header ``id,tokens``) as a table provider."""
    table: dict[str, int] = {}
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1:
                if [cell.strip().lower() for cell in row] != ["id", "tokens"]:
                    raise ParseError(f"expected header 'id,tokens', got {','.join(row)!r}", line=1)
                continue
            if len(row) != 2:
                raise ParseError(f"expected 2 cells, got {len(row)}", line=lineno)
            element_id = row[0].strip()
            if element_id in table:
                raise DuplicateId(element_id)
            try:
                tokens = int(row[1])
            except ValueError:
                raise ParseError(f"token count {row[1]!r} is not an integer", line=lineno) from None
            if tokens < 0:
                raise ParseError(f"token count for {element_id!r} is negative", line=lineno)
            table[element_id] = tokens
    return TokenCountProvider.from_table(table)
