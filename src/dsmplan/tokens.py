"""Token counting.

A fast approximation (maximal alphanumeric runs plus punctuation-like
characters), and a loader for an exact token table: a CSV of ``id,tokens``
rows read as a plain ``{id: tokens}`` dict.  The approximation is deliberately
tokenizer-free; when exact counts for a corpus are known they ship as a table
fixture instead.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .errors import DuplicateId, ParseError


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


def load_token_table(path: str | Path) -> dict[str, int]:
    """Load a CSV token table as ``{id: tokens}``; its first non-blank row must
    be the header ``id,tokens``."""
    with open(path, encoding="utf-8", newline="") as handle:
        numbered = enumerate(csv.reader(handle), start=1)
        rows = [(n, row) for n, row in numbered if row and (len(row) > 1 or row[0].strip())]
    lineno, header = rows[0] if rows else (1, [])
    if [cell.strip().lower() for cell in header] != ["id", "tokens"]:
        raise ParseError(f"expected header 'id,tokens', got {','.join(header)!r}", line=lineno)
    table: dict[str, int] = {}
    for lineno, row in rows[1:]:
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
    return table
