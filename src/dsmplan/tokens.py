"""Token counting.

A fast, deliberately tokenizer-free approximation: maximal alphanumeric runs
plus punctuation-like characters.  Exact counts for a corpus ship as an
``id,tokens`` table instead, read by :func:`dsmplan.manifest.load_token_table`.

ASCII text is counted on its bytes, with ``bytes.translate`` and
``bytes.count`` doing the per-character work in C; any other text is counted
word by word.  Both paths give the same count because the byte tables are
built at import from ``str.isalnum`` and ``str.isspace``, the very tests the
word loop applies: for an ASCII character the table entry and the string
method agree by construction.
"""

from __future__ import annotations

# a translate table sending each ASCII byte to b"a" when alphanumeric, else
# to b" ", so that a run starts at each b" a" (only ASCII text is translated)
_RUN_MARKS = bytes(ord("a") if chr(b).isalnum() else ord(" ") for b in range(256))
# the ASCII bytes that add no token of their own: alphanumerics (counted per
# run) and whitespace (free); deleting them leaves one byte per other token
_RUN_OR_SPACE = bytes(b for b in range(128) if chr(b).isalnum() or chr(b).isspace())


def count_tokens_approx(text: str) -> int:
    """Approximate LLM token count of ``text``.

    Counts one token per maximal run of alphanumeric characters and one per
    non-whitespace, non-alphanumeric character.  Unicode-aware via
    ``str.isalnum``/``str.isspace``.  Whitespace itself is free, so
    ``count(a + " " + b) == count(a) + count(b)``.
    """
    if text.isascii():
        data = text.encode("ascii")
        marks = data.translate(_RUN_MARKS)
        return marks.count(b" a") + marks.startswith(b"a") + len(data.translate(None, _RUN_OR_SPACE))
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
