import csv
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dsmplan.errors import DuplicateId, ParseError
from dsmplan.manifest import load_token_table
from dsmplan.tokens import count_tokens_approx


def count_by_char(text: str) -> int:
    """The per-character counter the word-wise one replaced, kept as its oracle."""
    tokens = 0
    in_run = False
    for ch in text:
        if ch.isalnum():
            if not in_run:
                tokens += 1
                in_run = True
        else:
            in_run = False
            if not ch.isspace():
                tokens += 1
    return tokens


# ASCII words, punctuation and "_", Unicode letters and digits that are
# alphanumeric but not ASCII, every whitespace class (ASCII, the \x1c-\x1f
# separators, NEL, NBSP, the line/paragraph separators, the ideographic space)
# and a zero-width space, which is no whitespace
_MIXED = st.sampled_from(
    ["a", "Z", "7", "word", ",", ".", "'", "-", "_", "é", "٣", "²", "Ⅻ", "中",
     " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
     "\x85", "\xa0", "\u2028", "\u2029", "\u3000", "\u200b"]
)  # fmt: skip


@pytest.mark.parametrize(
    "text,count",
    [
        ("", 0),
        ("hello", 1),
        ("hello, world", 3),  # two words + comma
        ("Pld Mass of Payload is [50, 35, 40] kg.", 14),
        ("a1b2", 1),  # one alphanumeric run
        ("  \n\t ", 0),
        ("...", 3),
        ("don't", 3),
    ],
)
def test_approx_counts(text, count):
    assert count_tokens_approx(text) == count


@given(st.lists(_MIXED, max_size=40).map("".join) | st.text(max_size=200))
def test_approx_counts_as_by_char(text):
    assert count_tokens_approx(text) == count_by_char(text)


# the counter's byte path: every ASCII character, the controls and the
# \x1c-\x1f separators included, drawn far more often than the text above draws them
@given(st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=127), max_size=200))
def test_ascii_counts_as_by_char(text):
    assert count_tokens_approx(text) == count_by_char(text)


def test_every_two_character_ascii_string_counts_as_by_char():
    texts = [a + b for a in map(chr, range(128)) for b in map(chr, range(128))]
    assert [t for t in texts if count_tokens_approx(t) != count_by_char(t)] == []


def test_every_code_point_counts_as_by_char():
    chars = [chr(cp) for cp in range(sys.maxunicode + 1)]
    for texts in (chars, ["a" + ch + "b" for ch in chars]):
        assert [t for t in texts if count_tokens_approx(t) != count_by_char(t)] == []


@given(st.text(max_size=200), st.text(max_size=200))
def test_approx_additive_over_space_join(a, b):
    # whitespace never merges runs, so counting distributes over a space join
    assert count_tokens_approx(a + " " + b) == count_tokens_approx(a) + count_tokens_approx(b)


@given(st.text(max_size=300))
def test_approx_nonnegative_and_bounded(text):
    n = count_tokens_approx(text)
    assert 0 <= n <= len(text)


def test_load_token_table(tmp_path):
    path = tmp_path / "tokens.csv"
    path.write_text("id,tokens\na,3\nb,41\n")
    assert load_token_table(path) == {"a": 3, "b": 41}
    path.write_text("\ufeffid,tokens\na,3\nb,41\n", encoding="utf-8")  # Excel's "CSV UTF-8" starts with a BOM
    assert load_token_table(path) == {"a": 3, "b": 41}


def test_load_token_table_rejects_bad_rows(tmp_path):
    path = tmp_path / "tokens.csv"
    path.write_text("id,tokens\na,notanumber\n")
    with pytest.raises(ParseError, match="line 2"):
        load_token_table(path)
    path.write_text("id,tokens\na,3\nb,4,5\n")
    with pytest.raises(ParseError, match="^line 3: expected 2 cells, got 3$"):
        load_token_table(path)
    path.write_text("id,tokens\na,3\na,4\n")
    with pytest.raises(DuplicateId, match="'a'"):
        load_token_table(path)
    path.write_text("id,tokens\na,-3\n")
    with pytest.raises(ParseError, match="^line 2: token count for 'a' is negative$"):
        load_token_table(path)
    path.write_text('id,tokens\n"a\nb",3\nc,x\n')  # a line number counts lines, not rows
    with pytest.raises(ParseError, match="^line 4: token count 'x' is not an integer$"):
        load_token_table(path)
    path.write_text("id,tokens\na," + "9" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(ParseError, match=r"^line 2: token table .*tokens\.csv: field larger than field limit"):
        load_token_table(path)
    path.write_bytes(b"id,tokens\ncaf\xe9,3\n")
    with pytest.raises(ParseError, match=r"^token table .*tokens\.csv: 'utf-8' codec can't decode"):
        load_token_table(path)


def test_load_token_table_reads_a_header_after_blank_lines(tmp_path):
    path = tmp_path / "tokens.csv"
    path.write_text("\nid,tokens\nx,5\n")
    assert load_token_table(path) == {"x": 5}


@pytest.mark.parametrize("text", ["\nx,5\n", "", "\n\n"])
def test_load_token_table_needs_a_header_first(tmp_path, text):
    path = tmp_path / "tokens.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match="expected header 'id,tokens'"):
        load_token_table(path)
