import re
import string

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dsmplan.dsm import (
    BINARY,
    NUMERICAL,
    Dsm,
    Permutation,
    above_diagonal_marks,
    build_dsm,
    dsm_from_csv_text,
    parse_dsm_csv,
    permute,
    to_binary,
    write_dsm_csv,
)
from dsmplan.errors import (
    DuplicateId,
    LengthMismatch,
    NegativeWeight,
    NonSquare,
    NonzeroDiagonal,
    ParseError,
    UnknownDependency,
)
from dsmplan.manifest import ConversationElement
from dsmplan.data import SPACECRAFT_DSM_BINARY, SPACECRAFT_DSM_TOKENS
from oracles import dense


def test_build_dsm_columns_carry_provider_tokens(spacecraft, spacecraft_dsm):
    d = spacecraft_dsm
    counts = spacecraft.token_counts()
    for j, provider in enumerate(d.element_ids):
        column = d.weights[:, j]
        assert set(np.unique(column)) <= {0, counts[provider]}
    # spot checks: D depends on C, M depends on K
    at = {element_id: k for k, element_id in enumerate(d.element_ids)}
    assert d.weights[at["D"], at["C"]] == 3082
    assert d.weights[at["M"], at["K"]] == 239
    assert d.weights[at["A"], at["B"]] == 0
    # the conversation itself gives the matrix its elements give
    assert build_dsm(spacecraft) == spacecraft_dsm


def test_spacecraft_totals_match_frozen(spacecraft_dsm, expected):
    assert int(spacecraft_dsm.weights.sum()) == expected["total_matrix_weight"]
    assert int(np.count_nonzero(spacecraft_dsm.weights)) == expected["dependency_edges"]
    assert above_diagonal_marks(spacecraft_dsm) == expected["above_diagonal_marks"]["manifest_order"]


def test_to_binary(spacecraft_dsm):
    b = to_binary(spacecraft_dsm)
    assert b.kind == BINARY
    assert set(np.unique(b.weights)) == {0, 1}
    assert int(b.weights.sum()) == 50
    assert to_binary(b) == b  # idempotent


def test_weights_are_read_only(spacecraft_dsm):
    with pytest.raises(ValueError):
        spacecraft_dsm.weights[0, 0] = 1


def test_permute_roundtrip(spacecraft_dsm):
    p = Permutation(tuple(reversed(range(spacecraft_dsm.n))))
    assert permute(permute(spacecraft_dsm, p), p.inverse()) == spacecraft_dsm


def test_permute_moves_cells():
    d = dense(("a", "b"), np.array([[0, 0], [7, 0]]))
    swapped = permute(d, Permutation((1, 0)))
    assert swapped.element_ids == ("b", "a")
    assert swapped.weights[0, 1] == 7
    assert swapped.weights[1, 0] == 0


def test_permute_length_mismatch(spacecraft_dsm):
    with pytest.raises(LengthMismatch):
        permute(spacecraft_dsm, Permutation((0, 1)))


def test_permutation_must_be_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_permutation_rejects_entries_that_are_not_ints():
    # entries are checked, not coerced: (0.7, 1.2) is not (0, 1), nor (1, False) (1, 0)
    with pytest.raises(ValueError, match="permutation entry 0 must be an integer, not 0.7"):
        Permutation((0.7, 1.2))
    with pytest.raises(ValueError, match="permutation entry 1 must be an integer, not False"):
        Permutation((1, False))
    assert Permutation([1, 0]).order == (1, 0)


def test_dsm_validation():
    with pytest.raises(DuplicateId):
        Dsm(("a", "a"), ((), (), ()))
    with pytest.raises(NegativeWeight):
        Dsm(("a", "b"), ((0,), (1,), (-1,)))
    with pytest.raises(NonzeroDiagonal):
        Dsm(("a", "b"), ((0,), (0,), (1,)))
    with pytest.raises(ValueError, match="binary matrix may only contain 0/1"):
        Dsm(("a", "b"), ((0,), (1,), (2,)), kind=BINARY)
    with pytest.raises(ValueError, match="unknown matrix kind 'weighted'"):
        Dsm(("a", "b"), ((), (), ()), kind="weighted")


def test_two_marks_in_one_cell_are_rejected():
    with pytest.raises(ValueError, match="two marks at row b, column a"):
        Dsm(("a", "b"), ((1, 0, 1), (0, 1, 0), (2, 1, 3)))
    assert Dsm(("a", "b"), ((1, 1), (0, 0), (0, 3))).marks == ((1,), (0,), (3,))  # a zero cell is no mark


@pytest.mark.parametrize(
    "marks, message",
    [
        (((0, 1), (1,), (5, 5)), "mark 1 is incomplete: 2 rows, 1 columns, 2 weights"),
        (((0,), (1,), ()), "mark 0 is incomplete: 1 rows, 1 columns, 0 weights"),
        (((1, 0, 2), (0, 1, 1), (5, 5, 5)), "mark 2 at row 2, column 1 lies outside the 2 x 2 matrix"),
        (((1, -1), (0, 1), (5, 5)), "mark 1 at row -1, column 1 lies outside the 2 x 2 matrix"),
        (((1, 0), (0, 1), (5, 1.5)), "mark 1's weight must be an integer, not 1.5"),
        (((1, 0), (0.0, 1), (5, 5)), "mark 0's column must be an integer, not 0.0"),
        (((True,), (0,), (5,)), "mark 0's row must be an integer, not True"),
        (((1,), (0,), (True,)), "mark 0's weight must be an integer, not True"),
        (((1, 0), (0, 1), (0, "5")), "mark 1's weight must be an integer, not '5'"),
        (((0, 1.5), (5, 0), (1, 1)), "mark 0 at row 0, column 5 lies outside the 2 x 2 matrix"),
    ],
    ids=["short-cols", "short-vals", "row-range", "negative-row", "float", "float-col", "bool-row",
         "bool-weight", "str-weight", "first-bad-mark"],
)  # fmt: skip
def test_malformed_marks_name_the_first_bad_mark(marks, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Dsm(("a", "b"), marks)


INT64_MAX = 2**63 - 1


@pytest.mark.parametrize("tokens", [INT64_MAX + 1, 10**23])
def test_build_dsm_keeps_a_weight_beyond_int64(tokens):
    elements = [
        ConversationElement(id="a", label="a", token_count=tokens),
        ConversationElement(id="b", label="b", dependencies=("a",), token_count=1),
    ]
    d = build_dsm(elements)
    assert d.marks == ((1,), (0,), (tokens,))
    swapped = permute(d, Permutation((1, 0)))
    assert swapped.marks == ((0,), (1,), (tokens,))
    assert permute(swapped, Permutation((1, 0))) == d
    text = write_dsm_csv(d)
    assert text == f",a,b\na,,\nb,{tokens},\n"
    assert dsm_from_csv_text(text) == d
    assert to_binary(d).marks == ((1,), (0,), (1,))
    with pytest.raises(OverflowError):
        d.weights  # the dense int64 view is the one reader that cannot hold it


@pytest.mark.parametrize("value", [INT64_MAX + 1, 10**23])
def test_csv_keeps_a_weight_beyond_int64(value):
    text = f",a,b\na,,{value}\nb,,\n"
    d = dsm_from_csv_text(text)
    assert d.marks == ((0,), (1,), (value,))
    assert write_dsm_csv(d) == text
    with pytest.raises(OverflowError):
        d.weights


def test_the_largest_int64_weight_is_kept_exactly():
    elements = [
        ConversationElement(id="a", label="a", token_count=INT64_MAX),
        ConversationElement(id="b", label="b", dependencies=("a",), token_count=1),
    ]
    d = build_dsm(elements)
    assert d.marks == ((1,), (0,), (INT64_MAX,))
    assert int(d.weights[1, 0]) == INT64_MAX
    assert dsm_from_csv_text(write_dsm_csv(d)) == d


def test_build_dsm_checks_the_graph_before_token_counts():
    elements = [
        ConversationElement(id="a", label="a", token_count=1),
        ConversationElement(id="b", label="b", dependencies=("a",), token_count=1),
        ConversationElement(id="c", label="c", dependencies=("nope",), token_count=1),
    ]
    with pytest.raises(UnknownDependency):
        build_dsm(elements)


def test_csv_fixture_files_match_built_matrix(spacecraft_dsm, tmp_path):
    assert parse_dsm_csv(SPACECRAFT_DSM_TOKENS) == spacecraft_dsm
    assert parse_dsm_csv(SPACECRAFT_DSM_BINARY) == to_binary(spacecraft_dsm)
    with_bom = tmp_path / "dsm.csv"
    with_bom.write_text("\ufeff" + write_dsm_csv(spacecraft_dsm), encoding="utf-8")
    assert parse_dsm_csv(with_bom) == spacecraft_dsm
    # the shipped file is the canonical serialization, byte for byte
    with open(SPACECRAFT_DSM_TOKENS, encoding="utf-8") as fh:
        assert fh.read() == write_dsm_csv(spacecraft_dsm)


@pytest.mark.parametrize("cell, value", [((3, 2), 1), ((0, 1), 5), ((3, 2), 0)])  # (3, 2): D on C
def test_equality_and_hash_follow_the_marks(spacecraft_dsm, cell, value):
    back = dsm_from_csv_text(write_dsm_csv(spacecraft_dsm))
    assert back == spacecraft_dsm
    assert hash(back) == hash(spacecraft_dsm)
    w = spacecraft_dsm.weights.copy()
    w[cell] = value  # change a mark's weight, add a mark, remove a mark
    changed = dense(spacecraft_dsm.element_ids, w)
    assert changed != spacecraft_dsm
    assert changed != back


def test_csv_kind_inference():
    marks = dsm_from_csv_text(",a,b\na,,1\nb,1,\n")
    assert marks.kind == BINARY
    weighted = dsm_from_csv_text(",a,b\na,,5\nb,,\n")
    assert weighted.kind == NUMERICAL


@pytest.mark.parametrize(
    "text,error",
    [
        (",a,b\na,,1\n", NonSquare),  # missing row
        (",a,b\na,,1\nc,1,\n", ParseError),  # row id mismatch
        (",a,b\na,,x\nb,,\n", ParseError),  # non-integer cell
        (",a,b\na,,-3\nb,,\n", NegativeWeight),
        (",a,b\na,2,\nb,,\n", NonzeroDiagonal),
        ("a,b\na,,1\nb,1,\n", ParseError),  # header must start empty
        ("", ParseError),  # no header
        (",a,b\na,,1\nb,1\n", NonSquare),  # short row
    ],
)
def test_csv_rejects_malformed(text, error):
    with pytest.raises(error):
        dsm_from_csv_text(text)


def test_csv_roundtrip_of_an_empty_matrix():
    empty = dense((), np.zeros((0, 0), dtype=np.int64))
    back = dsm_from_csv_text(write_dsm_csv(empty))
    assert back.element_ids == () and back.weights.shape == (0, 0)


def test_csv_parse_error_carries_line_number():
    with pytest.raises(ParseError, match="line 3"):
        dsm_from_csv_text(",a,b\na,,1\nb,?,\n")


@st.composite
def random_dsms(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    ids = tuple(string.ascii_lowercase[:n])
    cells = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=9), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    w = np.array(cells, dtype=np.int64)
    np.fill_diagonal(w, 0)
    return dense(ids, w)


@given(random_dsms())
def test_csv_roundtrip(d):
    # kind is not stored in the file; it is re-inferred from the cell values
    back = dsm_from_csv_text(write_dsm_csv(d))
    assert back.element_ids == d.element_ids
    assert np.array_equal(back.weights, d.weights)
    if (d.weights > 1).any():
        assert back.kind == NUMERICAL


@given(random_dsms())
def test_binary_collapse_preserves_sparsity(d):
    b = to_binary(d)
    assert np.array_equal(b.weights != 0, d.weights != 0)
    assert above_diagonal_marks(b) == above_diagonal_marks(d)


@given(random_dsms(), st.randoms(use_true_random=False), st.integers(min_value=0, max_value=6))
def test_the_marks_rebuild_the_dsm(numerical, rnd, zeros):
    for d in (numerical, to_binary(numerical)):
        again = Dsm(d.element_ids, d.marks, d.kind)
        assert again == d and hash(again) == hash(d)
        # the same marks in any order, with zero cells (diagonal ones too) mixed in
        cells = list(zip(*d.marks)) + [(rnd.randrange(d.n), rnd.randrange(d.n), 0) for _ in range(zeros)]
        rnd.shuffle(cells)
        rows, cols, vals = ([cell[k] for cell in cells] for k in range(3))
        shuffled = Dsm(d.element_ids, (rows, cols, vals), d.kind)
        assert shuffled == d and hash(shuffled) == hash(d)
