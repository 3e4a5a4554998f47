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
    MissingTokenCount,
    NegativeWeight,
    NonSquare,
    NonzeroDiagonal,
    ParseError,
    UnknownDependency,
)
from dsmplan.manifest import ConversationElement
from dsmplan.data import SPACECRAFT_DSM_BINARY, SPACECRAFT_DSM_TOKENS


def test_build_dsm_columns_carry_provider_tokens(spacecraft, spacecraft_dsm):
    d = spacecraft_dsm
    counts = spacecraft.token_counts()
    for j, provider in enumerate(d.element_ids):
        column = d.weights[:, j]
        assert set(np.unique(column)) <= {0, counts[provider]}
    # spot checks: D depends on C, M depends on K
    assert d.weights[d.index("D"), d.index("C")] == 3082
    assert d.weights[d.index("M"), d.index("K")] == 239
    assert d.weights[d.index("A"), d.index("B")] == 0


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
    d = Dsm(("a", "b"), np.array([[0, 0], [7, 0]]))
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


def test_dsm_validation():
    with pytest.raises(DuplicateId):
        Dsm(("a", "a"), np.zeros((2, 2), dtype=int))
    with pytest.raises(NonSquare):
        Dsm(("a", "b"), np.zeros((2, 3), dtype=int))
    with pytest.raises(NonSquare):
        Dsm(("a", "b", "c"), np.zeros((2, 2), dtype=int))
    with pytest.raises(NegativeWeight):
        Dsm(("a", "b"), np.array([[0, -1], [0, 0]]))
    with pytest.raises(NonzeroDiagonal):
        Dsm(("a", "b"), np.array([[1, 0], [0, 0]]))
    with pytest.raises(ValueError):
        Dsm(("a", "b"), np.array([[0, 2], [0, 0]]), kind=BINARY)


def test_build_dsm_checks_the_graph_before_token_counts():
    # "a" has no token count, but the unknown dependency of "c" is reported first
    elements = [
        ConversationElement(id="a", label="a"),
        ConversationElement(id="b", label="b", dependencies=("a",), token_count=1),
        ConversationElement(id="c", label="c", dependencies=("nope",), token_count=1),
    ]
    with pytest.raises(UnknownDependency):
        build_dsm(elements)
    with pytest.raises(MissingTokenCount):
        build_dsm(elements[:2])


def test_csv_fixture_files_match_built_matrix(spacecraft_dsm):
    assert parse_dsm_csv(SPACECRAFT_DSM_TOKENS) == spacecraft_dsm
    assert parse_dsm_csv(SPACECRAFT_DSM_BINARY) == to_binary(spacecraft_dsm)
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
    changed = Dsm(spacecraft_dsm.element_ids, w)
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
    ],
)
def test_csv_rejects_malformed(text, error):
    with pytest.raises(error):
        dsm_from_csv_text(text)


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
    return Dsm(ids, w)


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
