import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmplan.errors import (
    DsmPlanError,
    DuplicateId,
    MissingTokenCount,
    ParseError,
    SelfDependency,
    UnknownDependency,
)
from dsmplan.manifest import ConversationModel, parse_manifest
from dsmplan.tokens import TokenCountProvider


def _write(tmp_path, payload):
    path = tmp_path / "conv.json"
    path.write_text(json.dumps(payload))
    return path


def test_bundled_manifest_shape(spacecraft):
    assert len(spacecraft.elements) == 13
    assert spacecraft.user_statement_tokens == 200
    assert spacecraft.instruction_tokens == 50
    assert spacecraft.element_ids[0] == "A"
    assert spacecraft.element_ids[-1] == "M"


def test_bundled_token_counts(spacecraft):
    counts = spacecraft.token_counts()
    assert counts["A"] == 190
    assert counts["C"] == 3082
    assert counts["H"] == 1510
    assert sum(counts.values()) == 9713


def test_bundled_dependencies(spacecraft):
    deps = spacecraft.dependencies()
    assert deps["A"] == ()
    assert deps["D"] == ("A", "B", "C", "F", "I")
    assert deps["M"] == ("B", "K")
    assert sum(len(d) for d in deps.values()) == 50


def test_total_tokens(spacecraft):
    assert spacecraft.total_tokens() == 9713


def test_text_is_counted_approximately(tmp_path):
    path = _write(
        tmp_path,
        {
            "elements": [
                {"id": "x", "label": "X", "text": "alpha beta, gamma"},
                {"id": "y", "label": "Y", "deps": ["x"], "tokens": 5},
            ]
        },
    )
    model = parse_manifest(path)
    assert model.token_counts() == {"x": 4, "y": 5}
    assert model.user_statement_tokens == 0


def test_statement_text_is_counted(tmp_path):
    path = _write(
        tmp_path,
        {
            "user_statement": "please design the whole thing",
            "elements": [{"id": "x", "label": "X", "tokens": 1}],
        },
    )
    assert parse_manifest(path).user_statement_tokens == 5


def test_duplicate_id(tmp_path):
    path = _write(
        tmp_path,
        {"elements": [{"id": "x", "label": "X", "tokens": 1}, {"id": "x", "label": "X2", "tokens": 1}]},
    )
    with pytest.raises(DuplicateId):
        parse_manifest(path)


def test_unknown_dependency(tmp_path):
    path = _write(tmp_path, {"elements": [{"id": "x", "label": "X", "tokens": 1, "deps": ["nope"]}]})
    with pytest.raises(UnknownDependency) as err:
        parse_manifest(path)
    assert "nope" in str(err.value)


def test_self_dependency(tmp_path):
    path = _write(tmp_path, {"elements": [{"id": "x", "label": "X", "tokens": 1, "deps": ["x"]}]})
    with pytest.raises(SelfDependency):
        parse_manifest(path)


def test_element_needs_text_or_tokens(tmp_path):
    path = _write(tmp_path, {"elements": [{"id": "x", "label": "X"}]})
    with pytest.raises(MissingTokenCount):
        parse_manifest(path)


def test_text_and_tokens_together_rejected(tmp_path):
    path = _write(tmp_path, {"elements": [{"id": "x", "label": "X", "text": "hi", "tokens": 3}]})
    with pytest.raises(ParseError):
        parse_manifest(path)


def test_table_provider_fills_counts(tmp_path):
    path = _write(tmp_path, {"elements": [{"id": "x", "label": "X"}, {"id": "y", "label": "Y"}]})
    model = parse_manifest(path, TokenCountProvider.from_table({"x": 11, "y": 22}))
    assert model.token_counts() == {"x": 11, "y": 22}


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"elements": [\n  {"id": }\n]}')
    with pytest.raises(ParseError, match="line 2"):
        parse_manifest(path)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError, match="no-such"):
        parse_manifest(tmp_path / "no-such.json")


_UNREADABLE = {
    "nested": b"[" * 200_000,
    "not-utf8": b'{"elements": [{"id": "x", "text": "caf\xe9"}]}',
}


@pytest.mark.parametrize("case", sorted(_UNREADABLE))
def test_unreadable_json_is_parse_error(tmp_path, case):
    path = tmp_path / "conv.json"
    path.write_bytes(_UNREADABLE[case])
    with pytest.raises(ParseError, match="conv.json"):
        parse_manifest(path)


def test_repeated_dependency_is_kept_once_in_first_seen_order(tmp_path):
    elements = [{"id": "x", "tokens": 1}, {"id": "z", "tokens": 1}, {"id": "y", "tokens": 1, "deps": ["z", "x", "z"]}]
    path = _write(tmp_path, {"elements": elements})
    assert parse_manifest(path).dependencies()["y"] == ("z", "x")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _manifests(draw):
    """A valid manifest, with one value swapped for arbitrary JSON half the time."""
    ids = draw(st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=5))
    elements: list = []
    for k, element_id in enumerate(ids):
        deps = draw(st.lists(st.sampled_from(ids[:k]), max_size=2)) if k else []
        element = {"id": element_id, "deps": deps}
        if draw(st.booleans()):
            element["text"] = draw(st.text(max_size=12))
        else:
            element["tokens"] = draw(st.integers(0, 50))
        elements.append(element)
    doc = {"elements": elements, "user_statement": {"tokens": draw(st.integers(0, 50))}, "instructions": "do it"}
    if draw(st.booleans()):
        holders = [doc, doc["user_statement"], *elements]
        holder = draw(st.sampled_from(holders))
        holder[draw(st.sampled_from([*holder, "text", "tokens"]))] = draw(_JSON)
    return doc


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(_manifests().map(lambda doc: json.dumps(doc).encode()), st.binary(max_size=40)),
    st.sampled_from([None, TokenCountProvider.from_table({"a": 3, "b": 0})]),
)
def test_parse_manifest_is_total(tmp_path_factory, document, provider):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_bytes(document)
    try:
        model = parse_manifest(path, provider)
    except DsmPlanError:
        return
    assert isinstance(model, ConversationModel)
