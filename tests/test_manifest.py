import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmplan.errors import (
    DsmPlanError,
    DuplicateId,
    MissingTableEntry,
    MissingTokenCount,
    ParseError,
    SelfDependency,
    UnknownDependency,
)
from dsmplan import manifest
from dsmplan.data import SPACECRAFT_MANIFEST, SPACECRAFT_TOKEN_TABLE
from dsmplan.manifest import (
    ConversationElement,
    ConversationModel,
    _statement_tokens,
    check_references,
    parse_manifest,
    read_json_file,
)
from dsmplan.tokens import count_tokens_approx, load_token_table


def parse_twice(path, table=None) -> ConversationModel:
    """The two-pass parse the library used before it built each element once:
    every element is built from its fields, then built again with its count,
    which it resolves by its own copy of the count rule."""
    doc = read_json_file(path, "manifest")
    if not isinstance(doc, dict):
        raise ParseError("manifest root must be an object")
    raw_elements = doc.get("elements")
    if not isinstance(raw_elements, list):
        raise ParseError("manifest needs an 'elements' list")

    elements = []
    for position, raw in enumerate(raw_elements):
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
        elements.append(ConversationElement(element_id, label, tuple(deps), text, tokens))
    check_references(elements)
    resolved = []
    for element in elements:
        if table is not None:
            if element.id not in table:
                raise MissingTableEntry(element.id)
            count = table[element.id]
        elif element.text is not None and element.token_count is not None:
            raise ParseError(f"element {element.id!r} has both text and a literal token count")
        elif element.token_count is not None:
            count = element.token_count
        elif element.text is not None:
            count = count_tokens_approx(element.text)
        else:
            raise MissingTokenCount(element.id)
        resolved.append(ConversationElement(element.id, element.label, element.dependencies, element.text, count))
    return ConversationModel(
        elements=tuple(resolved),
        user_statement_tokens=_statement_tokens(doc.get("user_statement"), "user_statement"),
        instruction_tokens=_statement_tokens(doc.get("instructions"), "instructions"),
    )


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


@pytest.mark.parametrize("key", ["user_statement", "instructions"])
def test_statement_text_must_be_a_string(tmp_path, key):
    path = _write(tmp_path, {key: {"text": 7}, "elements": [{"id": "x", "label": "X", "tokens": 1}]})
    with pytest.raises(ParseError, match=f"^{key}.text must be a string$"):
        parse_manifest(path)


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
    model = parse_manifest(path, {"x": 11, "y": 22})
    assert model.token_counts() == {"x": 11, "y": 22}


def test_table_count_wins_over_literal_and_text(tmp_path):
    path = _write(tmp_path, {"elements": [{"id": "a", "tokens": 99}, {"id": "b", "text": "one two three"}]})
    assert parse_manifest(path, {"a": 7, "b": 8}).token_counts() == {"a": 7, "b": 8}


def test_table_without_the_id_raises_missing_table_entry(tmp_path):
    path = _write(tmp_path, {"elements": [{"id": "a", "tokens": 1}, {"id": "b", "tokens": 2}]})
    with pytest.raises(MissingTableEntry, match="'b'"):
        parse_manifest(path, {"a": 7})


def test_bundled_token_table_gives_the_manifest_counts(spacecraft):
    model = parse_manifest(SPACECRAFT_MANIFEST, load_token_table(SPACECRAFT_TOKEN_TABLE))
    assert model.token_counts() == spacecraft.token_counts()


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
    """A manifest, now and then with a repeated id, a self or unknown dependency,
    or an element with both text and tokens or neither; and with one value
    swapped for arbitrary JSON half the time."""
    ids = draw(st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=5))
    if ids and draw(st.integers(0, 9)) == 0:
        ids.append(draw(st.sampled_from(ids)))
    elements: list = []
    for k, element_id in enumerate(ids):
        deps = draw(st.lists(st.sampled_from(ids[:k]), max_size=2)) if k else []
        if draw(st.integers(0, 19)) == 0:
            deps.append(draw(st.sampled_from([element_id, "z"])))
        element = {"id": element_id, "deps": deps}
        kind = draw(st.sampled_from(["text", "tokens"] * 4 + ["both", "neither"]))
        if kind in ("text", "both"):
            element["text"] = draw(st.text(max_size=12))
        if kind in ("tokens", "both"):
            element["tokens"] = draw(st.integers(0, 50))
        elements.append(element)
    doc = {"elements": elements, "user_statement": {"tokens": draw(st.integers(0, 50))}, "instructions": "do it"}
    if draw(st.booleans()):
        holders = [doc, doc["user_statement"], *elements]
        holder = draw(st.sampled_from(holders))
        holder[draw(st.sampled_from([*holder, "text", "tokens"]))] = draw(_JSON)
    return doc


_DOCUMENTS = st.one_of(_manifests().map(lambda doc: json.dumps(doc).encode()), st.binary(max_size=40))


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS, st.sampled_from([None, {"a": 3, "b": 0}]))
def test_parse_manifest_is_total(tmp_path_factory, document, table):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_bytes(document)
    try:
        model = parse_manifest(path, table)
    except DsmPlanError:
        return
    assert isinstance(model, ConversationModel)


def _outcome(parse, path, table):
    try:
        return parse(path, table)
    except (DsmPlanError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    _DOCUMENTS,
    st.sampled_from(
        [
            None,
            {},
            {"a": 3, "b": 0},  # the other ids are missing
            {"a": 3, "b": -1, "c": 4, "d": -2},  # built in code: unchecked
        ]
    ),
)
def test_parse_manifest_matches_two_pass_parse(tmp_path_factory, document, table):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_bytes(document)
    assert _outcome(parse_manifest, path, table) == _outcome(parse_twice, path, table)


def test_parse_manifest_builds_each_element_once(monkeypatch):
    built = []

    class CountingElement(ConversationElement):
        def __post_init__(self):
            built.append(self.id)
            super().__post_init__()

    monkeypatch.setattr(manifest, "ConversationElement", CountingElement)
    model = parse_manifest(SPACECRAFT_MANIFEST)
    assert built == list(model.element_ids)


def test_negative_table_count_fails_after_the_reference_check(tmp_path):
    table = {"x": -1}
    path = _write(tmp_path, {"elements": [{"id": "x"}]})
    with pytest.raises(ValueError, match="negative token count"):
        parse_manifest(path, table)
    path = _write(tmp_path, {"elements": [{"id": "x", "deps": ["nope"]}]})
    with pytest.raises(UnknownDependency):
        parse_manifest(path, table)
