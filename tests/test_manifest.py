import copy
import csv
import dataclasses
import json
import pickle
from collections import namedtuple

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
from dsmplan.dsm import parse_dsm_csv
from dsmplan.manifest import (
    ConversationElement,
    ConversationModel,
    _statement_tokens,
    check_references,
    load_token_table,
    parse_manifest,
    read_json_file,
)
from dsmplan.planning import load_model_catalog
from dsmplan.tokens import count_tokens_approx


Unresolved = namedtuple("Unresolved", "id label dependencies text token_count")


def parse_twice(path, table=None) -> ConversationModel:
    """The two-pass parse the library used before it built each element once:
    every element's fields are read first, then each element is built with its
    count, which it resolves by its own copy of the count rule."""
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
        elements.append(Unresolved(element_id, label, tuple(deps), text, tokens))
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
        resolved.append(
            ConversationElement(element.id, element.label, element.dependencies, element.text, token_count=count)
        )
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
    path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")  # Notepad's UTF-8 BOM
    assert parse_manifest(path) == model


def test_statement_text_is_counted(tmp_path):
    path = _write(
        tmp_path,
        {
            "user_statement": "please design the whole thing",
            "elements": [{"id": "x", "label": "X", "tokens": 1}],
        },
    )
    assert parse_manifest(path).user_statement_tokens == 5
    # a statement or instruction block may also be an object with text
    path = _write(
        tmp_path,
        {
            "user_statement": {"text": "please design the whole thing"},
            "instructions": {"text": "answer in one table"},
            "elements": [{"id": "x", "label": "X", "tokens": 1}],
        },
    )
    model = parse_manifest(path)
    assert (model.user_statement_tokens, model.instruction_tokens) == (5, 4)


@pytest.mark.parametrize(
    "document, message",
    [
        ([{"id": "x", "tokens": 1}], "^manifest root must be an object$"),
        ({"elements": [{"id": "x", "label": 3, "tokens": 1}]}, "^element 'x': label must be a string$"),
    ],
    ids=["list-root", "number-label"],
)
def test_malformed_document_is_parse_error(tmp_path, document, message):
    with pytest.raises(ParseError, match=message):
        parse_manifest(_write(tmp_path, document))


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


def test_conversation_model_rejects_a_repeated_id():
    # built directly, without parse_manifest's check_references
    counts = (("a", 5), ("b", 1), ("a", 7), ("b", 2))
    elements = [ConversationElement(id, id.upper(), token_count=n) for id, n in counts]
    with pytest.raises(DuplicateId, match="^duplicate element id 'a'$") as err:
        ConversationModel(elements=tuple(elements))
    assert err.value.element_id == "a"
    assert ConversationModel(elements=tuple(elements[:2])).token_counts() == {"a": 5, "b": 1}


@pytest.mark.parametrize("name", ["counts", "positions"])
def test_the_model_maps_are_read_only(name):
    model = parse_manifest(SPACECRAFT_MANIFEST)
    before = dict(getattr(model, name))
    with pytest.raises(TypeError):
        getattr(model, name)["A"] = 1000
    with pytest.raises(TypeError):
        del getattr(model, name)["A"]
    assert getattr(model, name) == before


@pytest.mark.parametrize(
    "rebuild",
    [
        lambda model: pickle.loads(pickle.dumps(model)),
        copy.copy,
        copy.deepcopy,
        dataclasses.replace,
        lambda model: dataclasses.replace(model, instruction_tokens=model.instruction_tokens),
    ],
    ids=["pickle", "copy", "deepcopy", "replace", "replace-field"],
)
def test_a_model_round_trips_with_its_maps(rebuild):
    model = parse_manifest(SPACECRAFT_MANIFEST)
    again = rebuild(model)
    assert again == model and hash(again) == hash(model)
    assert again.counts == model.counts and again.positions == model.positions
    with pytest.raises(TypeError):
        again.counts["A"] = 0


@pytest.mark.parametrize(
    "deps,error,message",
    [
        # the simulator would report the miss ('b', 'b')
        ({"b": ("b",)}, SelfDependency, "element 'b' depends on itself"),
        # the simulator would drop 'ghost' without a word, while build_dsm raises
        ({"a": ("ghost",), "b": ("a",)}, UnknownDependency, "element 'a' depends on unknown id 'ghost'"),
    ],
)
def test_conversation_model_rejects_a_bad_dependency(deps, error, message):
    # built directly, without parse_manifest's check_references
    elements = tuple(ConversationElement(id, id.upper(), deps.get(id, ()), token_count=1) for id in "ab")
    with pytest.raises(error, match=f"^{message}$"):
        ConversationModel(elements=elements)


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
    for load, what in [(load_token_table, "token table"), (load_model_catalog, "catalog"), (parse_dsm_csv, "DSM")]:
        with pytest.raises(ParseError, match=f"^cannot read {what} .*no-such\\.csv: "):
            load(tmp_path / "no-such.csv")


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


# pieces of the three CSV inputs, and of what breaks them: a BOM, a byte that
# is not UTF-8, a stray quote, an integer too long to convert, and a field over
# the csv module's size limit
_CSV_PIECES = [
    *(b"id,tokens\n", b"name,context_window,max_output_tokens\n", b",a,b\n", b"a", b"b", b"1", b"-2", b"x"),
    *(b",", b" ", b"\n", b"\r\n", b"\r", b'"', b"\xef\xbb\xbf", b"\xe9", b"\x00", b"9" * 5000),
    b"f" * (csv.field_size_limit() + 1),
]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(_CSV_PIECES), max_size=16).map(b"".join), st.binary(max_size=40)))
@pytest.mark.parametrize("load", [load_token_table, load_model_catalog, parse_dsm_csv], ids=["table", "catalog", "dsm"])
def test_csv_loaders_are_total(tmp_path_factory, load, document):
    path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
    path.write_bytes(document)
    try:
        load(path)
    except DsmPlanError:
        pass


def _outcome(parse, path, table):
    try:
        return parse(path, table)
    except ValueError as exc:
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


def test_counts_must_be_ints():
    # budgets are integer arithmetic: a float or a bool count is no count
    for value in (100.5, True, None):
        with pytest.raises(ValueError, match=r"element 'x': token_count must be an integer"):
            ConversationElement("x", "x", token_count=value)
    for field in ("user_statement_tokens", "instruction_tokens"):
        for value in (1.5, False):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                ConversationModel((), **{field: value})
    with pytest.raises(TypeError):
        ConversationElement("x", "x")  # every element has a count


def test_negative_table_count_fails_after_the_reference_check(tmp_path):
    table = {"x": -1}
    path = _write(tmp_path, {"elements": [{"id": "x"}]})
    with pytest.raises(ValueError, match="negative token count"):
        parse_manifest(path, table)
    path = _write(tmp_path, {"elements": [{"id": "x", "deps": ["nope"]}]})
    with pytest.raises(UnknownDependency):
        parse_manifest(path, table)


@pytest.mark.parametrize("key", ["user_statement", "instructions"])
def test_null_text_is_no_text(tmp_path, key):
    # a JSON null text means "no text", for an element and a statement object alike
    path = _write(tmp_path, {key: {"tokens": 5, "text": None}, "elements": [{"id": "x", "tokens": 5, "text": None}]})
    model = parse_manifest(path)
    assert model.token_counts() == {"x": 5}
    assert (model.user_statement_tokens, model.instruction_tokens) == ((5, 0) if key == "user_statement" else (0, 5))
    path = _write(tmp_path, {key: {"text": None}, "elements": [{"id": "x", "tokens": 1}]})
    with pytest.raises(ParseError, match=f"^{key} object needs a 'tokens' or 'text' key$"):
        parse_manifest(path)
    path = _write(tmp_path, {"elements": [{"id": "x", "text": None}]})
    with pytest.raises(MissingTokenCount):
        parse_manifest(path)
