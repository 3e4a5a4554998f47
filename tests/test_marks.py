"""The sparse mark list against the dense code it replaced.

A Dsm stores only its marks, and every stage that needs only the
dependencies reads ``Dsm.marks``.  The oracles below are the dense versions
those stages used before: matrix-filling ``build_dsm``, ``permute``,
``to_binary`` and CSV reading, a mask-gather outside-weight sum,
``np.nonzero`` sequencing, a ``triu`` feedback count, ``weights + weights.T``
neighbour lists, whole-matrix validation, the Floyd–Warshall-style boolean
closure, and the CSV, text and JSON renderers that printed ``weights`` cell
by cell.
"""

import io
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_GROUPS
from dsmplan import planning
from dsmplan.clustering import (
    ClusterAssignment,
    ClusterParams,
    _neighbours,
    _size_sq,
    assignment_from_groups,
    cluster,
)
from dsmplan.dsm import (
    _ID_CHARS,
    BINARY,
    NUMERICAL,
    Dsm,
    Permutation,
    above_diagonal_marks,
    build_dsm,
    dsm_from_csv_text,
    permute,
    to_binary,
    write_dsm,
    write_dsm_csv,
)
from dsmplan.errors import (
    DsmPlanError,
    NegativeWeight,
    NonSquare,
    NonzeroDiagonal,
    ParseError,
)
from dsmplan.manifest import ConversationElement, ConversationModel, check_references
from dsmplan.planning import BudgetConfig, make_pieces, plan_conversation
from dsmplan.sequencing import SequencingResult, _tarjan_sccs, reachability, sequence
from oracles import brute_force_cluster, dense
from test_sequencing import bitsets

# ---------------------------------------------------------------------------
# dense oracles
# ---------------------------------------------------------------------------


def dense_interaction(weights: np.ndarray, labels: np.ndarray) -> int:
    outside = labels[:, None] != labels[None, :]
    return int(weights[outside].sum())


def dense_above_diagonal(weights: np.ndarray) -> int:
    return int(np.count_nonzero(np.triu(weights, k=1)))


def dense_neighbours(weights: np.ndarray) -> list[list[tuple[int, int]]]:
    sym = weights + weights.T
    rows, cols = np.nonzero(sym)
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(weights.shape[0])]
    for i, j, w in zip(rows.tolist(), cols.tolist(), sym[rows, cols].tolist()):
        nbrs[i].append((j, w))
    return nbrs


def dense_sequence(d: Dsm) -> SequencingResult:
    n = d.n
    succ: list[list[int]] = [[] for _ in range(n)]
    consumers, providers = np.nonzero(d.weights)
    for i, j in zip(consumers.tolist(), providers.tolist()):
        succ[j].append(i)
    components = _tarjan_sccs(succ)
    comp_of = [0] * n
    for comp_index, members in enumerate(components):
        for v in members:
            comp_of[v] = comp_index
    preds: list[set[int]] = [set() for _ in components]
    succs: list[set[int]] = [set() for _ in components]
    for i, j in zip(consumers.tolist(), providers.tolist()):
        ci, cj = comp_of[i], comp_of[j]
        if ci != cj:
            preds[ci].add(cj)
            succs[cj].add(ci)
    level = [0] * len(components)
    indegree = [len(p) for p in preds]
    queue = [c for c, deg in enumerate(indegree) if deg == 0]
    for c in queue:
        level[c] = 1
    head = 0
    while head < len(queue):
        c = queue[head]
        head += 1
        for s in succs[c]:
            level[s] = max(level[s], level[c] + 1)
            indegree[s] -= 1
            if indegree[s] == 0:
                queue.append(s)
    members_sorted = [sorted(m) for m in components]
    by_level: dict[int, list[int]] = {}
    for comp_index in range(len(components)):
        by_level.setdefault(level[comp_index], []).append(comp_index)
    levels, flat, cycles = [], [], []
    for lvl in sorted(by_level):
        level_indices: list[int] = []
        for comp_index in sorted(by_level[lvl], key=lambda c: members_sorted[c][0]):
            level_indices.extend(members_sorted[comp_index])
            if len(members_sorted[comp_index]) >= 2:
                cycles.append(tuple(d.element_ids[v] for v in members_sorted[comp_index]))
        levels.append(tuple(d.element_ids[v] for v in level_indices))
        flat.extend(level_indices)
    return SequencingResult(d.element_ids, tuple(levels), Permutation(tuple(flat)), tuple(cycles))


def dense_marks(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The marks the dense ``Dsm`` took from its matrix: one row-major nonzero scan."""
    flat = np.flatnonzero(weights != 0)
    rows, cols = np.divmod(flat, max(weights.shape[0], 1))
    return rows, cols, weights[rows, cols]


def dense_build_dsm(elements: list[ConversationElement]) -> tuple[tuple[str, ...], np.ndarray, str]:
    index = check_references(elements)
    n = len(elements)
    w = np.zeros((n, n), dtype=np.int64)
    for i, element in enumerate(elements):
        for dep in element.dependencies:
            j = index[dep]
            w[i, j] = elements[j].token_count
    return tuple(index), w, NUMERICAL


def dense_permute(ids, weights, kind, order) -> tuple[tuple[str, ...], np.ndarray, str]:
    order = list(order)
    return tuple(ids[i] for i in order), weights[np.ix_(order, order)], kind


def dense_to_binary(ids, weights) -> tuple[tuple[str, ...], np.ndarray, str]:
    return ids, (weights != 0).astype(np.int64), BINARY


def dense_from_csv_text(text: str) -> tuple[tuple[str, ...], np.ndarray, str]:
    """The matrix-filling CSV reader, for well-formed files."""
    lines = text.split("\n")[:-1]
    ids = tuple(lines[0].split(",")[1:])
    n = len(ids)
    w = np.zeros((n, n), dtype=np.int64)
    for i, line in enumerate(lines[1:]):
        for j, cell in enumerate(line.split(",")[1:]):
            if cell != "":
                w[i, j] = int(cell)
    nonzero = w[w != 0]
    return ids, w, BINARY if nonzero.size and (nonzero == 1).all() else NUMERICAL


def assert_immutable_ints(marks) -> None:
    """The marks are three tuples of plain ints: no array, nothing to write to."""
    assert type(marks) is tuple and len(marks) == 3
    for a in marks:
        assert type(a) is tuple and all(type(v) is int for v in a)


def assert_is_dense(d: Dsm, ids: tuple[str, ...], weights: np.ndarray, kind: str) -> None:
    """``d`` is the Dsm the dense code built from (ids, weights, kind)."""
    assert "weights" not in vars(d), "the matrix was built before anyone asked for it"
    want = tuple(tuple(a.tolist()) for a in dense_marks(weights))
    assert d.element_ids == ids and d.kind == kind
    assert d.marks == want
    assert_immutable_ints(d.marks)
    assert hash(d) == hash((ids, kind, want))
    assert d == dense(ids, weights, kind=kind)
    assert np.array_equal(d.weights, weights) and d.weights.dtype == np.int64
    assert not d.weights.flags.writeable
    assert d.weights is d.weights  # built once, then cached


def dense_reachability(weights: np.ndarray) -> np.ndarray:
    reach = (weights != 0) | np.eye(weights.shape[0], dtype=bool)
    for k in range(weights.shape[0]):
        reach[reach[:, k]] |= reach[k]
    return reach


def dense_csv(d: Dsm) -> str:
    """``write_dsm_csv``'s rows as it read them from ``weights``."""
    lines = [",".join(["", *d.element_ids])]
    for i, element_id in enumerate(d.element_ids):
        cells = ["" if v == 0 else str(int(v)) for v in d.weights[i]]
        lines.append(element_id + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def dense_text(d: Dsm) -> str:
    """``dsmplan dsm --format text`` as it read ``weights`` one cell at a time."""
    width = max((len(e) for e in d.element_ids), default=1) + 1
    header = " " * width + "".join(f"{e:>{width}}" for e in d.element_ids)
    lines = [header]
    for i, element_id in enumerate(d.element_ids):
        marks = "".join(f"{'X' if d.weights[i, j] else '.':>{width}}" for j in range(d.n))
        lines.append(f"{element_id:<{width}}" + marks)
    return "\n".join(lines) + "\n"


def dense_json(d: Dsm) -> str:
    """``dsmplan dsm --format json`` as it dumped the whole ``weights`` list."""
    payload = {"element_ids": list(d.element_ids), "kind": d.kind, "weights": d.weights.tolist()}
    return json.dumps(payload, indent=2) + "\n"


def cli_dsm(d: Dsm, fmt: str) -> str:
    """What ``dsmplan dsm --format fmt`` prints for this matrix."""
    out = io.StringIO()
    write_dsm(d, fmt, out)
    return out.getvalue()


def dense_validation_error(ids: tuple[str, ...], weights: np.ndarray, kind: str) -> type | None:
    """The error type the whole-matrix checks raised, in their order, or None."""
    w = np.array(weights, dtype=np.int64)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] != len(ids):
        return NonSquare
    if (w < 0).any():
        return NegativeWeight
    if w.shape[0] and np.diagonal(w).any():
        return NonzeroDiagonal
    if kind == BINARY and (w > 1).any():
        return ValueError
    return None


# ---------------------------------------------------------------------------
# every mark-reading stage equals its dense oracle
# ---------------------------------------------------------------------------


@st.composite
def random_matrix(draw, max_n=40):
    n = draw(st.integers(min_value=0, max_value=max_n))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
    kind = draw(st.sampled_from([BINARY, NUMERICAL]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    high = 2 if kind == BINARY else 60
    w = np.where(rng.random((n, n)) < density, rng.integers(1, high, size=(n, n)), 0)
    np.fill_diagonal(w, 0)
    return tuple(f"e{k}" for k in range(n)), w, kind, rng


@st.composite
def random_dsm(draw, max_n=40):
    ids, w, kind, rng = draw(random_matrix(max_n))
    return dense(ids, w, kind=kind), rng


@st.composite
def random_elements(draw, max_n=25):
    """Manifest elements with any dependency pattern."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    ids = [f"e{k}" for k in range(n)]
    elements = []
    for k in range(n):
        deps = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=6)) if n > 1 else []
        tokens = draw(st.integers(min_value=0, max_value=500))
        elements.append(
            ConversationElement(
                id=ids[k], label=ids[k], dependencies=tuple(ids[j] for j in deps if j != k), token_count=tokens
            )
        )
    return elements


def synthetic_conversation(n: int, seed: int) -> ConversationModel:
    """A seeded DAG: each element reads up to 4 of the 40 before it, and about
    2% also read one a few places ahead, which closes small coupled groups."""
    rng = random.Random(seed)
    ids = [f"e{k}" for k in range(n)]
    elements = []
    for k in range(n):
        deps = set(rng.sample(range(max(0, k - 40), k), min(k, 4)))
        if k + 1 < n and rng.random() < 0.02:
            deps.add(rng.randrange(k + 1, min(n, k + 6)))
        deps_ids = tuple(ids[j] for j in sorted(deps))
        elements.append(
            ConversationElement(id=ids[k], label=ids[k], dependencies=deps_ids, token_count=rng.randint(20, 400))
        )
    return ConversationModel(elements=tuple(elements), user_statement_tokens=100, instruction_tokens=50)


def fixed_grouping_plan(conversation: ConversationModel, config: BudgetConfig, spec) -> Dsm:
    """Plan along coupled groups plus singletons, with no search; returns the matrix."""
    dsm = build_dsm(conversation.elements)
    seq = sequence(dsm)
    coupled = {e for group in seq.cycles for e in group}
    groups = [*seq.cycles, *([e] for e in dsm.element_ids if e not in coupled)]
    make_pieces(conversation, seq, assignment_from_groups(dsm, groups), config, spec)
    return dsm


# ---------------------------------------------------------------------------
# every function that builds a Dsm gives the marks the dense code gave
# ---------------------------------------------------------------------------


@given(random_matrix())
@settings(max_examples=150, deadline=None)
def test_constructors_match_the_dense_code(case):
    ids, w, kind, rng = case
    d = dense(ids, w, kind=kind)
    assert_is_dense(d, ids, w, kind)
    order = rng.permutation(len(ids)).tolist()
    assert_is_dense(permute(d, Permutation(order)), *dense_permute(ids, w, kind, order))
    assert_is_dense(to_binary(d), *dense_to_binary(ids, w))
    text = write_dsm_csv(d)
    assert_is_dense(dsm_from_csv_text(text), *dense_from_csv_text(text))


@given(random_elements())
@settings(max_examples=150, deadline=None)
def test_build_dsm_matches_the_dense_code(elements):
    try:
        want = dense_build_dsm(elements)
    except DsmPlanError as exc:
        with pytest.raises(type(exc)):
            build_dsm(elements)
        return
    assert_is_dense(build_dsm(elements), *want)


@given(random_dsm(), st.sampled_from(["count", "tokens"]))
@settings(max_examples=120, deadline=None)
def test_mark_stages_match_dense_oracles(case, size_mode):
    d, rng = case
    rows, cols, vals = d.marks
    assert np.array_equal(np.stack([rows, cols], axis=1), np.argwhere(d.weights))
    assert np.array_equal(vals, d.weights[d.weights != 0])
    assert_immutable_ints(d.marks)
    assert above_diagonal_marks(d) == dense_above_diagonal(d.weights)
    assert _neighbours(d) == dense_neighbours(d.weights)
    assert sequence(d) == dense_sequence(d)
    assert reachability(d) == bitsets(dense_reachability(d.weights))

    params = ClusterParams(size_mode=size_mode)
    tokens = dict(zip(d.element_ids, rng.integers(1, 400, size=d.n).tolist()))
    labels = rng.integers(0, max(d.n, 1), size=d.n)
    assignment = dict(zip(d.element_ids, labels.tolist()))
    tok = np.array([tokens[e] for e in d.element_ids], dtype=np.int64)
    groups: dict[int, list[str]] = {}
    for e, label in assignment.items():
        groups.setdefault(label, []).append(e)
    want = params.alpha * _size_sq(labels, params, tok) + params.beta * dense_interaction(d.weights, labels)
    scored = assignment_from_groups(d, groups.values(), params, tokens)
    assert scored.j_interaction_term == dense_interaction(d.weights, labels)
    assert scored.j_total == want
    if d.n == 0:
        assert scored == ClusterAssignment({}, 0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="exactly once"):
        assignment_from_groups(d, [*groups.values(), ["not-an-id"]], params, tokens)
    if d.n:
        with pytest.raises(ValueError, match="exactly once"):
            assignment_from_groups(d, [*groups.values(), [d.element_ids[0]]], params, tokens)


@st.composite
def printable_dsm(draw, max_n=40):
    """A permuted Dsm with weights up to the int64 limit and ids of mixed widths:
    CSV-safe ids, or any text, non-ASCII and JSON escapes included."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    kind = draw(st.sampled_from([BINARY, NUMERICAL]))
    csv_safe = draw(st.booleans())
    alphabet = st.sampled_from(sorted(_ID_CHARS)) if csv_safe else st.characters(blacklist_categories=("Cs",))
    ids = draw(st.lists(st.text(alphabet, min_size=1, max_size=9), min_size=n, max_size=n, unique=True))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    density = rng.choice([0.0, 0.1, 0.5, 1.0])
    w = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                w[i][j] = 1 if kind == BINARY else rng.randrange(1, 2 ** rng.choice([1, 8, 32, 63]))
    order = list(range(n))
    rng.shuffle(order)
    return permute(dense(ids, np.array(w, dtype=np.int64).reshape(n, n), kind=kind), Permutation(order)), csv_safe


@given(printable_dsm())
@settings(max_examples=200, deadline=None)
def test_printed_matrix_matches_the_dense_renderers(case):
    d, _ = case
    assert cli_dsm(d, "text") == dense_text(d)
    assert cli_dsm(d, "json") == dense_json(d)
    if all(set(e) <= _ID_CHARS for e in d.element_ids):
        assert write_dsm_csv(d) == cli_dsm(d, "csv") == dense_csv(d)
    else:
        out = io.StringIO()
        with pytest.raises(ParseError, match="needs quoting"):
            write_dsm(d, "csv", out)
        assert out.getvalue() == ""  # the id check comes before the first byte
        with pytest.raises(ParseError, match="needs quoting"):
            write_dsm_csv(d)


_CORRUPTIONS = ["negative", "diagonal", "above_one", "drop_column", "extra_id"]


@given(
    st.integers(min_value=0, max_value=6),
    st.sampled_from([BINARY, NUMERICAL]),
    st.lists(st.sampled_from(_CORRUPTIONS), max_size=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_validation_raises_what_the_dense_checks_raised(n, kind, corruptions, seed):
    rng = np.random.default_rng(seed)
    w = (rng.random((n, n)) < 0.4).astype(np.int64)
    np.fill_diagonal(w, 0)
    ids = tuple(f"e{k}" for k in range(n))
    for corruption in corruptions:
        if corruption == "drop_column" and w.shape[1]:
            w = w[:, :-1]
        elif corruption == "extra_id":
            ids = (*ids, f"x{len(ids)}")
        elif w.size:
            i, j = int(rng.integers(w.shape[0])), int(rng.integers(w.shape[1]))
            if corruption == "negative":
                w[i, j] = -int(rng.integers(1, 5))
            elif corruption == "diagonal" and i < w.shape[1]:
                w[i, i] = int(rng.integers(1, 5))
            elif corruption == "above_one" and i != j:
                w[i, j] = 2
    error = dense_validation_error(ids, w, kind)
    if error is None:
        dense(ids, w, kind=kind)
    else:
        with pytest.raises(Exception) as raised:
            dense(ids, w, kind=kind)
        assert type(raised.value) is error


# ---------------------------------------------------------------------------
# no stage that needs only the dependencies falls back to the dense matrix
# ---------------------------------------------------------------------------


class _Untouchable:
    """Stands in for ``Dsm.weights``: any use of it fails the test."""

    def _fail(self, *args, **kwargs):
        raise AssertionError("a stage read the dense weights")

    __getattr__ = __getitem__ = __array__ = __iter__ = __len__ = __bool__ = _fail
    __eq__ = __ne__ = __lt__ = __gt__ = __add__ = __radd__ = __mul__ = _fail  # type: ignore[assignment]


def _without_weights(d: Dsm) -> Dsm:
    guarded = Dsm(d.element_ids, d.marks, d.kind)
    object.__setattr__(guarded, "weights", _Untouchable())
    return guarded


def test_the_guard_catches_a_dense_read(spacecraft_dsm):
    with pytest.raises(AssertionError, match="dense weights"):
        np.nonzero(_without_weights(spacecraft_dsm).weights)


@pytest.mark.parametrize("size_mode", ["count", "tokens"])
@pytest.mark.parametrize("cap", [None, 8000])
def test_stages_read_only_the_marks(spacecraft, spacecraft_dsm, size_mode, cap):
    d = spacecraft_dsm
    guarded = _without_weights(d)
    counts = spacecraft.token_counts()
    params = ClusterParams(size_mode=size_mode, max_cluster_tokens=cap, restarts=3, iterations_per_restart=300)
    assert guarded == d and hash(guarded) == hash(d)
    assert sequence(guarded) == sequence(d)
    assert above_diagonal_marks(guarded) == above_diagonal_marks(d)
    reverse = Permutation(tuple(reversed(range(d.n))))
    assert permute(guarded, reverse) == permute(d, reverse)
    assert to_binary(guarded) == to_binary(d)
    assert reachability(guarded) == reachability(d)
    assert write_dsm_csv(guarded) == dense_csv(d)
    assert cli_dsm(guarded, "text") == dense_text(d)
    assert cli_dsm(guarded, "json") == dense_json(d)
    assert cluster(guarded, params, counts) == cluster(d, params, counts)
    fixed = assignment_from_groups(guarded, REFERENCE_GROUPS, params, counts)
    assert fixed == assignment_from_groups(d, REFERENCE_GROUPS, params, counts)

    small = dense(d.element_ids[:6], d.weights[:6, :6])
    small_counts = {e: counts[e] for e in small.element_ids}
    small_params = ClusterParams(size_mode=size_mode, max_cluster_tokens=cap)
    assert brute_force_cluster(_without_weights(small), small_params, small_counts) == brute_force_cluster(
        small, small_params, small_counts
    )


# ---------------------------------------------------------------------------
# planning never builds the dense matrix
# ---------------------------------------------------------------------------


def test_planning_never_builds_the_dense_matrix(monkeypatch, mistral):
    conversation = synthetic_conversation(300, seed=7)
    config = BudgetConfig(margin=0.05, instructions_per_piece=conversation.instruction_tokens)
    built: list[Dsm] = []

    def recording_build_dsm(elements):
        built.append(build_dsm(elements))
        return built[-1]

    monkeypatch.setattr(planning, "build_dsm", recording_build_dsm)
    plan_conversation(conversation, ClusterParams(restarts=2, iterations_per_restart=300), config, mistral)
    assert len(built) == 1
    fixed = fixed_grouping_plan(conversation, config, mistral)
    for d in (*built, fixed):
        assert "weights" not in vars(d)
    assert fixed == built[0]


def test_planning_memory_stays_below_one_dense_matrix():
    # build_dsm + sequence + assignment_from_groups at n=2000 (about 8000
    # marks) must peak below n²·8 bytes, the size of one int64 n×n matrix
    n = 2000
    conversation = synthetic_conversation(n, seed=11)
    tracemalloc.start()
    try:
        dsm = build_dsm(conversation.elements)
        seq = sequence(dsm)
        coupled = {e for group in seq.cycles for e in group}
        assignment_from_groups(dsm, [*seq.cycles, *([e] for e in dsm.element_ids if e not in coupled)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seq.cycles, "the synthetic DAG should close some coupled groups"
    assert peak < n * n * 8, f"peak {peak} bytes"
