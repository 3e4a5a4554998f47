"""The sparse mark list against the dense code it replaced.

Every stage that needs only the dependencies reads ``Dsm.marks``.  The
oracles below are the dense versions those stages used before: a mask-gather
outside-weight sum, ``np.nonzero`` sequencing, a ``triu`` feedback count,
``weights + weights.T`` neighbour lists and whole-matrix validation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_GROUPS
from dsmplan.clustering import (
    ClusterParams,
    _neighbours,
    _size_sq,
    assignment_from_groups,
    brute_force_cluster,
    cluster,
    clustering_cost,
)
from dsmplan.dsm import BINARY, NUMERICAL, Dsm, Permutation, above_diagonal_marks
from dsmplan.errors import EmptyMatrix, NegativeWeight, NonSquare, NonzeroDiagonal
from dsmplan.sequencing import SequencingResult, _tarjan_sccs, sequence

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
def random_dsm(draw, max_n=40):
    n = draw(st.integers(min_value=0, max_value=max_n))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
    kind = draw(st.sampled_from([BINARY, NUMERICAL]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    high = 2 if kind == BINARY else 60
    w = np.where(rng.random((n, n)) < density, rng.integers(1, high, size=(n, n)), 0)
    np.fill_diagonal(w, 0)
    return Dsm(tuple(f"e{k}" for k in range(n)), w, kind=kind), rng


@given(random_dsm(), st.sampled_from(["count", "tokens"]))
@settings(max_examples=120, deadline=None)
def test_mark_stages_match_dense_oracles(case, size_mode):
    d, rng = case
    rows, cols, vals = d.marks
    assert np.array_equal(np.stack([rows, cols], axis=1), np.argwhere(d.weights))
    assert np.array_equal(vals, d.weights[d.weights != 0])
    assert not any(a.flags.writeable for a in d.marks)
    assert above_diagonal_marks(d) == dense_above_diagonal(d.weights)
    assert _neighbours(d) == dense_neighbours(d.weights)
    assert sequence(d) == dense_sequence(d)

    params = ClusterParams(size_mode=size_mode)
    tokens = dict(zip(d.element_ids, rng.integers(1, 400, size=d.n).tolist()))
    labels = rng.integers(0, max(d.n, 1), size=d.n)
    assignment = dict(zip(d.element_ids, labels.tolist()))
    tok = np.array([tokens[e] for e in d.element_ids], dtype=np.int64)
    want = params.alpha * _size_sq(labels, params, tok) + params.beta * dense_interaction(d.weights, labels)
    assert clustering_cost(d, assignment, params, tokens) == want

    groups: dict[int, list[str]] = {}
    for e, label in assignment.items():
        groups.setdefault(label, []).append(e)
    if d.n == 0:
        with pytest.raises(EmptyMatrix):
            assignment_from_groups(d, groups.values(), params, tokens)
        return
    scored = assignment_from_groups(d, groups.values(), params, tokens)
    assert scored.j_interaction_term == dense_interaction(d.weights, labels)
    assert scored.j_total == want
    with pytest.raises(ValueError, match="exactly once"):
        assignment_from_groups(d, [*groups.values(), ["not-an-id"]], params, tokens)
    with pytest.raises(ValueError, match="exactly once"):
        assignment_from_groups(d, [*groups.values(), [d.element_ids[0]]], params, tokens)


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
        Dsm(ids, w, kind=kind)
    else:
        with pytest.raises(Exception) as raised:
            Dsm(ids, w, kind=kind)
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
    guarded = Dsm(d.element_ids, d.weights, kind=d.kind)
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
    assert cluster(guarded, params, counts) == cluster(d, params, counts)
    fixed = assignment_from_groups(guarded, REFERENCE_GROUPS, params, counts)
    assert fixed == assignment_from_groups(d, REFERENCE_GROUPS, params, counts)
    assert clustering_cost(guarded, fixed.cluster_of, params, counts) == fixed.j_total

    small = Dsm(d.element_ids[:6], d.weights[:6, :6])
    small_counts = {e: counts[e] for e in small.element_ids}
    small_params = ClusterParams(size_mode=size_mode, max_cluster_tokens=cap)
    assert brute_force_cluster(_without_weights(small), small_params, small_counts) == brute_force_cluster(
        small, small_params, small_counts
    )
