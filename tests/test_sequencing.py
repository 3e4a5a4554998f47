import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmplan.dsm import Dsm, above_diagonal_marks, permute
from dsmplan.sequencing import reachability, sequence


# ---------------------------------------------------------------------------
# oracles, written independently of the library internals
# ---------------------------------------------------------------------------


def closure_by_dfs(d: Dsm) -> np.ndarray:
    """R[i][j] true iff i == j or i transitively depends on j."""
    n = d.n
    providers_of = [[j for j in range(n) if d.weights[i, j]] for i in range(n)]
    out = np.zeros((n, n), dtype=bool)
    for i in range(n):
        seen = {i}
        stack = [i]
        while stack:
            v = stack.pop()
            for p in providers_of[v]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        for j in seen:
            out[i, j] = True
    return out


def mutual_groups(reach: np.ndarray) -> list[frozenset[int]]:
    """Equivalence classes of mutual reachability."""
    n = reach.shape[0]
    groups = {}
    for i in range(n):
        key = frozenset(j for j in range(n) if reach[i, j] and reach[j, i])
        groups[key] = True
    return list(groups)


def dag_levels(d: Dsm) -> dict[str, int]:
    """Longest-path level per element; valid only for acyclic matrices."""
    n = d.n
    memo: dict[int, int] = {}

    def lvl(i: int) -> int:
        if i not in memo:
            memo[i] = 1 + max((lvl(j) for j in range(n) if d.weights[i, j]), default=0)
        return memo[i]

    return {d.element_ids[i]: lvl(i) for i in range(n)}


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def random_digraph(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    ids = tuple(string.ascii_uppercase[:n])
    w = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j and draw(st.booleans()):
                w[i, j] = draw(st.integers(min_value=1, max_value=9))
    return Dsm(ids, w)


@st.composite
def random_dag(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    ids = tuple(string.ascii_uppercase[:n])
    hidden = draw(st.permutations(list(range(n))))
    pos = {v: k for k, v in enumerate(hidden)}
    w = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if pos[j] < pos[i] and draw(st.booleans()):
                w[i, j] = draw(st.integers(min_value=1, max_value=9))
    return Dsm(ids, w)


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------


@given(random_digraph())
def test_reachability_matches_dfs_oracle(d):
    assert np.array_equal(reachability(d), closure_by_dfs(d))


@given(random_digraph())
def test_reachability_is_transitive_and_reflexive(d):
    r = reachability(d)
    assert r.diagonal().all()
    squared = (r.astype(int) @ r.astype(int)) > 0
    assert np.array_equal(squared, r)


def test_reachability_chain():
    # c -> b -> a readable straight off a 3-chain
    d = Dsm(("a", "b", "c"), np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    r = reachability(d)
    assert r[0].tolist() == [True, True, True]  # a depends on both
    assert r[2].tolist() == [False, False, True]


# ---------------------------------------------------------------------------
# level partitioning
# ---------------------------------------------------------------------------


def test_spacecraft_levels_match_frozen(spacecraft_dsm, expected):
    seq = sequence(spacecraft_dsm)
    want = expected["sequence"]
    assert [list(level) for level in seq.levels] == want["levels"]
    assert list(seq.sequenced_ids()) == want["order"]
    assert [list(group) for group in seq.cycles] == want["cycles"]


def test_spacecraft_feedback_marks_drop(spacecraft_dsm, expected):
    seq = sequence(spacecraft_dsm)
    before = above_diagonal_marks(spacecraft_dsm)
    after = above_diagonal_marks(permute(spacecraft_dsm, seq.order))
    assert before == expected["above_diagonal_marks"]["manifest_order"]
    assert after == expected["above_diagonal_marks"]["sequenced_order"]


def test_empty_matrix():
    seq = sequence(Dsm((), np.zeros((0, 0), dtype=int)))
    assert seq.levels == ()
    assert seq.cycles == ()
    assert seq.sequenced_ids() == ()


def test_single_element():
    seq = sequence(Dsm(("a",), np.zeros((1, 1), dtype=int)))
    assert seq.levels == (("a",),)
    assert seq.cycles == ()


def test_coupled_pair_stays_together():
    d = Dsm(("a", "b"), np.array([[0, 3], [3, 0]]))
    seq = sequence(d)
    assert seq.levels == (("a", "b"),)
    assert seq.cycles == (("a", "b"),)


@given(random_dag())
@settings(max_examples=60)
def test_dag_levels_match_longest_path_oracle(d):
    seq = sequence(d)
    assert seq.cycles == ()
    got = {e: k for k, level in enumerate(seq.levels, start=1) for e in level}
    assert got == dag_levels(d)


@given(random_digraph())
@settings(max_examples=60)
def test_levels_partition_all_elements(d):
    seq = sequence(d)
    flat = [e for level in seq.levels for e in level]
    assert sorted(flat) == sorted(d.element_ids)
    assert tuple(flat) == seq.sequenced_ids()


@given(random_digraph())
@settings(max_examples=60)
def test_cross_component_providers_come_first(d):
    seq = sequence(d)
    reach = closure_by_dfs(d)
    pos = {e: k for k, e in enumerate(seq.sequenced_ids())}
    for i in range(d.n):
        for j in range(d.n):
            if d.weights[i, j] and not (reach[i, j] and reach[j, i]):
                assert pos[d.element_ids[j]] < pos[d.element_ids[i]]


@given(random_digraph())
@settings(max_examples=60)
def test_cycles_match_mutual_reachability_classes(d):
    seq = sequence(d)
    reach = closure_by_dfs(d)
    want = {
        frozenset(d.element_ids[v] for v in group)
        for group in mutual_groups(reach)
        if len(group) >= 2
    }
    assert {frozenset(group) for group in seq.cycles} == want
    # coupled groups are contiguous in the flattened order
    pos = {e: k for k, e in enumerate(seq.sequenced_ids())}
    for group in seq.cycles:
        slots = sorted(pos[e] for e in group)
        assert slots == list(range(slots[0], slots[0] + len(slots)))


@given(random_digraph())
@settings(max_examples=30)
def test_sequencing_is_deterministic(d):
    assert sequence(d) == sequence(d)
