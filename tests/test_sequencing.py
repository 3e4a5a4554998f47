import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmplan.dsm import Dsm, Permutation, above_diagonal_marks, permute
from dsmplan.sequencing import SequencingResult, reachability, sequence
from oracles import dense


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


def bitsets(reach: np.ndarray) -> tuple[int, ...]:
    """A boolean closure matrix in :func:`reachability`'s form: bit j of entry i is R[i][j]."""
    return tuple(sum(1 << j for j in np.flatnonzero(row).tolist()) for row in reach)


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


def kahn_sequence(d: Dsm) -> SequencingResult:
    """Sequencing by set-based Kahn leveling over the mutual-reachability
    classes: the leveling the library used before it leveled in Tarjan order."""
    n = d.n
    components = [sorted(group) for group in mutual_groups(closure_by_dfs(d))]
    comp_of = {v: c for c, members in enumerate(components) for v in members}
    preds: list[set[int]] = [set() for _ in components]
    succs: list[set[int]] = [set() for _ in components]
    for i in range(n):
        for j in range(n):
            if d.weights[i, j] and comp_of[i] != comp_of[j]:
                preds[comp_of[i]].add(comp_of[j])
                succs[comp_of[j]].add(comp_of[i])
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

    levels, flat, cycles = [], [], []
    for lvl in sorted(set(level)):
        here = sorted((c for c in range(len(components)) if level[c] == lvl), key=lambda c: components[c][0])
        indices = [v for c in here for v in components[c]]
        cycles += [tuple(d.element_ids[v] for v in components[c]) for c in here if len(components[c]) >= 2]
        levels.append(tuple(d.element_ids[v] for v in indices))
        flat += indices
    return SequencingResult(d.element_ids, tuple(levels), Permutation(tuple(flat)), tuple(cycles))


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
    return dense(ids, w)


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
    return dense(ids, w)


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------


@given(random_digraph())
def test_reachability_matches_dfs_oracle(d):
    assert reachability(d) == bitsets(closure_by_dfs(d))


@given(random_digraph())
def test_reachability_is_transitive_and_reflexive(d):
    r = reachability(d)
    assert all(r[i] >> i & 1 for i in range(d.n))
    # R·R == R: what i reaches through anything it reaches is already in R[i]
    squared = [0] * d.n
    for i in range(d.n):
        for j in range(d.n):
            if r[i] >> j & 1:
                squared[i] |= r[j]
    assert tuple(squared) == r


def test_reachability_chain():
    # c -> b -> a readable straight off a 3-chain
    d = dense(("a", "b", "c"), np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    r = reachability(d)
    assert r[0] == 0b111  # a depends on both
    assert r[2] == 0b100


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
    seq = sequence(dense((), np.zeros((0, 0), dtype=int)))
    assert seq.levels == ()
    assert seq.cycles == ()
    assert seq.sequenced_ids() == ()


def test_single_element():
    seq = sequence(dense(("a",), np.zeros((1, 1), dtype=int)))
    assert seq.levels == (("a",),)
    assert seq.cycles == ()


def test_coupled_pair_stays_together():
    d = dense(("a", "b"), np.array([[0, 3], [3, 0]]))
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


@given(random_digraph(max_n=10))
@settings(max_examples=300)
def test_sequence_matches_kahn_oracle(d):
    assert sequence(d) == kahn_sequence(d)


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
