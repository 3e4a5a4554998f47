import hashlib
import json
import math
import random
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmplan import clustering
from dsmplan.clustering import (
    ClusterParams,
    brute_force_cluster,
    cluster,
    clustering_cost,
    _canonical,
    _cap_ok,
    _finalize,
    _growth_strings,
    _mean_tokens,
    _size_sq,
    _token_vector,
)
from dsmplan.dsm import Dsm
from dsmplan.errors import EmptyMatrix, IncompleteAssignment, TooLarge

# the reference partition shipped with the spacecraft corpus:
# two coupled blocks plus three standalone elements
REFERENCE_ASSIGNMENT = {
    "A": 0,
    "B": 1,
    "C": 2,
    "F": 2,
    "G": 2,
    "H": 2,
    "D": 3,
    "E": 3,
    "I": 3,
    "J": 3,
    "L": 3,
    "K": 3,
    "M": 4,
}


def cost_oracle(d: Dsm, assignment, alpha=2.0, beta=1.0) -> float:
    """Straight-from-the-definition cost, no shared code with the library."""
    sizes: dict[int, int] = {}
    for e in d.element_ids:
        sizes[assignment[e]] = sizes.get(assignment[e], 0) + 1
    size_sq = sum(v * v for v in sizes.values())
    outside = 0
    for i, ei in enumerate(d.element_ids):
        for j, ej in enumerate(d.element_ids):
            if assignment[ei] != assignment[ej]:
                outside += int(d.weights[i, j])
    return alpha * size_sq + beta * outside


@st.composite
def small_dsm(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    ids = tuple(string.ascii_lowercase[:n])
    w = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j:
                w[i, j] = draw(st.integers(min_value=0, max_value=20))
    return Dsm(ids, w)


# ---------------------------------------------------------------------------
# cost function
# ---------------------------------------------------------------------------


def test_reference_partition_cost_matches_frozen(spacecraft_dsm, expected):
    want = expected["reference_clusters"]
    params = ClusterParams()
    j = clustering_cost(spacecraft_dsm, REFERENCE_ASSIGNMENT, params)
    assert j == want["j_total"]
    assert cost_oracle(spacecraft_dsm, REFERENCE_ASSIGNMENT) == want["j_total"]
    # and the recorded split of that figure
    assert want["j_total"] == params.alpha * want["j_size_term"] + params.beta * want["j_interaction_term"]


def test_reference_partition_groups_match_frozen(expected):
    want = {frozenset(g) for g in expected["reference_clusters"]["clusters"]}
    want |= {frozenset({s}) for s in expected["reference_clusters"]["singletons"]}
    by_label: dict[int, set[str]] = {}
    for e, c in REFERENCE_ASSIGNMENT.items():
        by_label.setdefault(c, set()).add(e)
    assert {frozenset(g) for g in by_label.values()} == want


@given(small_dsm(), st.data())
def test_cost_matches_oracle_on_random_assignments(d, data):
    assignment = {e: data.draw(st.integers(min_value=0, max_value=d.n - 1)) for e in d.element_ids}
    params = ClusterParams()
    assert clustering_cost(d, assignment, params) == cost_oracle(d, assignment)


def test_cost_requires_complete_assignment(spacecraft_dsm):
    with pytest.raises(IncompleteAssignment) as err:
        clustering_cost(spacecraft_dsm, {"A": 0}, ClusterParams())
    assert "B" in str(err.value)


def test_token_mode_agrees_with_count_mode_on_uniform_corpus():
    w = np.array([[0, 5, 0], [0, 0, 5], [5, 0, 0]], dtype=np.int64)
    d = Dsm(("a", "b", "c"), w)
    assignment = {"a": 0, "b": 0, "c": 1}
    uniform = {"a": 7, "b": 7, "c": 7}
    by_count = clustering_cost(d, assignment, ClusterParams(size_mode="count"))
    by_tokens = clustering_cost(d, assignment, ClusterParams(size_mode="tokens"), uniform)
    assert by_count == pytest.approx(by_tokens)


def test_token_mode_is_scale_invariant():
    w = np.array([[0, 5, 0], [0, 0, 5], [5, 0, 0]], dtype=np.int64)
    d = Dsm(("a", "b", "c"), w)
    assignment = {"a": 0, "b": 0, "c": 1}
    params = ClusterParams(size_mode="tokens")
    base = {"a": 10, "b": 30, "c": 20}
    scaled = {k: v * 17 for k, v in base.items()}
    assert clustering_cost(d, assignment, params, base) == pytest.approx(
        clustering_cost(d, assignment, params, scaled)
    )


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_beats_reference_and_baselines(spacecraft_dsm, expected):
    params = ClusterParams()
    result = cluster(spacecraft_dsm, params)
    singletons = clustering_cost(spacecraft_dsm, {e: k for k, e in enumerate(spacecraft_dsm.element_ids)}, params)
    one_big = clustering_cost(spacecraft_dsm, {e: 0 for e in spacecraft_dsm.element_ids}, params)
    assert result.j_total <= expected["reference_clusters"]["j_total"]
    assert result.j_total <= min(singletons, one_big)
    # returned terms recombine into the total
    assert result.j_total == pytest.approx(
        params.alpha * result.j_size_term + params.beta * result.j_interaction_term
    )
    assert sorted(result.cluster_of) == sorted(spacecraft_dsm.element_ids)
    assert set(result.cluster_of.values()) == set(range(result.num_clusters))


def test_search_is_deterministic(spacecraft_dsm):
    a = cluster(spacecraft_dsm, ClusterParams(restarts=8, iterations_per_restart=500))
    b = cluster(spacecraft_dsm, ClusterParams(restarts=8, iterations_per_restart=500))
    assert a == b


def test_zero_matrix_prefers_singletons():
    d = Dsm(tuple("abcde"), np.zeros((5, 5), dtype=int))
    result = cluster(d, ClusterParams(restarts=4, iterations_per_restart=200))
    assert result.num_clusters == 5
    assert result.j_total == 2.0 * 5


def test_two_block_structure_is_recovered():
    # two 4-element blocks with heavy intra traffic and nothing across
    n = 8
    w = np.zeros((n, n), dtype=np.int64)
    for block in (range(0, 4), range(4, 8)):
        for i in block:
            for j in block:
                if i != j:
                    w[i, j] = 50
    d = Dsm(tuple(string.ascii_lowercase[:n]), w)
    result = cluster(d, ClusterParams(restarts=8, iterations_per_restart=1000))
    got = {frozenset(g) for g in result.clusters()}
    assert got == {frozenset("abcd"), frozenset("efgh")}
    assert result.j_total == brute_force_cluster(d).j_total


def test_canonical_labels_follow_first_appearance(spacecraft_dsm):
    result = cluster(spacecraft_dsm, ClusterParams(restarts=4, iterations_per_restart=300))
    seen: list[int] = []
    for e in spacecraft_dsm.element_ids:
        label = result.cluster_of[e]
        if label not in seen:
            assert label == len(seen)  # labels appear in increasing order
            seen.append(label)


def test_single_element():
    d = Dsm(("a",), np.zeros((1, 1), dtype=int))
    result = cluster(d)
    assert result.cluster_of == {"a": 0}
    assert result.j_total == 2.0


def test_empty_matrix_rejected():
    with pytest.raises(EmptyMatrix):
        cluster(Dsm((), np.zeros((0, 0), dtype=int)))


@given(small_dsm())
@settings(max_examples=25, deadline=None)
def test_search_bracketed_by_brute_force_and_baselines(d):
    params = ClusterParams(restarts=6, iterations_per_restart=400)
    result = cluster(d, params)
    exact = brute_force_cluster(d, params)
    singletons = clustering_cost(d, {e: k for k, e in enumerate(d.element_ids)}, params)
    one_big = clustering_cost(d, {e: 0 for e in d.element_ids}, params)
    assert exact.j_total <= result.j_total + 1e-9
    assert result.j_total <= min(singletons, one_big) + 1e-9
    # reported costs are real: recompute from the returned assignment
    assert result.j_total == pytest.approx(clustering_cost(d, result.cluster_of, params))


# ---------------------------------------------------------------------------
# draw order: the annealer must replay the reference chain below exactly
# ---------------------------------------------------------------------------


def reference_chain(sym, params, tok, chain_index):
    """The annealer as first written: an O(n) scan builds each proposal's
    target list, and a dense (n, n) matrix holds each element's weight into
    each cluster.  Same RNG draws, same target rule, same acceptance test."""
    n = sym.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([params.seed, chain_index]))
    cap = params.max_cluster_tokens
    iters = params.iterations_per_restart
    if cap is None:
        labels = rng.integers(0, n, size=n).astype(np.int64)
    else:
        labels = np.arange(n, dtype=np.int64)
    count = np.bincount(labels, minlength=n).astype(np.int64)
    toksum = np.zeros(n, dtype=np.int64)
    if tok is not None:
        np.add.at(toksum, labels, tok)
    mean_tok = float(np.mean(tok)) if tok is not None and n else 1.0
    if mean_tok == 0.0:
        mean_tok = 1.0
    same = labels[:, None] == labels[None, :]
    interaction = int(sym[~same].sum()) // 2
    size_sq = _size_sq(labels, params, tok)
    cluster_weight = np.zeros((n, n), dtype=np.int64)
    for pos in range(n):
        cluster_weight[:, labels[pos]] += sym[:, pos]
    current_j = params.alpha * size_sq + params.beta * interaction
    best_labels = labels.copy()
    if iters == 0 or n < 2:
        return best_labels
    best_j = current_j
    temperature = max(1.0, 0.05 * current_j)
    cool = clustering._COOL_RATIO ** (1.0 / iters)
    picks = rng.integers(0, n, size=iters)
    target_u = rng.random(iters)
    accept_u = rng.random(iters)
    for it in range(iters):
        temperature *= cool
        e = int(picks[it])
        source = int(labels[e])
        targets = [c for c in range(n) if count[c] > 0 and c != source]
        if count[source] > 1:
            targets.append(next(c for c in range(n) if count[c] == 0))
        if not targets:
            continue
        target = targets[int(target_u[it] * len(targets))]
        if cap is not None and toksum[target] + tok[e] > cap:
            continue
        d_interaction = int(cluster_weight[e, source] - cluster_weight[e, target])
        if params.size_mode == "count":
            d_size = 2 * (int(count[target]) - int(count[source]) + 1)
        else:
            te = tok[e] / mean_tok
            d_size = 2.0 * te * (toksum[target] / mean_tok - toksum[source] / mean_tok + te)
        delta = params.alpha * d_size + params.beta * d_interaction
        if delta > 0 and accept_u[it] >= math.exp(-delta / temperature):
            continue
        labels[e] = target
        count[source] -= 1
        count[target] += 1
        if tok is not None:
            toksum[source] -= tok[e]
            toksum[target] += tok[e]
        cluster_weight[:, source] -= sym[:, e]
        cluster_weight[:, target] += sym[:, e]
        interaction += d_interaction
        size_sq += d_size
        current_j = params.alpha * size_sq + params.beta * interaction
        if current_j < best_j:
            best_j = current_j
            best_labels = labels.copy()
    return best_labels


def reference_cluster(d, params, token_counts):
    tok = _token_vector(d, token_counts, params)
    if d.n == 1:
        return _finalize(d, np.zeros(1, dtype=np.int64), params, tok)
    sym = d.weights + d.weights.T
    candidates = [reference_chain(sym, params, tok, chain) for chain in range(params.restarts)]
    candidates.append(np.arange(d.n, dtype=np.int64))
    if _cap_ok(np.zeros(d.n, dtype=np.int64), tok, params.max_cluster_tokens):
        candidates.append(np.zeros(d.n, dtype=np.int64))
    scored = [_finalize(d, labels, params, tok) for labels in candidates]
    return min(scored, key=lambda a: a.j_total)


@st.composite
def anneal_case(draw):
    # n of 2 or 3 half the time: with few labels, a move's source often sits
    # at either end of the active ones
    n = draw(st.integers(min_value=2, max_value=3) | st.integers(min_value=1, max_value=40))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    w = np.where(rng.random((n, n)) < density, rng.integers(1, 60, size=(n, n)), 0)
    np.fill_diagonal(w, 0)
    ids = tuple(f"e{k}" for k in range(n))
    tokens = rng.integers(0, 400, size=n)
    cap = None
    if draw(st.booleans()):
        cap = max(1, int(tokens.max())) * draw(st.integers(min_value=1, max_value=4))
    params = ClusterParams(
        size_mode=draw(st.sampled_from(["count", "tokens"])),
        max_cluster_tokens=cap,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        restarts=draw(st.integers(min_value=1, max_value=3)),
        iterations_per_restart=draw(st.sampled_from([0, 1, 50, 500])),
    )
    return Dsm(ids, w.astype(np.int64)), params, dict(zip(ids, tokens.tolist()))


@given(anneal_case())
@settings(max_examples=250, deadline=None)
def test_search_replays_reference_chain(case):
    d, params, counts = case
    assert cluster(d, params, token_counts=counts) == reference_cluster(d, params, counts)


def pin_dsm(n: int = 300, seed: str = "cluster-pin") -> tuple[Dsm, dict[str, int]]:
    """A numerical DSM shaped like the benchmark's anneal-300 manifests:
    element k depends on up to 4 of the 40 before it, every 20th one also on
    one up to 3 ahead, which depends back; a mark weighs its provider's tokens."""
    rng = random.Random(seed)
    tokens = [min(1500, max(10, round(rng.lognormvariate(math.log(120), 0.5)))) for _ in range(n)]
    w = np.zeros((n, n), dtype=np.int64)
    for k in range(n):
        first = max(0, k - 40)
        for j in rng.sample(range(first, k), min(k - first, rng.randint(0, 4))):
            w[k, j] = tokens[j]
        if k % 20 == 7 and k + 3 < n:
            ahead = k + rng.randint(1, 3)
            w[k, ahead] = tokens[ahead]
            w[ahead, k] = tokens[k]
    ids = tuple(f"e{k:03d}" for k in range(n))
    return Dsm(ids, w), dict(zip(ids, tokens))


# the default 32 x 2000 search on pin_dsm(), whose chains open and empty
# clusters thousands of times; digests of cluster_of and the three J numbers
PINNED_SEARCHES = {
    "capped count": (
        ClusterParams(max_cluster_tokens=2000),  # the plan path: capped, sized by count
        "ca48affe90117a1290fc92dc171c9d6c6a3c76effb4ab2fe0c0525e822702e26",
    ),
    "uncapped count": (
        ClusterParams(),
        "ab0b7dc9befcf63d15090a5e03639b15160b6f238e3a280a533b5db780c21d3f",
    ),
    "tokens": (
        ClusterParams(size_mode="tokens"),
        "365147bc1247e7a36bbc649df5e307e7f7d0c51035358d84816864599daad734",
    ),
}


@pytest.mark.parametrize("name", PINNED_SEARCHES)
def test_default_search_at_300_is_pinned(name):
    params, digest = PINNED_SEARCHES[name]
    d, counts = pin_dsm()
    got = cluster(d, params, token_counts=counts)
    outputs = [got.cluster_of, got.j_total, got.j_size_term, got.j_interaction_term]
    assert hashlib.sha256(json.dumps(outputs).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "size_mode, skew, raises",
    [
        ("count", lambda j: j + 0.5, True),
        ("tokens", lambda j: j * (1 + 1e-6), True),
        ("tokens", lambda j: j * (1 + 1e-12), False),  # float accumulation slack
    ],
)
def test_bookkeeping_drift_raises(monkeypatch, spacecraft, spacecraft_dsm, size_mode, skew, raises):
    real_chain = clustering._anneal_chain

    def skewed_chain(*args):
        labels, tracked_j = real_chain(*args)
        return labels, skew(tracked_j)

    monkeypatch.setattr(clustering, "_anneal_chain", skewed_chain)
    params = ClusterParams(size_mode=size_mode, restarts=2, iterations_per_restart=200)
    counts = spacecraft.token_counts()
    if raises:
        with pytest.raises(RuntimeError, match="drifted"):
            cluster(spacecraft_dsm, params, token_counts=counts)
    else:
        monkeypatch.undo()
        want = cluster(spacecraft_dsm, params, token_counts=counts)
        monkeypatch.setattr(clustering, "_anneal_chain", skewed_chain)
        assert cluster(spacecraft_dsm, params, token_counts=counts) == want


def test_zero_token_corpus_is_sized_by_count(monkeypatch, spacecraft_dsm):
    zeros = {e: 0 for e in spacecraft_dsm.element_ids}
    by_count = ClusterParams(restarts=4, iterations_per_restart=500)
    by_tokens = ClusterParams(size_mode="tokens", restarts=4, iterations_per_restart=500)
    want = cluster(spacecraft_dsm, by_count)
    assert cluster(spacecraft_dsm, by_tokens, token_counts=zeros) == want
    assert clustering_cost(spacecraft_dsm, want.cluster_of, by_tokens, zeros) == want.j_total
    # the drift check runs on this corpus too
    real_chain = clustering._anneal_chain
    monkeypatch.setattr(clustering, "_anneal_chain", lambda *args: (real_chain(*args)[0], -1.0))
    with pytest.raises(RuntimeError, match="drifted"):
        cluster(spacecraft_dsm, by_tokens, token_counts=zeros)


# ---------------------------------------------------------------------------
# token cap
# ---------------------------------------------------------------------------


def test_cap_forces_singletons():
    w = np.full((3, 3), 100, dtype=np.int64)
    np.fill_diagonal(w, 0)
    d = Dsm(("a", "b", "c"), w)
    counts = {"a": 60, "b": 60, "c": 60}
    result = cluster(d, ClusterParams(max_cluster_tokens=100), token_counts=counts)
    assert result.num_clusters == 3


def test_cap_respected_by_search(spacecraft, spacecraft_dsm):
    counts = spacecraft.token_counts()
    result = cluster(spacecraft_dsm, ClusterParams(max_cluster_tokens=6000), token_counts=counts)
    for group in result.clusters():
        assert sum(counts[e] for e in group) <= 6000


def test_cap_smaller_than_one_element_rejected():
    d = Dsm(("a", "b"), np.zeros((2, 2), dtype=int))
    with pytest.raises(ValueError):
        cluster(d, ClusterParams(max_cluster_tokens=5), token_counts={"a": 10, "b": 1})


def test_cap_needs_token_counts():
    d = Dsm(("a", "b"), np.zeros((2, 2), dtype=int))
    with pytest.raises(ValueError):
        cluster(d, ClusterParams(max_cluster_tokens=5))


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------


def test_growth_strings_enumerate_all_partitions():
    assert list(_growth_strings(3)) == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (0, 1, 2),
    ]
    bell = [1, 2, 5, 15, 52, 203]  # partition counts for n = 1..6
    for n, count in enumerate(bell, start=1):
        assert sum(1 for _ in _growth_strings(n)) == count


def test_brute_force_guard():
    d = Dsm(tuple(string.ascii_lowercase[:11]), np.zeros((11, 11), dtype=int))
    with pytest.raises(TooLarge):
        brute_force_cluster(d)


def test_brute_force_honors_cap():
    w = np.full((3, 3), 100, dtype=np.int64)
    np.fill_diagonal(w, 0)
    d = Dsm(("a", "b", "c"), w)
    counts = {"a": 60, "b": 60, "c": 60}
    result = brute_force_cluster(d, ClusterParams(max_cluster_tokens=100), token_counts=counts)
    assert result.num_clusters == 3


def test_params_validation():
    with pytest.raises(ValueError):
        ClusterParams(alpha=0)
    with pytest.raises(ValueError):
        ClusterParams(size_mode="volume")
    with pytest.raises(ValueError):
        ClusterParams(restarts=0)
    with pytest.raises(ValueError):
        ClusterParams(max_cluster_tokens=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        ClusterParams(seed=-1)
    # bool is an int subclass, but no count or seed
    for field, value in [
        ("restarts", 2.5),
        ("restarts", True),
        ("iterations_per_restart", 10.5),
        ("iterations_per_restart", True),
        ("iterations_per_restart", "10"),
        ("seed", 1.5),
        ("seed", False),
        ("seed", None),
    ]:
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ClusterParams(**{field: value})


@pytest.mark.parametrize("field", ["alpha", "beta"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_reject_non_finite_weights(field, value):
    with pytest.raises(ValueError, match="finite"):
        ClusterParams(**{field: value})


@given(st.lists(st.integers(0, 5), min_size=1, max_size=20))
def test_canonical_relabels_by_first_appearance(labels):
    first_seen = list(dict.fromkeys(labels))
    assert _canonical(np.array(labels)) == ([first_seen.index(x) for x in labels], len(first_seen))


@given(st.lists(st.integers(min_value=0, max_value=(2**53 - 1) // 64), min_size=1, max_size=64))
def test_mean_tokens_is_numpys_mean(tok):
    # the token sum stays below 2**53, so numpy's float64 running sum is exact
    assert sum(tok) < 2**53
    want = float(np.mean(np.array(tok, dtype=np.int64)))
    assert _mean_tokens(ClusterParams(size_mode="tokens"), tok) == want
