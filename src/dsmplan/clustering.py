"""Clustering a DSM to minimize coordination cost.

The objective balances two pressures: big clusters are penalized through the
sum of squared cluster sizes, scattered interactions through the total weight
sitting outside all clusters::

    J = alpha * sum_i size(C_i)^2  +  beta * sum(weights outside clusters)

``size`` is the element count of a cluster, or — in token-sum mode — the
cluster's summed token counts normalized by the mean element token count so
the two modes agree on uniform corpora.

The search is restarted simulated annealing over single-element moves, fully
deterministic for a fixed seed: every restart chain draws from its own
``SeedSequence(seed, chain_index)`` stream, the winner is the lowest cost with
ties to the lowest chain index, and the two trivial assignments (all
singletons, one big cluster) are always scored as explicit candidates so the
result can never be worse than either.

Determinism contract.  A chain draws, in this order: the initial labels
(uncapped runs only; capped runs start from singletons), then all element
picks, all target draws ``u`` and all acceptance draws at once.  A proposal
moves its picked element ``e`` out of its ``source`` cluster; its targets are
the active labels in ascending order without ``source``, followed by the
lowest free label when ``source`` has other members, and it takes target
``int(u * len(targets))``.  Faster bookkeeping must keep this rule and draw
order, so a seed gives the same plans across versions.

Cost.  A proposal costs O(deg(e) + log n): the target is found by bisection
in sorted lists of active and free labels, and the interaction delta is a scan
of ``e``'s neighbours.  Only a move that empties a cluster or opens one edits
those lists, in O(n).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .dsm import Dsm
from .errors import EmptyMatrix, IncompleteAssignment, TooLarge

SIZE_MODE_COUNT = "count"
SIZE_MODE_TOKENS = "tokens"

_BRUTE_FORCE_LIMIT = 10
_COOL_RATIO = 1e-3  # final temperature as a fraction of the initial one


@dataclass(frozen=True)
class ClusterParams:
    alpha: float = 2.0
    beta: float = 1.0
    size_mode: str = SIZE_MODE_COUNT
    max_cluster_tokens: int | None = None
    seed: int = 42
    restarts: int = 32
    iterations_per_restart: int = 2000

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.size_mode not in (SIZE_MODE_COUNT, SIZE_MODE_TOKENS):
            raise ValueError(f"unknown size mode {self.size_mode!r}")
        if self.max_cluster_tokens is not None and self.max_cluster_tokens <= 0:
            raise ValueError("max_cluster_tokens must be positive when set")
        if self.restarts < 1 or self.iterations_per_restart < 0:
            raise ValueError("need at least one restart and non-negative iterations")


@dataclass(frozen=True)
class ClusterAssignment:
    """A complete partition of the elements into clusters 0..num_clusters-1."""

    cluster_of: dict[str, int]
    num_clusters: int
    j_total: float
    j_size_term: float  # raw sum of squared sizes, unweighted by alpha
    j_interaction_term: float  # raw outside-cluster weight, unweighted by beta

    def clusters(self) -> list[list[str]]:
        groups: list[list[str]] = [[] for _ in range(self.num_clusters)]
        for element_id, index in self.cluster_of.items():
            groups[index].append(element_id)
        return groups


def _token_vector(
    dsm: Dsm, token_counts: Mapping[str, int] | None, params: ClusterParams
) -> np.ndarray | None:
    needs_tokens = params.size_mode == SIZE_MODE_TOKENS or params.max_cluster_tokens is not None
    if token_counts is None:
        if needs_tokens:
            raise ValueError("token counts required for token-sum sizing or a token cap")
        return None
    missing = [e for e in dsm.element_ids if e not in token_counts]
    if missing:
        raise IncompleteAssignment(tuple(missing))
    return np.array([token_counts[e] for e in dsm.element_ids], dtype=np.int64)


def _mean_tokens(params: ClusterParams, tok: np.ndarray | None) -> float:
    """The token-sum size unit, or 0.0 when clusters are sized by element count.

    An all-zero token corpus is sized by count too: with every element the
    same size, the two modes agree, as they do on any uniform corpus.
    """
    if params.size_mode == SIZE_MODE_COUNT or tok is None or not len(tok):
        return 0.0
    return float(np.mean(tok))


def _size_sq(labels: np.ndarray, params: ClusterParams, tok: np.ndarray | None) -> float:
    mean = _mean_tokens(params, tok)
    counts: dict[int, float] = {}
    for pos, label in enumerate(labels.tolist()):
        if mean == 0.0:
            counts[label] = counts.get(label, 0) + 1
        else:
            counts[label] = counts.get(label, 0) + int(tok[pos])  # type: ignore[index]
    if mean == 0.0:
        return float(sum(c * c for c in counts.values()))
    return float(sum((c / mean) ** 2 for c in counts.values()))


def _interaction(dsm: Dsm, labels: np.ndarray) -> int:
    """Total weight of the marks whose two ends sit in different clusters."""
    rows, cols, vals = dsm.marks
    return int(vals[labels[rows] != labels[cols]].sum())


def clustering_cost(
    dsm: Dsm,
    assignment: Mapping[str, int],
    params: ClusterParams,
    token_counts: Mapping[str, int] | None = None,
) -> float:
    """Direct-summation cost of a complete assignment (no incremental state).

    This is the ground-truth scorer: the annealer's bookkeeping is always
    re-checked against this direct summation before a result is returned,
    and a drifted chain raises ``RuntimeError``.
    """
    missing = tuple(e for e in dsm.element_ids if e not in assignment)
    if missing:
        raise IncompleteAssignment(missing)
    labels = np.array([assignment[e] for e in dsm.element_ids], dtype=np.int64)
    tok = _token_vector(dsm, token_counts, params) if params.size_mode == SIZE_MODE_TOKENS else None
    size_sq = _size_sq(labels, params, tok)
    interaction = _interaction(dsm, labels)
    return params.alpha * size_sq + params.beta * interaction


def _canonical(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel clusters by first appearance; returns (labels, cluster count)."""
    mapping: dict[int, int] = {}
    out = np.empty_like(labels)
    for pos, label in enumerate(labels.tolist()):
        if label not in mapping:
            mapping[label] = len(mapping)
        out[pos] = mapping[label]
    return out, len(mapping)


def _cap_ok(labels: np.ndarray, tok: np.ndarray | None, cap: int | None) -> bool:
    if cap is None:
        return True
    sums: dict[int, int] = {}
    for pos, label in enumerate(labels.tolist()):
        sums[label] = sums.get(label, 0) + int(tok[pos])  # type: ignore[index]
        if sums[label] > cap:
            return False
    return True


def _neighbours(dsm: Dsm) -> list[list[tuple[int, int]]]:
    """Per element ``e``, the ``(j, w)`` pairs with ``w = weights[e, j] + weights[j, e] > 0``,
    in ascending ``j``."""
    rows, cols, vals = dsm.marks
    sums: list[dict[int, int]] = [{} for _ in range(dsm.n)]
    for i, j, w in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        sums[i][j] = sums[i].get(j, 0) + w
        sums[j][i] = sums[j].get(i, 0) + w
    return [sorted(row.items()) for row in sums]


def _anneal_chain(
    nbrs: list[list[tuple[int, int]]],
    total: int,
    params: ClusterParams,
    tok: np.ndarray | None,
    chain_index: int,
) -> tuple[np.ndarray, float]:
    """One annealing restart; returns the best label vector seen and its tracked J."""
    n = len(nbrs)
    rng = np.random.default_rng(np.random.SeedSequence([params.seed, chain_index]))
    cap = params.max_cluster_tokens
    iters = params.iterations_per_restart

    if cap is None:
        start = rng.integers(0, n, size=n)
    else:
        start = np.arange(n)  # singletons are always cap-feasible here
    size_sq = _size_sq(start, params, tok)
    labels: list[int] = start.tolist()
    tokens: list[int] = tok.tolist() if tok is not None else [0] * n
    count = [0] * n
    toksum = [0] * n
    for pos, label in enumerate(labels):
        count[label] += 1
        toksum[label] += tokens[pos]
    mean_tok = _mean_tokens(params, tok)  # 0.0: clusters are sized by count

    # exact integer interaction bookkeeping: I0 = total - intra
    intra = 0
    for pos, row in enumerate(nbrs):
        for other, w in row:
            if other < pos and labels[other] == labels[pos]:
                intra += w
    interaction = total - intra

    current_j = params.alpha * size_sq + params.beta * interaction
    best_j = current_j
    best_labels = labels.copy()

    if iters == 0 or n < 2:
        return np.array(best_labels, dtype=np.int64), best_j

    temperature = max(1.0, 0.05 * current_j)
    cool = _COOL_RATIO ** (1.0 / iters)

    picks = rng.integers(0, n, size=iters).tolist()
    target_u = rng.random(iters).tolist()
    accept_u = rng.random(iters).tolist()

    active = sorted(set(labels))
    free = sorted(set(range(n)).difference(active))

    for it in range(iters):
        temperature *= cool
        e = picks[it]
        source = labels[e]
        # targets: active labels ascending without the source, then free[0]
        # when the source keeps other members (so at most n-1 are active)
        others = len(active) - 1
        num_targets = others + (count[source] > 1)
        if not num_targets:
            continue
        k = int(target_u[it] * num_targets)
        if k < others:
            target = active[k + (k >= bisect_left(active, source))]
        else:
            target = free[0]
        if cap is not None and toksum[target] + tokens[e] > cap:
            continue  # infinite penalty: never even propose acceptance

        # the zero diagonal keeps e itself out of its neighbour list
        d_interaction = 0
        for other, w in nbrs[e]:
            label = labels[other]
            if label == source:
                d_interaction += w
            elif label == target:
                d_interaction -= w
        if mean_tok == 0.0:
            d_size = 2 * (count[target] - count[source] + 1)
        else:
            te = tokens[e] / mean_tok
            s_src = toksum[source] / mean_tok
            s_tgt = toksum[target] / mean_tok
            d_size = 2.0 * te * (s_tgt - s_src + te)
        delta = params.alpha * d_size + params.beta * d_interaction

        if delta > 0 and accept_u[it] >= math.exp(-delta / temperature):
            continue

        labels[e] = target
        count[source] -= 1
        count[target] += 1
        toksum[source] -= tokens[e]
        toksum[target] += tokens[e]
        if count[target] == 1:
            del free[0]
            insort(active, target)
        if count[source] == 0:
            del active[bisect_left(active, source)]
            insort(free, source)
        interaction += d_interaction
        size_sq += d_size
        current_j = params.alpha * size_sq + params.beta * interaction
        if current_j < best_j:
            best_j = current_j
            best_labels = labels.copy()

    return np.array(best_labels, dtype=np.int64), best_j


def _finalize(
    dsm: Dsm, labels: np.ndarray, params: ClusterParams, tok: np.ndarray | None
) -> ClusterAssignment:
    canon, num_clusters = _canonical(labels)
    cluster_of = {e: int(canon[k]) for k, e in enumerate(dsm.element_ids)}
    size_sq = _size_sq(canon, params, tok)
    interaction = _interaction(dsm, canon)
    return ClusterAssignment(
        cluster_of=cluster_of,
        num_clusters=num_clusters,
        j_total=params.alpha * size_sq + params.beta * interaction,
        j_size_term=size_sq,
        j_interaction_term=float(interaction),
    )


def _check_tracked(
    tracked_j: float, j_total: float, params: ClusterParams, tok: np.ndarray | None
) -> None:
    """Raise if a chain's incremental J drifted from direct summation."""
    if _mean_tokens(params, tok) == 0.0:
        drifted = tracked_j != j_total  # integer-valued terms: exact
    else:
        drifted = not math.isclose(tracked_j, j_total, rel_tol=1e-9)
    if drifted:
        raise RuntimeError(
            f"annealer bookkeeping drifted: tracked J {tracked_j!r}, recomputed {j_total!r}"
        )


def cluster(
    dsm: Dsm,
    params: ClusterParams | None = None,
    token_counts: Mapping[str, int] | None = None,
) -> ClusterAssignment:
    """Search for a low-cost clustering of ``dsm``.

    Deterministic for fixed (matrix, params, token_counts).  The returned
    cost is never above the all-singletons or one-big-cluster assignment
    (whenever those respect ``max_cluster_tokens``).
    """
    params = params or ClusterParams()
    n = dsm.n
    if n == 0:
        raise EmptyMatrix()
    tok = _token_vector(dsm, token_counts, params)
    cap = params.max_cluster_tokens
    if cap is not None and tok is not None and int(tok.max(initial=0)) > cap:
        worst = dsm.element_ids[int(tok.argmax())]
        raise ValueError(f"element {worst!r} alone exceeds max_cluster_tokens={cap}")
    if n == 1:
        return _finalize(dsm, np.zeros(1, dtype=np.int64), params, tok)

    nbrs = _neighbours(dsm)
    total = int(dsm.marks[2].sum())
    scored: list[ClusterAssignment] = []
    for chain in range(params.restarts):
        labels, tracked_j = _anneal_chain(nbrs, total, params, tok, chain)
        scored.append(_finalize(dsm, labels, params, tok))
        _check_tracked(tracked_j, scored[-1].j_total, params, tok)
    scored.append(_finalize(dsm, np.arange(n, dtype=np.int64), params, tok))  # all singletons
    one_cluster = np.zeros(n, dtype=np.int64)
    if _cap_ok(one_cluster, tok, cap):
        scored.append(_finalize(dsm, one_cluster, params, tok))
    return min(scored, key=lambda a: a.j_total)  # first minimum: ties go to the earlier candidate


def assignment_from_groups(
    dsm: Dsm,
    groups: Iterable[Iterable[str]],
    params: ClusterParams | None = None,
    token_counts: Mapping[str, int] | None = None,
) -> ClusterAssignment:
    """Score an explicitly given partition, e.g. a hand-made reference grouping.

    ``groups`` must cover every element exactly once.  The result goes through
    the same canonicalization and direct-summation scoring as search results,
    so costs are comparable.
    """
    params = params or ClusterParams()
    if dsm.n == 0:
        raise EmptyMatrix()
    flat: dict[str, int] = {}
    for index, group in enumerate(groups):
        for element_id in group:
            if element_id in flat or element_id not in dsm.positions:
                raise ValueError(f"groups must cover each element exactly once; bad id {element_id!r}")
            flat[element_id] = index
    missing = tuple(e for e in dsm.element_ids if e not in flat)
    if missing:
        raise IncompleteAssignment(missing)
    tok = _token_vector(dsm, token_counts, params)
    labels = np.array([flat[e] for e in dsm.element_ids], dtype=np.int64)
    return _finalize(dsm, labels, params, tok)


def _growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All canonical assignment vectors of length n, in lexicographic order."""
    if n == 0:
        return
    vector = [0] * n

    def extend(pos: int, max_label: int) -> Iterator[tuple[int, ...]]:
        if pos == n:
            yield tuple(vector)
            return
        for label in range(max_label + 2):
            vector[pos] = label
            yield from extend(pos + 1, max(max_label, label))

    yield from extend(1, 0)


def brute_force_cluster(
    dsm: Dsm,
    params: ClusterParams | None = None,
    token_counts: Mapping[str, int] | None = None,
) -> ClusterAssignment:
    """Exhaustive global optimum over all set partitions (n <= 10 guard).

    Ties resolve to the lexicographically smallest canonical assignment
    vector, which is the first one the enumeration visits.
    """
    params = params or ClusterParams()
    n = dsm.n
    if n == 0:
        raise EmptyMatrix()
    if n > _BRUTE_FORCE_LIMIT:
        raise TooLarge(n, _BRUTE_FORCE_LIMIT)
    tok = _token_vector(dsm, token_counts, params)
    cap = params.max_cluster_tokens

    best_labels: np.ndarray | None = None
    best_j = math.inf
    for vector in _growth_strings(n):
        labels = np.array(vector, dtype=np.int64)
        if not _cap_ok(labels, tok, cap):
            continue
        j = params.alpha * _size_sq(labels, params, tok) + params.beta * _interaction(dsm, labels)
        if j < best_j:
            best_j = j
            best_labels = labels
    if best_labels is None:
        raise ValueError("no assignment satisfies max_cluster_tokens")
    return _finalize(dsm, best_labels, params, tok)
