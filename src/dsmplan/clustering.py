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
order, so a seed gives the same plans across versions.  Those draws are the
one use of numpy here: a chain imports it for its generator, and everything
else — scoring, bookkeeping, the brute force — works on lists of ints.

Cost.  A proposal costs O(deg(e)): the target is read by index from sorted
lists of active and free labels, and the interaction delta is a scan of
``e``'s neighbours.  Only a move that empties a cluster or opens one edits
those lists, in O(n).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

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
        for name in ("seed", "restarts", "iterations_per_restart"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.size_mode not in (SIZE_MODE_COUNT, SIZE_MODE_TOKENS):
            raise ValueError(f"unknown size mode {self.size_mode!r}")
        if self.max_cluster_tokens is not None and self.max_cluster_tokens <= 0:
            raise ValueError("max_cluster_tokens must be positive when set")
        if self.restarts < 1 or self.iterations_per_restart < 0:
            raise ValueError("need at least one restart and non-negative iterations")
        if self.seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ValueError("seed must be non-negative")


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
) -> list[int] | None:
    needs_tokens = params.size_mode == SIZE_MODE_TOKENS or params.max_cluster_tokens is not None
    if token_counts is None:
        if needs_tokens:
            raise ValueError("token counts required for token-sum sizing or a token cap")
        return None
    missing = [e for e in dsm.element_ids if e not in token_counts]
    if missing:
        raise IncompleteAssignment(tuple(missing))
    return [token_counts[e] for e in dsm.element_ids]


def _mean_tokens(params: ClusterParams, tok: Sequence[int] | None) -> float:
    """The token-sum size unit, or 0.0 when clusters are sized by element count.

    An all-zero token corpus is sized by count too: with every element the
    same size, the two modes agree, as they do on any uniform corpus.
    """
    if params.size_mode == SIZE_MODE_COUNT or tok is None or not len(tok):
        return 0.0
    return sum(tok) / len(tok)  # np.mean's value while the sum is below 2**53: one exact sum, one rounding


def _size_sq(labels: Sequence[int], params: ClusterParams, tok: Sequence[int] | None) -> float:
    mean = _mean_tokens(params, tok)
    if mean == 0.0:
        return float(sum(c * c for c in Counter(labels).values()))
    sums: dict[int, int] = {}
    for label, tokens in zip(labels, tok):  # type: ignore[arg-type]
        sums[label] = sums.get(label, 0) + tokens
    return float(sum((c / mean) ** 2 for c in sums.values()))


def _interaction(dsm: Dsm, labels: Sequence[int]) -> int:
    """Total weight of the marks whose two ends sit in different clusters."""
    rows, cols, vals = dsm.marks
    return sum(val for row, col, val in zip(rows, cols, vals) if labels[row] != labels[col])


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
    labels = [assignment[e] for e in dsm.element_ids]
    tok = _token_vector(dsm, token_counts, params) if params.size_mode == SIZE_MODE_TOKENS else None
    return _score(dsm, labels, params, tok)[0]


def _score(
    dsm: Dsm, labels: Sequence[int], params: ClusterParams, tok: Sequence[int] | None
) -> tuple[float, float, int]:
    """J, its raw size term and its raw interaction term for a label vector.

    None of the three depends on the label names: the token-mode size sums
    run over clusters in order of first appearance, the order that
    :func:`_canonical` numbers them in, so raw and canonical labels give the
    same floats.
    """
    size_sq = _size_sq(labels, params, tok)
    interaction = _interaction(dsm, labels)
    return params.alpha * size_sq + params.beta * interaction, size_sq, interaction


def _canonical(labels: Sequence[int]) -> tuple[list[int], int]:
    """Relabel clusters by first appearance; returns (labels, cluster count)."""
    mapping: dict[int, int] = {}
    canon = [mapping.setdefault(label, len(mapping)) for label in labels]
    return canon, len(mapping)


def _cap_ok(labels: Sequence[int], tok: Sequence[int] | None, cap: int | None) -> bool:
    if cap is None:
        return True
    sums: dict[int, int] = {}
    for pos, label in enumerate(labels):
        sums[label] = sums.get(label, 0) + tok[pos]  # type: ignore[index]
        if sums[label] > cap:
            return False
    return True


def _neighbours(dsm: Dsm) -> list[list[tuple[int, int]]]:
    """Per element ``e``, the ``(j, w)`` pairs with ``w = weights[e, j] + weights[j, e] > 0``,
    in ascending ``j``."""
    rows, cols, vals = dsm.marks
    sums: list[dict[int, int]] = [{} for _ in range(dsm.n)]
    for i, j, w in zip(rows, cols, vals):
        sums[i][j] = sums[i].get(j, 0) + w
        sums[j][i] = sums[j].get(i, 0) + w
    return [sorted(row.items()) for row in sums]


def _anneal_chain(
    nbrs: list[list[tuple[int, int]]],
    total: int,
    params: ClusterParams,
    tok: list[int] | None,
    chain_index: int,
) -> tuple[list[int], float]:
    """One annealing restart; returns the best label vector seen and its tracked J."""
    import numpy as np

    n = len(nbrs)
    rng = np.random.default_rng(np.random.SeedSequence([params.seed, chain_index]))
    cap = params.max_cluster_tokens
    iters = params.iterations_per_restart

    if cap is None:
        labels: list[int] = rng.integers(0, n, size=n).tolist()
    else:
        labels = list(range(n))  # singletons are always cap-feasible here
    size_sq = _size_sq(labels, params, tok)
    tokens = tok if tok is not None else [0] * n
    limit = math.inf if cap is None else cap
    count = [0] * n
    toksum = [0] * n
    for pos, label in enumerate(labels):
        count[label] += 1
        toksum[label] += tokens[pos]
    mean_tok = _mean_tokens(params, tok)  # 0.0: clusters are sized by count

    # exact integer interaction bookkeeping: I0 = total - intra, and a
    # capped chain starts from singletons, which hold no intra weight
    intra = 0
    if cap is None:
        for pos, row in enumerate(nbrs):
            for other, w in row:
                if other < pos and labels[other] == labels[pos]:
                    intra += w
    interaction = total - intra

    alpha, beta, exp = params.alpha, params.beta, math.exp
    current_j = alpha * size_sq + beta * interaction
    best_j = current_j
    best_labels = labels.copy()

    if iters == 0 or n < 2:
        return best_labels, best_j

    temperature = max(1.0, 0.05 * current_j)
    cool = _COOL_RATIO ** (1.0 / iters)

    picks = rng.integers(0, n, size=iters).tolist()
    target_u = rng.random(iters).tolist()
    accept_u = rng.random(iters).tolist()

    active = sorted(set(labels))
    free = sorted(set(range(n)).difference(active))
    num_active = len(active)

    for e, u, a in zip(picks, target_u, accept_u):
        temperature *= cool
        source = labels[e]
        # targets: active labels ascending without the source, then free[0]
        # when the source keeps other members (so at most n-1 are active);
        # active holds the source, so active[k] is the k-th target while it
        # sits below the source, and active[k + 1] from the source on
        others = num_active - 1
        num_targets = others + (count[source] > 1)
        if not num_targets:
            continue
        k = int(u * num_targets)
        if k < others:
            target = active[k]
            if target >= source:
                target = active[k + 1]
        else:
            target = free[0]
        if toksum[target] + tokens[e] > limit:
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
        delta = alpha * d_size + beta * d_interaction

        if delta > 0 and a >= exp(-delta / temperature):
            continue

        labels[e] = target
        count[source] -= 1
        count[target] += 1
        toksum[source] -= tokens[e]
        toksum[target] += tokens[e]
        if count[target] == 1:
            del free[0]
            insort(active, target)
            num_active += 1
        if count[source] == 0:
            del active[bisect_left(active, source)]
            insort(free, source)
            num_active -= 1
        interaction += d_interaction
        size_sq += d_size
        current_j = alpha * size_sq + beta * interaction
        if current_j < best_j:
            best_j = current_j
            best_labels = labels.copy()

    return best_labels, best_j


def _finalize(
    dsm: Dsm, labels: Sequence[int], params: ClusterParams, tok: list[int] | None
) -> ClusterAssignment:
    canon, num_clusters = _canonical(labels)
    cluster_of = dict(zip(dsm.element_ids, canon))
    j_total, size_sq, interaction = _score(dsm, canon, params, tok)
    return ClusterAssignment(
        cluster_of=cluster_of,
        num_clusters=num_clusters,
        j_total=j_total,
        j_size_term=size_sq,
        j_interaction_term=float(interaction),
    )


def _check_tracked(
    tracked_j: float, j_total: float, params: ClusterParams, tok: list[int] | None
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
    (whenever those respect ``max_cluster_tokens``).  Every chain's result
    is scored by direct summation on its raw labels and drift-checked
    against the chain's tracked J; only the winner is relabelled into a
    :class:`ClusterAssignment`.
    """
    params = params or ClusterParams()
    n = dsm.n
    if n == 0:
        raise EmptyMatrix()
    tok = _token_vector(dsm, token_counts, params)
    cap = params.max_cluster_tokens
    if cap is not None and tok is not None and max(tok) > cap:
        worst = dsm.element_ids[tok.index(max(tok))]
        raise ValueError(f"element {worst!r} alone exceeds max_cluster_tokens={cap}")
    if n == 1:
        return _finalize(dsm, [0], params, tok)

    nbrs = _neighbours(dsm)
    total = sum(dsm.marks[2])
    scored: list[tuple[float, Sequence[int]]] = []  # (J, labels) per candidate
    for chain in range(params.restarts):
        labels, tracked_j = _anneal_chain(nbrs, total, params, tok, chain)
        scored.append((_score(dsm, labels, params, tok)[0], labels))
        _check_tracked(tracked_j, scored[-1][0], params, tok)
    scored.append((_score(dsm, range(n), params, tok)[0], range(n)))  # all singletons
    one_cluster = [0] * n
    if _cap_ok(one_cluster, tok, cap):
        scored.append((_score(dsm, one_cluster, params, tok)[0], one_cluster))
    # first minimum: ties go to the earlier candidate
    return _finalize(dsm, min(scored, key=lambda candidate: candidate[0])[1], params, tok)


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
    return _finalize(dsm, [flat[e] for e in dsm.element_ids], params, tok)


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

    best_labels: tuple[int, ...] | None = None
    best_j = math.inf
    for labels in _growth_strings(n):
        if not _cap_ok(labels, tok, cap):
            continue
        j = _score(dsm, labels, params, tok)[0]
        if j < best_j:
            best_j = j
            best_labels = labels
    if best_labels is None:
        raise ValueError("no assignment satisfies max_cluster_tokens")
    return _finalize(dsm, best_labels, params, tok)
