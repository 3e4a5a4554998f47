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
standard-library generator, ``random.Random(f"{seed}:{chain_index}")``, the
winner is the lowest cost with ties to the lowest chain index, and the two
trivial assignments (all singletons, one big cluster) are always scored as
explicit candidates so the result can never be worse than either.

Determinism contract.  A chain takes every draw from ``random()`` of its
generator, whose stream for a ``str`` seed Python keeps the same across
versions (``choices`` and ``randrange`` carry no such promise, so neither is
used).  It draws, in this order: the initial labels, ``int(u * n)`` per
element (uncapped runs only; capped runs start from singletons); then per
proposal, inline, the element ``int(u * n)``, the target draw ``u``, and an
acceptance draw only for an uphill move that passed the cap.  A proposal
moves its element ``e`` out of its ``source`` cluster; its targets are the
active labels in ascending order without ``source``, followed by the lowest
free label when ``source`` has other members, and it takes target
``int(u * len(targets))``.  Faster bookkeeping must keep this rule and draw
order, so a seed gives the same plans across versions.  The stream changed
once: chains drew from numpy's ``SeedSequence([seed, chain_index])``
generator, in three pre-drawn arrays, until the annealer moved to the
standard library, so the search imports no numpy.

Cost.  A proposal costs O(deg(e)): it reads its source's and target's
member counts and the target's token sum plus ``e``'s once each, and
reuses them for the target draw, the cap check, the size delta, the update
and the open/empty tests; the target is read by index from sorted lists of
active and free labels, and the interaction delta is a scan of ``e``'s
neighbours.  Only a move that empties a cluster or opens one edits those
lists, in O(n).  The cooling schedule is built once per start temperature:
capped chains all start from singletons, so one list serves every one of
them, while an uncapped chain cools its own.  A chain copies its labels
only when it leaves its best state, just before the first accepted move
that does not improve on it, and returns its live labels when it ends
there.  Where an int meets a float (``n`` in the element draw, the
count-mode size delta) it is held as the float it converts to, so those
products skip the conversion and keep their values.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .dsm import Dsm
from .errors import IncompleteAssignment, require_int

SIZE_MODE_COUNT = "count"
SIZE_MODE_TOKENS = "tokens"

_COOL_RATIO = 1e-3  # final temperature as a fraction of the initial one


@dataclass(frozen=True)
class ClusterParams:
    """Search settings.  ``max_cluster_tokens``, when set, caps each cluster's
    summed token count; 0 is a cap like any other, met only by 0-token
    elements."""

    alpha: float = 2.0
    beta: float = 1.0
    size_mode: str = SIZE_MODE_COUNT
    max_cluster_tokens: int | None = None
    seed: int = 42
    restarts: int = 32
    iterations_per_restart: int = 2000

    def __post_init__(self) -> None:
        for name in ("seed", "restarts", "iterations_per_restart"):
            require_int(name, getattr(self, name))
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.size_mode not in (SIZE_MODE_COUNT, SIZE_MODE_TOKENS):
            raise ValueError(f"unknown size mode {self.size_mode!r}")
        if self.max_cluster_tokens is not None:
            require_int("max_cluster_tokens", self.max_cluster_tokens)
            if self.max_cluster_tokens < 0:
                raise ValueError("max_cluster_tokens must be non-negative when set")
        if self.restarts < 1 or self.iterations_per_restart < 0:
            raise ValueError("need at least one restart and non-negative iterations")
        if self.seed < 0:  # refused since the first release; kept so no exit code moves
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


def _token_vector(dsm: Dsm, token_counts: Mapping[str, int] | None, params: ClusterParams) -> list[int]:
    """Each element's count in matrix order; all zeros when none are given,
    which only count sizing without a cap allows (it never reads them)."""
    needs_tokens = params.size_mode == SIZE_MODE_TOKENS or params.max_cluster_tokens is not None
    if token_counts is None:
        if needs_tokens:
            raise ValueError("token counts required for token-sum sizing or a token cap")
        return [0] * dsm.n
    missing = [e for e in dsm.element_ids if e not in token_counts]
    if missing:
        raise IncompleteAssignment(tuple(missing))
    tok = [token_counts[e] for e in dsm.element_ids]
    if min(tok, default=0) < 0:
        worst = dsm.element_ids[tok.index(min(tok))]
        raise ValueError(f"element {worst!r} has a negative token count")
    return tok


def _mean_tokens(params: ClusterParams, tok: Sequence[int]) -> float:
    """The token-sum size unit, or 0.0 when clusters are sized by element count.

    An all-zero token corpus is sized by count too: with every element the
    same size, the two modes agree, as they do on any uniform corpus.
    """
    if params.size_mode == SIZE_MODE_COUNT or not len(tok):
        return 0.0
    return sum(tok) / len(tok)  # np.mean's value while the sum is below 2**53: one exact sum, one rounding


def _size_sq(labels: Sequence[int], params: ClusterParams, tok: Sequence[int]) -> float:
    mean = _mean_tokens(params, tok)
    if mean == 0.0:
        return float(sum(c * c for c in Counter(labels).values()))
    sums: dict[int, int] = {}
    for label, tokens in zip(labels, tok):
        sums[label] = sums.get(label, 0) + tokens
    return float(sum((c / mean) ** 2 for c in sums.values()))


def _interaction(dsm: Dsm, labels: Sequence[int]) -> int:
    """Total weight of the marks whose two ends sit in different clusters."""
    rows, cols, vals = dsm.marks
    return sum(val for row, col, val in zip(rows, cols, vals) if labels[row] != labels[col])


def _score(
    dsm: Dsm, labels: Sequence[int], params: ClusterParams, tok: Sequence[int]
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


def _neighbours(dsm: Dsm) -> list[list[tuple[int, int]]]:
    """Per element ``e``, the ``(j, w)`` pairs in ascending ``j``, where ``w > 0``
    sums the weights of the marks of ``e`` on ``j`` and of ``j`` on ``e``."""
    rows, cols, vals = dsm.marks
    sums: list[dict[int, int]] = [{} for _ in range(dsm.n)]
    for i, j, w in zip(rows, cols, vals):
        sums[i][j] = sums[i].get(j, 0) + w
        sums[j][i] = sums[j].get(i, 0) + w
    return [sorted(row.items()) for row in sums]


def _schedule(start_j: float, iters: int) -> Iterator[float]:
    """The temperature of each of ``iters`` proposals: from T0 =
    ``max(1.0, 0.05 * start_j)``, cooled by one repeated ``*= cool`` per
    proposal, before it is made, to about ``_COOL_RATIO`` * T0 at the last."""
    cool = _COOL_RATIO ** (1.0 / max(iters, 1))
    temps = accumulate(repeat(cool, iters), mul, initial=max(1.0, 0.05 * start_j))
    next(temps)  # T0 itself: the first proposal is made one cooling step below it
    return temps


def _anneal_chain(
    dsm: Dsm,
    nbrs: list[list[tuple[int, int]]],
    params: ClusterParams,
    tok: list[int],
    chain_index: int,
    singletons: tuple[float, float, int],
    capped_schedule: Iterable[float],
) -> tuple[list[int], float]:
    """One annealing restart from the :func:`_score` of its drawn labels, or of
    singletons when capped (``singletons``, which the caller scores once for
    every chain); returns the best label vector seen and its tracked J.

    Capped chains share their start, so they take their temperatures from
    ``capped_schedule``, the caller's one :func:`_schedule` of it; an
    uncapped chain cools from its own start."""
    n = dsm.n
    n_float = float(n)  # u * n_float is u * n: the int converts to the same double
    draw = random.Random(f"{params.seed}:{chain_index}").random
    cap = params.max_cluster_tokens

    if cap is None:
        labels = [int(draw() * n) for _ in range(n)]
        current_j, size_sq, interaction = _score(dsm, labels, params, tok)
        temperatures = _schedule(current_j, params.iterations_per_restart)
    else:
        labels = list(range(n))  # singletons are always cap-feasible here
        current_j, size_sq, interaction = singletons
        temperatures = capped_schedule
    limit = math.inf if cap is None else cap
    count = [0] * n
    toksum = [0] * n
    for pos, label in enumerate(labels):
        count[label] += 1
        toksum[label] += tok[pos]
    mean_tok = _mean_tokens(params, tok)  # 0.0: clusters are sized by count

    alpha, beta, exp = params.alpha, params.beta, math.exp
    best_j = current_j
    best_labels: list[int] | None = None  # None while the live labels are the best seen

    active = sorted(set(labels))
    free = sorted(set(range(n)).difference(active))
    others = len(active) - 1  # active labels besides a proposal's source

    for temperature in temperatures:
        e = int(draw() * n_float)
        source = labels[e]
        n_source = count[source]
        # targets: active labels ascending without the source, then free[0]
        # when the source keeps other members (so at most n-1 are active);
        # with n >= 2 there is always one: a lone active label holds all n.
        # active holds the source, so active[k] is the k-th target while it
        # sits below the source, and active[k + 1] from the source on
        k = int(draw() * (others + (n_source > 1)))
        if k < others:
            target = active[k]
            if target >= source:
                target = active[k + 1]
        else:
            target = free[0]
        tok_e = tok[e]
        grown = toksum[target] + tok_e
        if grown > limit:
            continue  # infinite penalty: never even propose acceptance

        # the zero diagonal keeps e itself out of its neighbour list
        d_interaction = 0
        for other, w in nbrs[e]:
            label = labels[other]
            if label == source:
                d_interaction += w
            elif label == target:
                d_interaction -= w
        n_target = count[target]
        if mean_tok == 0.0:
            d_size = 2.0 * (n_target - n_source + 1)  # exact, as an int would be
        else:
            te = tok_e / mean_tok
            s_src = toksum[source] / mean_tok
            s_tgt = toksum[target] / mean_tok
            d_size = 2.0 * te * (s_tgt - s_src + te)
        delta = alpha * d_size + beta * d_interaction

        if delta > 0.0 and draw() >= exp(-delta / temperature):
            continue

        interaction += d_interaction
        size_sq += d_size
        current_j = alpha * size_sq + beta * interaction
        if current_j < best_j:
            best_j = current_j
            best_labels = None
        elif best_labels is None:
            best_labels = labels.copy()  # leaving the best state: keep it
        labels[e] = target
        count[source] = n_source - 1
        count[target] = n_target + 1
        toksum[source] -= tok_e
        toksum[target] = grown
        if n_target == 0:  # the target opens a cluster
            del free[0]
            insort(active, target)
            others += 1
        elif n_source == 1:  # the move empties the source
            del active[bisect_left(active, source)]
            insort(free, source)
            others -= 1

    return labels if best_labels is None else best_labels, best_j


def _finalize(
    dsm: Dsm, labels: Sequence[int], params: ClusterParams, tok: list[int]
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
    tracked_j: float, j_total: float, params: ClusterParams, tok: list[int]
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
    tok = _token_vector(dsm, token_counts, params)
    cap = params.max_cluster_tokens
    if cap is not None and max(tok, default=0) > cap:
        worst = dsm.element_ids[tok.index(max(tok))]
        raise ValueError(f"element {worst!r} alone exceeds max_cluster_tokens={cap}")
    if n < 2:
        return _finalize(dsm, range(n), params, tok)

    nbrs = _neighbours(dsm)
    singletons = _score(dsm, range(n), params, tok)
    # capped chains all start from singletons: one schedule serves them all
    capped_schedule = [] if cap is None else list(_schedule(singletons[0], params.iterations_per_restart))
    scored: list[tuple[float, Sequence[int]]] = []  # (J, labels) per candidate
    for chain in range(params.restarts):
        labels, tracked_j = _anneal_chain(dsm, nbrs, params, tok, chain, singletons, capped_schedule)
        scored.append((_score(dsm, labels, params, tok)[0], labels))
        _check_tracked(tracked_j, scored[-1][0], params, tok)
    scored.append((singletons[0], range(n)))
    if cap is None or sum(tok) <= cap:
        scored.append((_score(dsm, [0] * n, params, tok)[0], [0] * n))
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
    known = set(dsm.element_ids)
    flat: dict[str, int] = {}
    for index, group in enumerate(groups):
        for element_id in group:
            if element_id in flat or element_id not in known:
                raise ValueError(f"groups must cover each element exactly once; bad id {element_id!r}")
            flat[element_id] = index
    missing = tuple(e for e in dsm.element_ids if e not in flat)
    if missing:
        raise IncompleteAssignment(missing)
    tok = _token_vector(dsm, token_counts, params)
    return _finalize(dsm, [flat[e] for e in dsm.element_ids], params, tok)
