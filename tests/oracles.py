"""Test oracles: the dense ``Dsm`` constructor, the exhaustive clustering
oracle, and the two-pass piece cutter.

:func:`dense` builds a Dsm from an (n, n) matrix once its shape is checked.
It is how most tests write a small matrix, and the reference that
``test_marks.py`` checks the constructor's fault order against.

:func:`brute_force_cluster` is the global optimum of J over every set
partition, for the small matrices the search is checked against.  It scores
with the library's own direct summation, so it checks the search, not the
scorer; the scorer has its own straight-from-the-definition oracle in
``test_clustering.py``.  Its cost grows with the Bell numbers (115 975
partitions at n = 10), so keep n small.

:func:`run_then_split` cuts pieces the way ``make_pieces`` once did, in two
passes: maximal cluster runs of the sequence first, then a greedy split of
each run at the cap.  It knows nothing of coupled groups, so it gives
``make_pieces``'s pieces exactly when no coupled group that fits the cap is
cut by a run or cap boundary.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from dsmplan.clustering import ClusterAssignment, ClusterParams, _finalize, _score, _token_vector
from dsmplan.dsm import NUMERICAL, Dsm
from dsmplan.errors import NonSquare, UnsplittablePiece
from dsmplan.sequencing import SequencingResult


def dense(ids: Iterable[str], weights, kind: str = NUMERICAL) -> Dsm:
    """The Dsm of a dense (n, n) matrix: its nonzero cells, once the matrix
    is square with a row per id."""
    ids = tuple(ids)
    w = np.asarray(weights, dtype=np.int64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise NonSquare(f"weights shape {w.shape} is not square")
    if w.shape[0] != len(ids):
        raise NonSquare(f"{len(ids)} element ids but {w.shape[0]} matrix rows")
    nonzero = np.nonzero(w)
    return Dsm(ids, (nonzero[0].tolist(), nonzero[1].tolist(), w[nonzero].tolist()), kind)


def _growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All canonical assignment vectors of length n, in lexicographic order;
    n = 0 has one, the empty partition."""
    vector = [0] * n

    def extend(pos: int, max_label: int) -> Iterator[tuple[int, ...]]:
        if pos == n:
            yield tuple(vector)
            return
        for label in range(max_label + 2):
            vector[pos] = label
            yield from extend(pos + 1, max(max_label, label))

    yield from extend(0, -1)


def _cap_ok(labels: Sequence[int], tok: Sequence[int], cap: int | None) -> bool:
    if cap is None:
        return True
    sums: dict[int, int] = {}
    for pos, label in enumerate(labels):
        sums[label] = sums.get(label, 0) + tok[pos]
        if sums[label] > cap:
            return False
    return True


def brute_force_cluster(
    dsm: Dsm,
    params: ClusterParams | None = None,
    token_counts: Mapping[str, int] | None = None,
) -> ClusterAssignment:
    """Exhaustive global optimum over all set partitions.

    Ties resolve to the lexicographically smallest canonical assignment
    vector, which is the first one the enumeration visits.
    """
    params = params or ClusterParams()
    n = dsm.n
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


def run_then_split(
    seq: SequencingResult, clusters: ClusterAssignment, counts: Mapping[str, int], cap: int
) -> list[tuple[str, ...]]:
    """The element ids of each piece: a maximal run of the sequence sharing one
    multi-member cluster, or of consecutive singletons, split greedily so no
    chunk's GM exceeds ``cap``.  Raises UnsplittablePiece at the first element
    above the cap."""
    sizes: dict[int, int] = {}
    for index in clusters.cluster_of.values():
        sizes[index] = sizes.get(index, 0) + 1
    runs: list[list[str]] = []
    run_key: object = None
    for element_id in seq.sequenced_ids():
        index = clusters.cluster_of[element_id]
        key = index if sizes[index] > 1 else "singletons"
        if not runs or key != run_key:
            runs.append([])
            run_key = key
        runs[-1].append(element_id)

    chunks: list[tuple[str, ...]] = []
    for run in runs:
        current: list[str] = []
        current_gm = 0
        for element_id in run:
            tokens = counts[element_id]
            if tokens > cap:
                raise UnsplittablePiece(element_id)
            if current and current_gm + tokens > cap:
                chunks.append(tuple(current))
                current, current_gm = [], 0
            current.append(element_id)
            current_gm += tokens
        if current:
            chunks.append(tuple(current))
    return chunks
