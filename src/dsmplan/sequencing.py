"""Ordering a DSM so information flows forward.

Dependencies point column-to-row: an edge j -> i exists when weights[i][j] is
nonzero.  Sequencing condenses strongly connected components (coupled element
groups that cannot be serialized) and levels the resulting DAG by longest path
from the sources.  Flattening the levels gives an order in which every
provider precedes its consumers except inside cycles.  It reads the edges from
the DSM's marks, so it runs in O(n + marks); only :func:`reachability` works
on the dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsm import Dsm, Permutation


def reachability(dsm: Dsm) -> np.ndarray:
    """Boolean closure: R[i][j] is True iff j == i or a path j -> ... -> i exists.

    Equivalently, row i marks everything element i transitively depends on.
    Idempotent: closing the closure changes nothing.
    """
    n = dsm.n
    reach = (dsm.weights != 0) | np.eye(n, dtype=bool)
    for k in range(n):
        rows = reach[:, k]
        reach[rows] |= reach[k]
    return reach


def _tarjan_sccs(succ: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; returns components as lists of vertex indices."""
    n = len(succ)
    index: list[int | None] = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] is not None:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, child_pos = work[-1]
            if child_pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for pos in range(child_pos, len(succ[v])):
                w = succ[v][pos]
                if index[w] is None:
                    work[-1] = (v, pos + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])  # type: ignore[arg-type]
            if descended:
                continue
            if low[v] == index[v]:
                component = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    component.append(u)
                    if u == v:
                        break
                components.append(component)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return components


@dataclass(frozen=True)
class SequencingResult:
    element_ids: tuple[str, ...]  # input (manifest) order
    levels: tuple[tuple[str, ...], ...]
    order: Permutation  # order.order[k] = input index of the k-th sequenced element
    cycles: tuple[tuple[str, ...], ...]  # coupled groups (size >= 2), in sequence order

    def sequenced_ids(self) -> tuple[str, ...]:
        return tuple(self.element_ids[i] for i in self.order.order)


def sequence(dsm: Dsm) -> SequencingResult:
    """Partition elements into dependency levels.

    Components with no external providers sit at level 1; every other
    component sits one past its deepest provider component.  Within a level,
    components (and elements inside a component) keep manifest order; coupled
    groups stay contiguous.
    """
    n = dsm.n
    rows, cols, _ = dsm.marks
    consumers, providers = rows.tolist(), cols.tolist()
    succ: list[list[int]] = [[] for _ in range(n)]  # provider -> consumers
    for i, j in zip(consumers, providers):
        succ[j].append(i)

    components = _tarjan_sccs(succ)
    comp_of = [0] * n
    for comp_index, members in enumerate(components):
        for v in members:
            comp_of[v] = comp_index

    preds: list[set[int]] = [set() for _ in components]
    succs: list[set[int]] = [set() for _ in components]
    for i, j in zip(consumers, providers):
        ci, cj = comp_of[i], comp_of[j]
        if ci != cj:
            preds[ci].add(cj)
            succs[cj].add(ci)

    # longest-path leveling over the condensation (Kahn order)
    level = [0] * len(components)
    indegree = [len(p) for p in preds]
    queue = [c for c, d in enumerate(indegree) if d == 0]
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

    members_sorted = [sorted(m) for m in components]  # manifest order inside a component
    by_level: dict[int, list[int]] = {}
    for comp_index in range(len(components)):
        by_level.setdefault(level[comp_index], []).append(comp_index)

    levels: list[tuple[str, ...]] = []
    flat: list[int] = []
    cycles: list[tuple[str, ...]] = []
    for lvl in sorted(by_level):
        comps_here = sorted(by_level[lvl], key=lambda c: members_sorted[c][0])
        level_indices: list[int] = []
        for comp_index in comps_here:
            level_indices.extend(members_sorted[comp_index])
            if len(members_sorted[comp_index]) >= 2:
                cycles.append(tuple(dsm.element_ids[v] for v in members_sorted[comp_index]))
        levels.append(tuple(dsm.element_ids[v] for v in level_indices))
        flat.extend(level_indices)

    return SequencingResult(
        element_ids=dsm.element_ids,
        levels=tuple(levels),
        order=Permutation(tuple(flat)),
        cycles=tuple(cycles),
    )
