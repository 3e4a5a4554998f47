"""Ordering a DSM so information flows forward.

Dependencies point column-to-row: an edge j -> i exists when cell [i][j] is
nonzero.  Sequencing condenses strongly connected components (coupled element
groups that cannot be serialized) and levels the resulting DAG by longest path
from the sources.  Flattening the levels gives an order in which every
provider precedes its consumers, except inside cycles and for a provider of
0 tokens, which leaves no mark in :func:`~dsmplan.dsm.build_dsm`'s matrix.
Both :func:`sequence` and :func:`reachability` read the edges from the DSM's
marks and walk its strongly connected components in Tarjan's order:
sequencing runs in O(n + marks), and reachability, which keeps each
element's closure as a Python-int bitset, in O(n + marks) big-int ORs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dsm import Dsm, Permutation


def reachability(dsm: Dsm) -> tuple[int, ...]:
    """Transitive closure as bitsets: bit j of entry i is set iff j == i or a
    path j -> ... -> i exists.

    Equivalently, entry i marks everything element i transitively depends on.
    Components come providers first, and each ORs its members' own bits and
    the closures of its members' providers, so the whole closure costs
    O(n + marks) big-int ORs.  Idempotent: closing the closure changes nothing.
    """
    providers: list[list[int]] = [[] for _ in range(dsm.n)]
    for i, j in zip(dsm.marks[0], dsm.marks[1]):
        providers[i].append(j)
    closure = [0] * dsm.n
    # over provider edges, Tarjan emits each component after every component
    # it reaches, which puts providers first
    for members in _tarjan_sccs(providers):
        reach = 0
        for v in members:
            reach |= 1 << v
            for j in providers[v]:
                reach |= closure[j]  # 0 inside this component: its bits are the members'
        for v in members:
            closure[v] = reach
    return tuple(closure)


def _tarjan_sccs(succ: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan; returns components as lists of vertex indices, each
    after every component it reaches (reverse topological order)."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]  # the DFS path, each with its unvisited successors
        while work:
            v, children = work[-1]
            for w in children:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:  # every successor of v is done
                work.pop()
                if low[v] == index[v]:
                    component = []
                    while True:
                        u = stack.pop()
                        on_stack[u] = False
                        component.append(u)
                        if u == v:
                            break
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
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
    groups stay contiguous.  So providers precede their consumers outside
    coupled groups, except a 0-token provider, which leaves no mark to order.
    """
    n = dsm.n
    rows, cols, _ = dsm.marks
    succ: list[list[int]] = [[] for _ in range(n)]  # provider -> consumers
    for i, j in zip(rows, cols):
        succ[j].append(i)

    # Tarjan emits a component only after every component it reaches, so the
    # reversed list puts each provider component before its consumers
    components = _tarjan_sccs(succ)[::-1]
    comp_of = [0] * n
    for comp_index, members in enumerate(components):
        for v in members:
            comp_of[v] = comp_index

    # longest-path leveling over the condensation, in that topological order
    level = [1] * len(components)
    for c, members in enumerate(components):
        next_level = level[c] + 1
        for v in members:
            for w in succ[v]:
                d = comp_of[w]
                if d != c and level[d] < next_level:
                    level[d] = next_level

    by_level: dict[int, list[list[int]]] = {}
    for c, members in enumerate(components):
        by_level.setdefault(level[c], []).append(sorted(members))  # manifest order inside

    levels: list[tuple[str, ...]] = []
    flat: list[int] = []
    cycles: list[tuple[str, ...]] = []
    for lvl in sorted(by_level):
        level_indices: list[int] = []
        for members in sorted(by_level[lvl]):  # disjoint sorted lists: by first member
            level_indices.extend(members)
            if len(members) >= 2:
                cycles.append(tuple(dsm.element_ids[v] for v in members))
        levels.append(tuple(dsm.element_ids[v] for v in level_indices))
        flat.extend(level_indices)

    return SequencingResult(
        element_ids=dsm.element_ids,
        levels=tuple(levels),
        order=Permutation(tuple(flat)),
        cycles=tuple(cycles),
    )
