"""Reachability and sequencing against networkx, an implementation written
independently of this library (test-only; skipped where it is not installed).

The digraph has an edge j -> i for each mark [i][j]: provider to consumer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

nx = pytest.importorskip("networkx")

from dsmplan.dsm import BINARY, Dsm  # noqa: E402
from dsmplan.sequencing import reachability, sequence  # noqa: E402


@st.composite
def random_digraph(draw, max_n=40):
    """A Dsm and the same graph in networkx, any pattern of marks, cycles included."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    edges = (
        draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
        if n
        else []
    )
    marks = sorted({(i, j) for i, j in edges if i != j})
    rows, cols = [i for i, _ in marks], [j for _, j in marks]
    d = Dsm(tuple(f"v{k}" for k in range(n)), (rows, cols, [1] * len(marks)), BINARY)
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from((j, i) for i, j in marks)
    return d, g


@given(random_digraph())
@settings(max_examples=200, deadline=None)
def test_reachability_is_networkx_transitive_closure(case):
    d, g = case
    closure = nx.transitive_closure(g, reflexive=True)
    assert reachability(d) == tuple(sum(1 << j for j in closure.predecessors(i)) for i in range(d.n))


@given(random_digraph())
@settings(max_examples=200, deadline=None)
def test_sequence_condenses_and_levels_as_networkx(case):
    d, g = case
    seq = sequence(d)
    condensed = nx.condensation(g)
    members = nx.get_node_attributes(condensed, "members")

    coupled = {e for group in seq.cycles for e in group}
    components = {frozenset(group) for group in seq.cycles}
    components |= {frozenset([e]) for e in d.element_ids if e not in coupled}
    assert components == {frozenset(d.element_ids[v] for v in group) for group in members.values()}

    # 1 + the longest path into each component of the condensation
    depth: dict[int, int] = {}
    for c in nx.topological_sort(condensed):
        depth[c] = max((depth[p] + 1 for p in condensed.predecessors(c)), default=0)
    want = {d.element_ids[v]: 1 + depth[c] for c, group in members.items() for v in group}
    assert {e: k for k, level in enumerate(seq.levels, start=1) for e in level} == want
