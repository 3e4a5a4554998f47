import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmplan.errors import PieceExceedsWindow, SpecMismatch
from dsmplan.dsm import build_dsm
from dsmplan.manifest import ConversationElement, ConversationModel, parse_manifest
from dsmplan.planning import BudgetConfig, ConversationPiece, ConversationPlan, ModelSpec
from dsmplan.simulator import compare, simulate


def fifo_oracle(plan: ConversationPlan, cw: int) -> tuple[int, int]:
    """(misses, lost_tokens) recomputed with plain lists, no shared state logic."""
    counts = plan.conversation.token_counts()
    deps = plan.conversation.dependencies()
    window: list[tuple[str | None, int]] = []
    sent: set[str] = set()
    misses = 0
    lost = 0
    for k, piece in enumerate(plan.pieces):
        load: list[tuple[str | None, int]] = []
        if piece.includes_user_statement and plan.conversation.user_statement_tokens > 0:
            load.append((None, plan.conversation.user_statement_tokens))
        if plan.config.instructions_per_piece > 0:
            load.append((None, plan.config.instructions_per_piece))
        load.extend((e, counts[e]) for e in piece.element_ids)
        if piece.fm_tokens > 0:
            load.append((None, piece.fm_tokens))
        incoming = sum(t for _, t in load)
        while window and sum(t for _, t in window) + incoming > cw:
            window.pop(0)
        window.extend(load)
        sent.update(e for e, _ in load if e is not None)
        while sum(t for _, t in window) > cw:
            window.pop(0)
        present = {e for e, _ in window if e is not None}
        for e in piece.element_ids:
            for provider in deps[e]:
                if provider in sent and provider not in present:
                    misses += 1
                    lost += counts[provider]
    return misses, lost


def _conversation(counts, deps=None, ust=0):
    deps = deps or {}
    elements = tuple(
        ConversationElement(id=k, label=k, token_count=v, dependencies=tuple(deps.get(k, ())))
        for k, v in counts.items()
    )
    return ConversationModel(elements=elements, user_statement_tokens=ust)


def _manual_plan(conv, piece_ids, spec, inst=0):
    """Pieces cut by hand, fm = gm, margin 0."""
    config = BudgetConfig(margin=0.0, instructions_per_piece=inst)
    counts = conv.token_counts()
    pieces = tuple(
        ConversationPiece(
            element_ids=tuple(ids),
            gm_tokens=sum(counts[e] for e in ids),
            fm_tokens=sum(counts[e] for e in ids),
            includes_user_statement=(k == 0),
        )
        for k, ids in enumerate(piece_ids)
    )
    return ConversationPlan(pieces=pieces, model=spec, config=config, conversation=conv)


# ---------------------------------------------------------------------------
# frozen fixture traces
# ---------------------------------------------------------------------------


def test_sweep_matches_frozen_trace(naive_plan, reference_plan, expected):
    want = expected["simulation"]
    for i, cw in enumerate(want["cw_sweep"]):
        naive_run = simulate(naive_plan, context_window=cw)
        ref_run = simulate(reference_plan, context_window=cw)
        assert naive_run.dependency_misses == want["naive"]["dependency_misses"][i]
        assert naive_run.lost_tokens == want["naive"]["lost_tokens"][i]
        assert ref_run.dependency_misses == want["optimized"]["dependency_misses"][i]
        assert ref_run.lost_tokens == want["optimized"]["lost_tokens"][i]
        # the list-based re-derivation agrees with the frozen figures too
        assert fifo_oracle(naive_plan, cw) == (naive_run.dependency_misses, naive_run.lost_tokens)
        assert fifo_oracle(reference_plan, cw) == (ref_run.dependency_misses, ref_run.lost_tokens)


def test_sweep_is_monotone_and_dominated(naive_plan, reference_plan, expected):
    sweep = expected["simulation"]["cw_sweep"]
    naive_misses = [simulate(naive_plan, context_window=cw).dependency_misses for cw in sweep]
    ref_misses = [simulate(reference_plan, context_window=cw).dependency_misses for cw in sweep]
    assert naive_misses == sorted(naive_misses, reverse=True)
    assert ref_misses == sorted(ref_misses, reverse=True)
    for ref, naive in zip(ref_misses, naive_misses):
        assert ref <= naive


def test_infinite_window_loses_nothing(naive_plan, reference_plan, expected):
    cw = expected["simulation"]["zero_miss_context_window"]
    for plan in (naive_plan, reference_plan):
        run = simulate(plan, context_window=cw)
        assert run.dependency_misses == 0
        assert run.lost_tokens == 0
        assert all(step.evicted_element_ids == () for step in run.steps)


def test_output_overflow_matches_frozen(naive_plan, reference_plan, expected):
    assert (
        simulate(naive_plan).output_overflow_tokens
        == expected["simulation"]["naive_output_overflow_tokens"]
    )
    assert (
        simulate(reference_plan).output_overflow_tokens
        == expected["simulation"]["optimized_output_overflow_tokens"]
    )


def test_default_window_is_the_models(naive_plan):
    run = simulate(naive_plan)
    assert run.context_window == naive_plan.model.context_window
    assert run.dependency_misses == 0  # the whole fixture fits a 32k window


# ---------------------------------------------------------------------------
# semantics on hand-built plans
# ---------------------------------------------------------------------------


def test_misses_counted_per_dependency_edge():
    conv = _conversation({"p": 50, "c1": 60, "c2": 60}, {"c1": ("p",), "c2": ("p",)})
    plan = _manual_plan(conv, [["p"], ["c1"], ["c2"]], ModelSpec("m", 130, 130))
    run = simulate(plan)
    assert run.missed_pairs == (("c1", "p"), ("c2", "p"))
    assert run.dependency_misses == 2
    assert run.lost_tokens == 100  # provider's 50 tokens charged per miss


def test_repeated_dependency_is_one_miss(tmp_path):
    path = tmp_path / "conv.json"
    path.write_text(
        json.dumps(
            {
                "elements": [
                    {"id": "x", "tokens": 100},
                    {"id": "z", "tokens": 100},
                    {"id": "y", "tokens": 10, "deps": ["x", "x", "z"]},
                ]
            }
        )
    )
    conv = parse_manifest(path)
    assert conv.dependencies()["y"] == ("x", "z")
    assert np.count_nonzero(build_dsm(conv.elements).weights) == 2  # y->x and y->z, once each
    # x and z fill the window with their replies; y's piece pushes x out
    run = simulate(_manual_plan(conv, [["x"], ["z"], ["y"]], ModelSpec("m", 400, 400)))
    assert run.missed_pairs == (("y", "x"),)
    assert (run.dependency_misses, run.lost_tokens) == (1, 100)


def test_unsent_provider_is_not_a_miss():
    # consumer sent before its provider: nothing was lost from the window
    conv = _conversation({"a": 10, "b": 10}, {"a": ("b",)})
    plan = _manual_plan(conv, [["a"], ["b"]], ModelSpec("m", 25, 25))
    assert simulate(plan).dependency_misses == 0


def test_provider_still_in_window_is_not_a_miss():
    conv = _conversation({"p": 10, "c": 10}, {"c": ("p",)})
    plan = _manual_plan(conv, [["p"], ["c"]], ModelSpec("m", 1000, 1000))
    run = simulate(plan)
    assert run.dependency_misses == 0
    assert all(step.evicted_element_ids == () for step in run.steps)


def test_step_accounting():
    conv = _conversation({"a": 7, "b": 9}, ust=5)
    plan = _manual_plan(conv, [["a"], ["b"]], ModelSpec("m", 1000, 1000), inst=3)
    run = simulate(plan)
    assert run.steps[0].tokens_in == 5 + 3 + 7  # statement + instructions + element
    assert run.steps[0].tokens_out == 7
    assert run.steps[1].tokens_in == 3 + 9
    assert run.steps[1].tokens_out == 9


def test_oversized_piece_reported_or_raised(naive_plan):
    run = simulate(naive_plan, context_window=1000)
    assert run.oversized_piece_indices == (0,)
    with pytest.raises(PieceExceedsWindow, match="piece 1"):
        simulate(naive_plan, context_window=1000, strict=True)


def test_simulation_is_deterministic(reference_plan):
    assert simulate(reference_plan, context_window=4000) == simulate(
        reference_plan, context_window=4000
    )


def test_window_must_be_positive(naive_plan):
    with pytest.raises(ValueError):
        simulate(naive_plan, context_window=0)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def test_compare_fixture_runs(naive_plan, reference_plan):
    naive_run = simulate(naive_plan, context_window=4000)
    ref_run = simulate(reference_plan, context_window=4000)
    deltas = {d.metric: d for d in compare(naive_run, ref_run)}
    assert set(deltas) == {"dependency_misses", "lost_tokens", "output_overflow_tokens"}
    for d in deltas.values():
        assert d.verdict == "improved"
        assert d.delta == d.candidate - d.baseline < 0


def test_compare_identical_runs(reference_plan):
    run = simulate(reference_plan, context_window=4000)
    for d in compare(run, run):
        assert d.verdict == "equal"
        assert d.delta == 0


def test_compare_flags_regressions():
    # sending filler between provider and consumer evicts the provider
    conv = _conversation({"p": 50, "x": 40, "c": 60}, {"c": ("p",)})
    spec = ModelSpec("m", 250, 250)
    good = _manual_plan(conv, [["p"], ["c"], ["x"]], spec)
    bad = _manual_plan(conv, [["p"], ["x"], ["c"]], spec)
    assert simulate(good).dependency_misses == 0
    deltas = {d.metric: d for d in compare(simulate(good), simulate(bad))}
    assert deltas["dependency_misses"].verdict == "worse"
    assert deltas["dependency_misses"].candidate == 1


def test_compare_rejects_mismatched_windows(reference_plan):
    a = simulate(reference_plan, context_window=4000)
    b = simulate(reference_plan, context_window=8000)
    with pytest.raises(SpecMismatch):
        compare(a, b)


# ---------------------------------------------------------------------------
# oracle equivalence on random plans
# ---------------------------------------------------------------------------


@st.composite
def random_plan(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    ids = [f"e{i}" for i in range(n)]
    counts = {e: draw(st.integers(min_value=1, max_value=40)) for e in ids}
    deps = {
        ids[i]: tuple(ids[j] for j in range(i) if draw(st.booleans()))
        for i in range(n)
    }
    ust = draw(st.integers(min_value=0, max_value=20))
    conv = _conversation(counts, deps, ust=ust)
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1))) if n > 1 else [])
    bounds = [0, *cuts, n]
    piece_ids = [ids[a:b] for a, b in zip(bounds, bounds[1:])]
    inst = draw(st.integers(min_value=0, max_value=10))
    spec = ModelSpec("m", 10 **6, 10 **6)
    return _manual_plan(conv, piece_ids, spec, inst=inst)


@given(random_plan(), st.integers(min_value=10, max_value=400))
@settings(max_examples=80)
def test_simulate_matches_list_oracle(plan, cw):
    run = simulate(plan, context_window=cw)
    assert (run.dependency_misses, run.lost_tokens) == fifo_oracle(plan, cw)


@given(random_plan())
@settings(max_examples=40)
def test_huge_window_never_misses(plan):
    run = simulate(plan, context_window=10 **9)
    assert run.dependency_misses == 0
    assert run.output_overflow_tokens == 0
