import dataclasses
import json
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsmplan import planning
from dsmplan.clustering import ClusterParams
from dsmplan.errors import SpecMismatch
from dsmplan.dsm import build_dsm
from dsmplan.manifest import ConversationElement, ConversationModel, parse_manifest
from dsmplan.planning import (
    BudgetConfig,
    ConversationPiece,
    ConversationPlan,
    ModelSpec,
    output_budget,
    plan_conversation,
    window_budget,
)
from dsmplan.simulator import SimulationReport, SimulationStep, compare, loss_curve, simulate


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


def fifo_replay(plan: ConversationPlan, cw: int) -> SimulationReport:
    """The whole report from an entry-by-entry deque replay of the window."""
    counts = plan.conversation.token_counts()
    deps = plan.conversation.dependencies()
    inst = plan.config.instructions_per_piece
    ust = plan.conversation.user_statement_tokens

    window: deque[tuple[str, str, int]] = deque()  # (kind, id, tokens)
    window_tokens = 0
    in_window: set[str] = set()
    sent: set[str] = set()

    steps: list[SimulationStep] = []
    missed_pairs: list[tuple[str, str]] = []
    not_yet_sent: list[tuple[str, str]] = []
    lost_tokens = 0
    overflow = 0
    oversized: list[int] = []

    def evict_one(evicted: list[str]) -> None:
        nonlocal window_tokens
        kind, entry_id, tokens = window.popleft()
        window_tokens -= tokens
        if kind == "element":
            in_window.discard(entry_id)
            evicted.append(entry_id)

    for k, piece in enumerate(plan.pieces):
        entries: list[tuple[str, str, int]] = []
        if piece.includes_user_statement and ust > 0:
            entries.append(("user", "user-statement", ust))
        if inst > 0:
            entries.append(("instructions", f"instructions-{k + 1}", inst))
        for element_id in piece.element_ids:
            entries.append(("element", element_id, counts[element_id]))
        if piece.fm_tokens > 0:
            entries.append(("reply", f"reply-{k + 1}", piece.fm_tokens))
        incoming = sum(tokens for _, _, tokens in entries)

        if incoming > cw:
            oversized.append(k)

        evicted: list[str] = []
        while window and window_tokens + incoming > cw:
            evict_one(evicted)
        for entry in entries:
            window.append(entry)
            window_tokens += entry[2]
            if entry[0] == "element":
                in_window.add(entry[1])
                sent.add(entry[1])
        while window_tokens > cw:
            evict_one(evicted)

        for element_id in piece.element_ids:
            for provider in deps[element_id]:
                if provider in sent and provider not in in_window:
                    missed_pairs.append((element_id, provider))
                    lost_tokens += counts[provider]
                elif provider not in sent:
                    not_yet_sent.append((element_id, provider))

        steps.append(
            SimulationStep(
                piece_index=k,
                tokens_in=incoming - piece.fm_tokens,
                tokens_out=piece.fm_tokens,
                evicted_element_ids=tuple(evicted),
            )
        )
        overflow += max(
            0, output_budget(piece, plan.config, plan.model).ob - plan.model.max_output_tokens
        )

    return SimulationReport(
        model_name=plan.model.name,
        context_window=cw,
        max_output_tokens=plan.model.max_output_tokens,
        steps=tuple(steps),
        dependency_misses=len(missed_pairs),
        # a provider first sent in a later piece
        early_dependencies=sum(provider in sent for _, provider in not_yet_sent),
        lost_tokens=lost_tokens,
        output_overflow_tokens=overflow,
        missed_pairs=tuple(missed_pairs),
        oversized_piece_indices=tuple(oversized),
    )


def assert_matches_replay(plan: ConversationPlan, cw: int) -> SimulationReport:
    """``simulate`` gives the replay's report."""
    run = simulate(plan, context_window=cw)
    assert run == fifo_replay(plan, cw)
    return run


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
    return ConversationPlan(tuple(map(tuple, piece_ids)), spec, config, conv)


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


def dependency_needs(plan: ConversationPlan) -> dict[tuple[str, str], int]:
    """Per (consumer, provider) sent no later than the consumer's piece: the
    tokens from the provider's entry through the end of the consumer's piece,
    reply included."""
    counts = plan.conversation.token_counts()
    deps = plan.conversation.dependencies()
    start: dict[str, int] = {}
    needs = {}
    offset = 0
    for piece in plan.pieces:
        if piece.includes_user_statement:
            offset += plan.conversation.user_statement_tokens
        offset += plan.config.instructions_per_piece
        for element_id in piece.element_ids:
            start[element_id] = offset
            offset += counts[element_id]
        offset += piece.fm_tokens
        for element_id in piece.element_ids:
            for provider in deps[element_id]:
                if provider in start:
                    needs[element_id, provider] = offset - start[provider]
    return needs


@pytest.mark.parametrize("which", ["naive_plan", "reference_plan"])
def test_each_dependency_is_lost_exactly_below_its_need(which, request):
    plan = request.getfixturevalue(which)
    needs = dependency_needs(plan)
    windows = sorted({cw for need in needs.values() for cw in (need - 1, need) if cw > 0})
    runs = {cw: assert_matches_replay(plan, cw) for cw in windows}
    for pair, need in needs.items():
        assert pair not in runs[need].missed_pairs
        if need > 1:
            assert pair in runs[need - 1].missed_pairs
    misses = [runs[cw].dependency_misses for cw in windows]
    lost = [runs[cw].lost_tokens for cw in windows]
    assert misses == sorted(misses, reverse=True) and lost == sorted(lost, reverse=True)


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


def test_step_is_built_by_keyword_or_position():
    by_keyword = SimulationStep(piece_index=1, tokens_in=12, tokens_out=9, evicted_element_ids=("a",))
    assert by_keyword == SimulationStep(1, 12, 9, ("a",))
    assert SimulationStep._fields == ("piece_index", "tokens_in", "tokens_out", "evicted_element_ids")
    assert by_keyword._replace(tokens_in=3) == SimulationStep(1, 3, 9, ("a",))


def test_step_is_immutable(reference_plan):
    step = simulate(reference_plan, context_window=4000).steps[1]
    with pytest.raises(AttributeError):
        step.tokens_in = 0
    with pytest.raises(AttributeError):
        step.extra = 0


def test_report_is_hashable(reference_plan):
    runs = [simulate(reference_plan, context_window=cw) for cw in (4000, 4000, 8000)]
    assert hash(runs[0]) == hash(runs[1])
    assert len({runs[0], runs[1], runs[2]}) == 2


def test_step_repr(reference_plan):
    # the repr of the frozen dataclass that SimulationStep used to be
    steps = simulate(reference_plan, context_window=4000).steps
    assert repr(steps[0]) == "SimulationStep(piece_index=0, tokens_in=712, tokens_out=462, evicted_element_ids=())"
    assert repr(steps[2]) == (
        "SimulationStep(piece_index=2, tokens_in=3632, tokens_out=3582, evicted_element_ids=('D', 'E', 'I'))"
    )


def test_early_pairs_name_consumers_sent_ahead_of_their_provider(spacecraft, mistral):
    # the coupled group {F, H} split across pieces 2 and 3: F is answered without H
    split = [["A", "B"], ["C", "G", "F"], ["H"], ["D", "E", "I", "J", "L", "K"], ["M"]]
    plan = _manual_plan(spacecraft, split, mistral)
    assert plan._layout.early_pairs == (("F", "H"),)
    assert {simulate(plan, context_window=cw).early_dependencies for cw in (4000, 32000)} == {1}
    whole = _manual_plan(spacecraft, [["A", "B"], ["C", "G", "F", "H"], *split[3:]], mistral)
    assert whole._layout.early_pairs == ()


def test_a_provider_never_sent_is_no_early_pair():
    conv = _conversation({"a": 5, "b": 5, "c": 5}, {"b": ("a", "c")})
    plan = _manual_plan(conv, [["b"], ["c"]], ModelSpec("m", 1000, 1000))
    assert plan._layout.early_pairs == (("b", "c"),)
    assert simulate(plan).early_dependencies == 1


@pytest.mark.parametrize(
    "piece_ids,message",
    [
        ([["a"], ["b"], ["a"], ["c"]], "'a' a second time"),
        ([["a"], ["z"]], "'z', which is not in the conversation"),
    ],
)
def test_malformed_plan_is_rejected(piece_ids, message):
    conv = _conversation({"a": 10, "b": 10, "c": 10}, {"c": ("a",)})
    with pytest.raises(ValueError, match=message):
        ConversationPlan(tuple(map(tuple, piece_ids)), ModelSpec("m", 1000, 1000), BudgetConfig(margin=0.0), conv)


def test_oversized_piece_reported_or_raised(naive_plan):
    # reported, never raised: the piece is run and evicts its own earliest entries
    run = simulate(naive_plan, context_window=1000)
    assert run.oversized_piece_indices == (0,)
    assert run == fifo_replay(naive_plan, 1000)


def test_simulation_is_deterministic(reference_plan):
    assert simulate(reference_plan, context_window=4000) == simulate(
        reference_plan, context_window=4000
    )


def test_window_must_be_positive(naive_plan):
    with pytest.raises(ValueError):
        simulate(naive_plan, context_window=0)


@pytest.mark.parametrize("window", [4000.5, True, "32000"])
def test_window_must_be_an_integer(naive_plan, window):
    # True is no window of 1 token
    with pytest.raises(ValueError, match=f"context_window must be an integer, not {window!r}"):
        simulate(naive_plan, context_window=window)


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


@st.composite
def any_order_plan(draw):
    """Elements in any order, dependencies in both directions (feedback
    included), zero-token elements, replies at any FM ratio, and margins and
    output limits under which some replies overflow."""
    n = draw(st.integers(min_value=1, max_value=8))
    ids = [f"e{i}" for i in range(n)]
    counts = {e: draw(st.integers(min_value=0, max_value=40)) for e in ids}
    deps = {e: tuple(d for d in ids if d != e and draw(st.booleans())) for e in ids}
    conv = _conversation(counts, deps, ust=draw(st.integers(min_value=0, max_value=20)))
    order = draw(st.permutations(ids))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1))) if n > 1 else [])
    bounds = [0, *cuts, n]
    config = BudgetConfig(
        margin=draw(st.sampled_from([0.0, 0.05, 0.1])),
        fm_ratio=draw(st.sampled_from([0.1, 0.5, 1.0, 1.5])),
        instructions_per_piece=draw(st.integers(min_value=0, max_value=10)),
    )
    piece_ids = tuple(tuple(order[a:b]) for a, b in zip(bounds, bounds[1:]))
    # a small OL, so some replies overflow it
    spec = ModelSpec("m", 10**6, draw(st.integers(min_value=1, max_value=60)))
    return ConversationPlan(piece_ids, spec, config, conv)


def _entry_tokens(plan: ConversationPlan, piece: ConversationPiece) -> int:
    """Everything the piece puts in the window: statement, instructions, elements, reply."""
    counts = plan.conversation.token_counts()
    ust = plan.conversation.user_statement_tokens if piece.includes_user_statement else 0
    return ust + plan.config.instructions_per_piece + sum(counts[e] for e in piece.element_ids) + piece.fm_tokens


@given(any_order_plan(), st.integers(min_value=1, max_value=300))
@settings(max_examples=150)
def test_simulation_conserves_tokens(plan, cw):
    run = simulate(plan, context_window=cw)
    counts = plan.conversation.token_counts()
    sent: set[str] = set()
    evicted: list[str] = []
    for piece, step in zip(plan.pieces, run.steps, strict=True):
        assert step.tokens_in + step.tokens_out == _entry_tokens(plan, piece)
        sent.update(piece.element_ids)
        assert set(step.evicted_element_ids) <= sent  # nothing leaves before it arrived
        evicted.extend(step.evicted_element_ids)
    assert len(evicted) == len(set(evicted))  # each element leaves the window at most once
    assert run.dependency_misses == len(run.missed_pairs)
    assert run.lost_tokens == sum(counts[provider] for _, provider in run.missed_pairs)

    whole = sum(_entry_tokens(plan, piece) for piece in plan.pieces)
    roomy = simulate(plan, context_window=max(whole, 1))
    assert all(step.evicted_element_ids == () for step in roomy.steps)
    assert (roomy.dependency_misses, roomy.lost_tokens, roomy.missed_pairs) == (0, 0, ())


# any_order_plan's stream is at most 904 tokens: USt 20, IntLLM 8 * 10, the
# elements 8 * 40, and replies at FM ratio 1.5 at most 1.5 * 320 + 8 halves; so
# the windows reach past the whole stream, where nothing is evicted
@given(any_order_plan(), st.one_of(st.integers(min_value=1, max_value=1200), st.just(10**9)))
@settings(max_examples=300)
def test_simulate_matches_fifo_replay(plan, cw):
    assert_matches_replay(plan, cw)


# ---------------------------------------------------------------------------
# the loss curve
# ---------------------------------------------------------------------------


@given(any_order_plan())
@settings(max_examples=150)
def test_loss_curve_matches_needs_and_replay(plan):
    curve = loss_curve(plan)
    counts = plan.conversation.token_counts()
    needs = dependency_needs(plan)
    assert list(curve.needs) == sorted(curve.needs)
    assert Counter(curve.needs) == Counter(needs.values())
    assert Counter(zip(curve.needs, curve.provider_tokens)) == Counter(
        (need, counts[provider]) for (_, provider), need in needs.items()
    )
    for cw in {w for need in needs.values() for w in (need, need - 1) if w > 0}:
        run = assert_matches_replay(plan, cw)
        assert curve.at(cw) == (run.dependency_misses, run.lost_tokens)
    window = curve.lossless_window
    assert curve.at(max(window, 1)) == (0, 0)
    if window > 1:
        assert curve.at(window - 1)[0] > 0
    assert window == max(needs.values(), default=0)


@given(any_order_plan())
@settings(max_examples=150)
def test_window_budget_at_margin_0_is_the_whole_stream(plan):
    # WB charges USt once and the stream with the first piece: the first-piece rule keeps them equal
    plan = dataclasses.replace(plan, config=dataclasses.replace(plan.config, margin=0.0))
    assert window_budget(plan)[0] == plan._layout.piece_ends[-1]


def test_annealed_spacecraft_plan_loses_nothing_from_19494_tokens(spacecraft, mistral):
    config = BudgetConfig(margin=0.05, instructions_per_piece=spacecraft.instruction_tokens)
    _, _, plan = plan_conversation(spacecraft, ClusterParams(seed=42), config, mistral)
    curve = loss_curve(plan)
    assert curve.lossless_window == 19494
    assert simulate(plan, context_window=19494).dependency_misses == 0
    assert simulate(plan, context_window=19493).dependency_misses > 0


def test_loss_curve_window_must_be_positive(reference_plan):
    with pytest.raises(ValueError):
        loss_curve(reference_plan).at(0)


@pytest.mark.parametrize("window", [4000.5, True])
def test_loss_curve_window_must_be_an_integer(reference_plan, window):
    with pytest.raises(ValueError, match=f"context_window must be an integer, not {window!r}"):
        loss_curve(reference_plan).at(window)


# ---------------------------------------------------------------------------
# the cached layout
# ---------------------------------------------------------------------------


@given(any_order_plan(), st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=8))
@settings(max_examples=100)
def test_cached_plan_runs_like_a_fresh_one_at_every_window(plan, windows):
    for cw in windows:
        assert simulate(plan, context_window=cw) == simulate(dataclasses.replace(plan), context_window=cw)


def test_cache_is_invisible_to_eq_hash_and_repr(reference_plan):
    plan = dataclasses.replace(reference_plan)
    before = (repr(plan), hash(plan))
    simulate(plan, context_window=4000)
    loss_curve(plan)
    assert (repr(plan), hash(plan)) == before
    assert plan == reference_plan == dataclasses.replace(plan)


def test_a_sweep_lays_the_plan_out_once(reference_plan, monkeypatch):
    calls = []

    def counted(plan):
        calls.append(plan)
        return lay_out(plan)

    lay_out = planning.lay_out
    monkeypatch.setattr(planning, "lay_out", counted)
    plan = dataclasses.replace(reference_plan)
    for cw in (4000, 8000, 16000, 32000):
        simulate(plan, context_window=cw)
    loss_curve(plan)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "piece_ids,message",
    [
        # a large piece before the fault, at it, or after it changes nothing: no window is involved
        pytest.param([["big"], ["a"], ["z"]], "piece 3 names 'z', which is not in the conversation", id="big-before-unknown"),
        pytest.param([["big"], ["a"], ["a"]], "piece 3 sends 'a' a second time", id="big-before-resent"),
        pytest.param([["big", "a", "a"]], "piece 1 sends 'a' a second time", id="big-at-resent"),
        pytest.param([["a"], ["big", "z"]], "piece 2 names 'z', which is not in the conversation", id="big-at-unknown"),
        pytest.param([["a"], ["z"], ["big"]], "piece 2 names 'z', which is not in the conversation", id="big-after-unknown"),
    ],
)
def test_first_fault_in_piece_order_decides_the_error(piece_ids, message):
    with pytest.raises(ValueError) as raised:
        _faulty_plan(piece_ids)
    assert str(raised.value) == message


def test_replace_cannot_send_an_element_twice(reference_plan):
    first = reference_plan.piece_ids[0]
    with pytest.raises(ValueError) as raised:
        dataclasses.replace(reference_plan, piece_ids=(*reference_plan.piece_ids, first))
    assert str(raised.value) == f"piece {len(reference_plan.piece_ids) + 1} sends {first[0]!r} a second time"


def _faulty_plan(piece_ids) -> ConversationPlan:
    """A plan over elements "a" (10 tokens) and "big" (500) that may send an
    unknown "z" or an element twice."""
    conv = _conversation({"a": 10, "big": 500})
    return ConversationPlan(tuple(map(tuple, piece_ids)), ModelSpec("m", 1000, 1000), BudgetConfig(margin=0.0), conv)
