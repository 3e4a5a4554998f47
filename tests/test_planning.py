import math
from collections import Counter
from decimal import ROUND_CEILING, ROUND_HALF_UP, Decimal
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsmplan.clustering import ClusterParams, assignment_from_groups
from dsmplan.dsm import build_dsm
from dsmplan.errors import DuplicateModelName, ParseError, UnknownModel, UnsplittablePiece
from dsmplan.manifest import ConversationElement, ConversationModel
from dsmplan.planning import (
    BudgetConfig,
    ConversationPiece,
    ConversationPlan,
    ModelSpec,
    budget_report,
    default_model_catalog,
    find_model,
    literal_plan,
    load_model_catalog,
    make_naive_plan,
    make_pieces,
    max_filled_tokens,
    max_piece_tokens,
    output_budget,
    plan_conversation,
    window_budget,
    _filled_tokens,
    _inflate,
)
from dsmplan.sequencing import sequence

from conftest import REFERENCE_GROUPS
from oracles import run_then_split

_MARGINS = [0.0, 0.05, 0.1, 0.15, 0.33, 0.5]


def ceil_inflate_oracle(tokens: int, margin: float) -> int:
    value = Decimal(tokens) * (1 + Decimal(str(margin)))
    return int(value.to_integral_value(rounding=ROUND_CEILING))


def round_half_up_oracle(tokens: int, ratio: float) -> int:
    value = (Decimal(tokens) * Decimal(str(ratio))).quantize(Decimal(1), rounding=ROUND_HALF_UP)
    return int(value)


def _conversation(counts: dict[str, int], deps: dict[str, tuple[str, ...]] | None = None):
    deps = deps or {}
    elements = tuple(
        ConversationElement(id=k, label=k, token_count=v, dependencies=tuple(deps.get(k, ())))
        for k, v in counts.items()
    )
    return ConversationModel(elements=elements)


# ---------------------------------------------------------------------------
# budget arithmetic
# ---------------------------------------------------------------------------


def _piece_of(fm: int) -> ConversationPiece:
    return ConversationPiece(element_ids=("x",), gm_tokens=fm, fm_tokens=fm)


def test_margin_is_exact_decimal():
    # a float 1.05 would push 20*1.05 a whisker over 21 and ceil to 22
    spec = ModelSpec("m", 100, 100)
    assert output_budget(_piece_of(20), BudgetConfig(margin=0.05), spec).ob == 21


def test_zero_margin_is_identity():
    spec = ModelSpec("m", 10000, 10000)
    for fm in (0, 1, 16, 9619):
        assert output_budget(_piece_of(fm), BudgetConfig(margin=0.0), spec).ob == fm


@given(st.integers(min_value=0, max_value=100000), st.sampled_from(_MARGINS))
def test_output_budget_matches_decimal_oracle(fm, margin):
    spec = ModelSpec("m", 10 **6, 10 **6)
    assert output_budget(_piece_of(fm), BudgetConfig(margin=margin), spec).ob == ceil_inflate_oracle(
        fm, margin
    )


@given(
    st.integers(min_value=0, max_value=10000),
    st.integers(min_value=0, max_value=200),
    st.sampled_from(_MARGINS),
)
def test_output_budget_is_monotone(fm, bump, margin):
    spec = ModelSpec("m", 10 **6, 10 **6)
    config = BudgetConfig(margin=margin)
    assert output_budget(_piece_of(fm + bump), config, spec).ob >= output_budget(
        _piece_of(fm), config, spec
    ).ob


@given(st.integers(min_value=0, max_value=10000), st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.3, 2.0]))
def test_fm_rounding_is_half_up(gm, ratio):
    spec = ModelSpec("m", 10 **9, 10 **9)
    plan = literal_plan([gm], BudgetConfig(fm_ratio=ratio), spec)
    assert plan.pieces[0].fm_tokens == round_half_up_oracle(gm, ratio)


def test_fm_half_exactly_rounds_up():
    spec = ModelSpec("m", 10 **6, 10 **6)
    plan = literal_plan([3], BudgetConfig(fm_ratio=0.5), spec)
    assert plan.pieces[0].fm_tokens == 2  # 1.5 -> 2, not banker's


# decimals as a caller writes them: up to six places, margins in [0, 1), ratios in (0, 10]
_DECIMAL_MARGINS = st.integers(0, 10**6 - 1).map(lambda k: k / 10**6)
_DECIMAL_RATIOS = st.integers(1, 10**7).map(lambda k: k / 10**6)


@given(st.integers(0, 10**9), _DECIMAL_MARGINS | st.floats(0, 1, exclude_max=True))
@example(20, 0.05)
def test_integer_inflate_is_the_fraction_form(tokens, margin):
    exact = 1 + Fraction(str(margin))
    assert _inflate(tokens, margin) == math.ceil(tokens * exact)
    spec = ModelSpec("m", 10**9, max(tokens, 1))
    assert max_filled_tokens(BudgetConfig(margin=margin), spec) == math.floor(spec.max_output_tokens / exact)


@given(st.integers(0, 10**9), _DECIMAL_MARGINS)
def test_integer_inflate_matches_decimal_oracle(tokens, margin):
    assert _inflate(tokens, margin) == ceil_inflate_oracle(tokens, margin)


@given(st.integers(0, 10**9), _DECIMAL_RATIOS | st.floats(0, 10, exclude_min=True))
@example(3, 0.5)  # the half-way cases round up
@example(1, 0.5)
@example(2, 0.25)
@example(5, 0.1)
@example(10**9 - 1, 0.5)
def test_integer_filled_tokens_is_the_fraction_form(gm, ratio):
    assert _filled_tokens(gm, ratio) == math.floor(gm * Fraction(str(ratio)) + Fraction(1, 2))


@given(st.integers(0, 10**9), _DECIMAL_RATIOS)
@example(3, 0.5)
@example(5, 0.1)
def test_integer_filled_tokens_matches_decimal_oracle(gm, ratio):
    assert _filled_tokens(gm, ratio) == round_half_up_oracle(gm, ratio)


def test_max_piece_tokens():
    spec = ModelSpec("m", 32000, 8192)
    assert max_piece_tokens(BudgetConfig(margin=0.05), spec) == 7801  # floor(8192/1.05)
    assert max_piece_tokens(BudgetConfig(margin=0.0), spec) == 8192
    spec = ModelSpec("m", 10**6, 1000)
    caps = [max_piece_tokens(BudgetConfig(margin=0.05, fm_ratio=r), spec) for r in (0.5, 1.0, 2.0)]
    assert caps == [1904, 952, 476]  # largest GM rounding to FM <= floor(1000/1.05)


@given(
    st.integers(min_value=1, max_value=300),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.25, max_value=4.0),
)
def test_max_piece_tokens_is_the_largest_gm_that_fits(ol, margin, fm_ratio):
    spec = ModelSpec("m", 10**6, ol)
    config = BudgetConfig(margin=margin, fm_ratio=fm_ratio)

    def fits(gm: int) -> bool:
        piece = ConversationPiece(("x",), gm, round_half_up_oracle(gm, fm_ratio))
        return output_budget(piece, config, spec).ob <= ol

    # GM above (OL + 1/2) / fm has FM > OL, so no GM past this bound can fit
    bound = int((ol + 1) / fm_ratio) + 2
    assert max_piece_tokens(config, spec) == max(gm for gm in range(bound) if fits(gm))


def test_element_within_an_fm_scaled_budget_is_planned():
    # at fm_ratio 0.5 a 1000-token element fills 500 tokens, OB 525 <= OL 1000
    conv = _conversation({"big": 1000})
    config = BudgetConfig(margin=0.05, fm_ratio=0.5)
    _, _, plan = plan_conversation(conv, ClusterParams(), config, ModelSpec("m", 10**6, 1000))
    assert [p.element_ids for p in plan.pieces] == [("big",)]
    report = budget_report(plan)
    assert report.feasible and report.piece_budgets[0].ob == 525


def test_clusters_fit_one_piece_when_fm_ratio_exceeds_one():
    # ten 100-token elements in one dependency cycle pull toward large clusters;
    # at fm_ratio 2 each piece may hold 476 generic tokens, so no cluster may
    # grow past four elements and none needs splitting after the search
    ids = [f"e{k}" for k in range(10)]
    conv = _conversation({e: 100 for e in ids}, {e: (ids[k - 1],) for k, e in enumerate(ids)})
    config = BudgetConfig(margin=0.05, fm_ratio=2.0)
    params = ClusterParams(alpha=0.01, seed=3)
    seq, clusters, plan = plan_conversation(conv, params, config, ModelSpec("m", 10**6, 1000))
    sizes = Counter(clusters.cluster_of.values())
    runs = [
        key
        for key, _ in groupby(
            seq.sequenced_ids(),
            lambda e: clusters.cluster_of[e] if sizes[clusters.cluster_of[e]] > 1 else None,
        )
    ]
    assert max(sizes.values()) > 1
    assert len(plan.pieces) == len(runs)
    assert budget_report(plan).feasible


def test_window_budget_charges_instructions_per_piece(mistral):
    config = BudgetConfig(margin=0.0, instructions_per_piece=7)
    two = literal_plan([10, 20], config, mistral, ust_tokens=5)
    wb, headroom = window_budget(two)
    assert wb == 5 + 2 * 7 + (10 + 20) * 2
    assert headroom == mistral.context_window - wb


def test_empty_plan_is_feasible(mistral):
    report = budget_report(literal_plan([], BudgetConfig(), mistral))
    assert report.wb == 0
    assert report.cw_headroom == mistral.context_window
    assert report.feasible


# ---------------------------------------------------------------------------
# frozen fixture values
# ---------------------------------------------------------------------------


def test_reference_plan_pieces_match_frozen(reference_plan, expected):
    want = expected["pieces"]
    assert [list(p.element_ids) for p in reference_plan.pieces] == want["element_ids"]
    assert [p.gm_tokens for p in reference_plan.pieces] == want["gm_tokens"]
    assert reference_plan.pieces[0].gm_tokens == want["first_piece_gm"]
    assert reference_plan.pieces[0].includes_user_statement
    assert not any(p.includes_user_statement for p in reference_plan.pieces[1:])


def test_reference_plan_budget_matches_frozen(reference_plan, expected):
    want = expected["reference_plan_budget"]
    report = budget_report(reference_plan)
    assert [b.ob for b in report.piece_budgets] == want["ob"]
    assert [b.ol_headroom for b in report.piece_budgets] == want["ol_headroom"]
    assert report.wb == want["wb"]
    assert report.cw_headroom == want["cw_headroom"]
    assert report.feasible is want["feasible"]


def test_naive_plan_budget_matches_frozen(naive_plan, expected):
    want = expected["naive_budget"]
    report = budget_report(naive_plan)
    assert len(report.piece_budgets) == 1
    assert report.piece_budgets[0].ob == want["ob"]
    assert report.piece_budgets[0].ol_headroom == want["ol_headroom"]
    assert report.wb == want["wb"]
    assert report.cw_headroom == want["cw_headroom"]
    assert report.feasible is want["feasible"]


def test_literal_fm_budget_matches_frozen(mistral, expected):
    want = expected["final_budget_fixture"]
    config = BudgetConfig(
        margin=want["margin"], instructions_per_piece=want["instructions_per_piece"]
    )
    plan = literal_plan(want["fm_tokens"], config, mistral, ust_tokens=want["ust_tokens"])
    report = budget_report(plan)
    assert [b.ob for b in report.piece_budgets] == want["ob"]
    assert [b.ol_headroom for b in report.piece_budgets] == want["ol_headroom"]
    assert report.wb == want["computed_wb"]
    assert report.cw_headroom == want["computed_cw_headroom"]


def test_single_piece_budget_matches_frozen(mistral, expected):
    want = expected["initial_budget_fixture"]
    # this reference table mixes margins: none on the output side, 10% on the window
    flat = BudgetConfig(
        margin=want["ob_margin"], instructions_per_piece=want["instructions_per_piece"]
    )
    plan = literal_plan(want["fm_tokens"], flat, mistral, ust_tokens=want["ust_tokens"])
    report = budget_report(plan)
    assert report.piece_budgets[0].ob == want["ob"]
    assert report.piece_budgets[0].ol_headroom == want["ol_headroom"]
    assert report.wb == want["window_sum"]
    assert not report.feasible  # output side overflows

    inflated = BudgetConfig(
        margin=want["wb_margin"], instructions_per_piece=want["instructions_per_piece"]
    )
    wb, _ = window_budget(literal_plan(want["fm_tokens"], inflated, mistral, ust_tokens=want["ust_tokens"]))
    assert wb == want["wb"]
    assert abs(wb - want["wb_recorded"]) <= want["wb_tolerance"]


# ---------------------------------------------------------------------------
# piece construction
# ---------------------------------------------------------------------------


def test_single_unclustered_run_merges_into_one_piece():
    conv = _conversation({"a": 5, "b": 5, "c": 5}, {"b": ("a",), "c": ("b",)})
    d = build_dsm(conv.elements)
    clusters = assignment_from_groups(d, [["a"], ["b"], ["c"]])
    plan = make_pieces(conv, sequence(d), clusters, BudgetConfig(margin=0.0), ModelSpec("m", 1000, 1000))
    assert [list(p.element_ids) for p in plan.pieces] == [["a", "b", "c"]]


def test_cluster_boundaries_cut_pieces():
    conv = _conversation({"a": 5, "b": 5, "c": 5, "d": 5}, {"b": ("a",), "c": ("b",), "d": ("c",)})
    d = build_dsm(conv.elements)
    clusters = assignment_from_groups(d, [["a"], ["b", "c"], ["d"]])
    plan = make_pieces(conv, sequence(d), clusters, BudgetConfig(margin=0.0), ModelSpec("m", 1000, 1000))
    assert [list(p.element_ids) for p in plan.pieces] == [["a"], ["b", "c"], ["d"]]


def test_oversized_singleton_run_is_split_greedily():
    conv = _conversation({"x1": 30, "x2": 30, "x3": 30, "x4": 30})
    d = build_dsm(conv.elements)
    clusters = assignment_from_groups(d, [["x1"], ["x2"], ["x3"], ["x4"]])
    plan = make_pieces(conv, sequence(d), clusters, BudgetConfig(margin=0.0), ModelSpec("m", 1000, 63))
    assert [list(p.element_ids) for p in plan.pieces] == [["x1", "x2"], ["x3", "x4"]]


def test_oversized_cluster_is_split_at_element_boundaries():
    conv = _conversation({"a": 40, "b": 40, "c": 40}, {"b": ("a",), "c": ("a", "b")})
    d = build_dsm(conv.elements)
    clusters = assignment_from_groups(d, [["a", "b", "c"]])
    plan = make_pieces(conv, sequence(d), clusters, BudgetConfig(margin=0.0), ModelSpec("m", 1000, 63))
    assert [list(p.element_ids) for p in plan.pieces] == [["a"], ["b"], ["c"]]


def test_unsplittable_element_rejected():
    conv = _conversation({"big": 100})
    d = build_dsm(conv.elements)
    clusters = assignment_from_groups(d, [["big"]])
    with pytest.raises(UnsplittablePiece):
        make_pieces(conv, sequence(d), clusters, BudgetConfig(margin=0.0), ModelSpec("m", 1000, 63))
    with pytest.raises(UnsplittablePiece):
        plan_conversation(conv, ClusterParams(), BudgetConfig(margin=0.0), ModelSpec("m", 1000, 63))


def test_make_pieces_requires_matching_element_sets(spacecraft, spacecraft_dsm, mistral):
    seq = sequence(spacecraft_dsm)
    sub = build_dsm(spacecraft.elements[:3])
    clusters = assignment_from_groups(sub, [["A"], ["B"], ["C"]])
    with pytest.raises(ValueError):
        make_pieces(spacecraft, seq, clusters, BudgetConfig(), mistral)


def test_make_pieces_reads_the_counts_once(spacecraft, spacecraft_dsm, mistral, fixture_config, monkeypatch):
    calls = []
    token_counts = ConversationModel.token_counts
    monkeypatch.setattr(ConversationModel, "token_counts", lambda self: calls.append(self) or token_counts(self))
    clusters = assignment_from_groups(spacecraft_dsm, REFERENCE_GROUPS)
    make_pieces(spacecraft, sequence(spacecraft_dsm), clusters, fixture_config, mistral)
    assert calls == [spacecraft]


@pytest.mark.parametrize(
    "ol,want",
    [
        (1000, [["a", "b", "c"], ["d"]]),  # the group joins its first member's piece
        (10, [["a"], ["b", "c"], ["d"]]),  # the group fits, but not beside a
        (9, [["a"], ["b"], ["c"], ["d"]]),  # above the cap: cut element by element
    ],
)
def test_coupled_group_fitting_the_cap_stays_in_one_piece(ol, want):
    # b and c depend on each other, and the clusters part them
    conv = _conversation({"a": 5, "b": 5, "c": 5, "d": 5}, {"b": ("a", "c"), "c": ("b",), "d": ("c",)})
    d = build_dsm(conv.elements)
    clusters = assignment_from_groups(d, [["a", "b"], ["c", "d"]])
    plan = make_pieces(conv, sequence(d), clusters, BudgetConfig(margin=0.0), ModelSpec("m", 1000, ol))
    assert [list(p.element_ids) for p in plan.pieces] == want


@st.composite
def coupled_conversations(draw, max_n=10):
    """A conversation whose dependencies run both ways, so sequencing finds
    coupled groups, with counts of up to 40 tokens (zero included)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    ids = [f"e{k}" for k in range(n)]
    counts = {e: draw(st.integers(min_value=0, max_value=40)) for e in ids}
    deps = {
        e: tuple(d for d in draw(st.lists(st.sampled_from(ids), max_size=4, unique=True)) if d != e)
        for e in ids
    }
    return _conversation(counts, deps)


def _within(groups, pieces) -> bool:
    """Every group lies inside one piece."""
    piece_of = {e: k for k, piece in enumerate(pieces) for e in piece}
    return all(len({piece_of[e] for e in group}) == 1 for group in groups)


@given(coupled_conversations(), st.data())
@settings(max_examples=300, deadline=None)
def test_walk_matches_run_then_split_when_no_group_is_cut(conv, data):
    d = build_dsm(conv.elements)
    seq = sequence(d)
    counts = conv.token_counts()
    labels = {e: data.draw(st.integers(min_value=0, max_value=3)) for e in conv.element_ids}
    if data.draw(st.booleans()):  # each coupled group inside one cluster, so no run boundary cuts it
        for group in seq.cycles:
            labels.update((e, labels[group[0]]) for e in group)
    groups = [[e for e in conv.element_ids if labels[e] == k] for k in set(labels.values())]
    clusters = assignment_from_groups(d, groups)
    # now and then below the largest count, so UnsplittablePiece is checked too
    offset = data.draw(st.sampled_from([-1, 0]) | st.integers(min_value=-8, max_value=60))
    cap = max(1, max(counts.values()) + offset)
    config, spec = BudgetConfig(margin=0.0), ModelSpec("m", 10**6, cap)
    assert max_piece_tokens(config, spec) == cap
    try:
        oracle = run_then_split(seq, clusters, counts, cap)
    except UnsplittablePiece as exc:
        with pytest.raises(UnsplittablePiece) as raised:
            make_pieces(conv, seq, clusters, config, spec)
        assert raised.value.element_id == exc.element_id
        return
    pieces = [p.element_ids for p in make_pieces(conv, seq, clusters, config, spec).pieces]
    fitting = [group for group in seq.cycles if sum(counts[e] for e in group) <= cap]
    assert _within(fitting, pieces)
    assert all(sum(counts[e] for e in piece) <= cap for piece in pieces)
    assert tuple(e for piece in pieces for e in piece) == seq.sequenced_ids()
    if _within(fitting, oracle):
        assert pieces == oracle


@given(coupled_conversations(), st.integers(min_value=40, max_value=120), st.integers(min_value=0, max_value=10**4))
@settings(max_examples=150, deadline=None)
def test_planned_pieces_keep_fitting_groups_whole(conv, cap, seed):
    config, spec = BudgetConfig(margin=0.0), ModelSpec("m", 10**6, cap)
    params = ClusterParams(seed=seed, restarts=2, iterations_per_restart=50)
    seq, _, plan = plan_conversation(conv, params, config, spec)
    counts = conv.token_counts()
    pieces = [p.element_ids for p in plan.pieces]
    assert _within([g for g in seq.cycles if sum(counts[e] for e in g) <= cap], pieces)
    # a consumer is sent ahead of its provider only inside a group above the
    # cap, or when the provider has no tokens: build_dsm leaves no mark for
    # it, so sequencing does not order the two
    group_of = {e: group for group in seq.cycles for e in group}
    for consumer, provider in plan._layout.early_pairs:
        group = group_of.get(consumer, ())
        assert counts[provider] == 0 or (provider in group and sum(counts[e] for e in group) > cap)


def test_naive_plan_is_one_unsplit_piece(naive_plan, spacecraft):
    assert len(naive_plan.pieces) == 1
    assert list(naive_plan.pieces[0].element_ids) == list(spacecraft.element_ids)
    assert naive_plan.pieces[0].gm_tokens == spacecraft.total_tokens()
    assert naive_plan.pieces[0].includes_user_statement


# ---------------------------------------------------------------------------
# end-to-end pipeline (searched clustering)
# ---------------------------------------------------------------------------


def test_pipeline_plan_invariants(spacecraft, mistral, fixture_config):
    seq, clusters, plan = plan_conversation(spacecraft, ClusterParams(), fixture_config, mistral)
    flat = [e for p in plan.pieces for e in p.element_ids]
    assert tuple(flat) == seq.sequenced_ids()
    assert sorted(flat) == sorted(spacecraft.element_ids)
    assert sum(p.gm_tokens for p in plan.pieces) == spacecraft.total_tokens()
    report = budget_report(plan)
    assert report.feasible
    assert all(b.ol_headroom >= 0 for b in report.piece_budgets)
    # every cluster respects the OL-derived token cap
    counts = spacecraft.token_counts()
    cap = max_piece_tokens(fixture_config, mistral)
    for group in clusters.clusters():
        assert sum(counts[e] for e in group) <= cap


def test_pipeline_search_beats_reference_grouping(spacecraft, spacecraft_dsm, mistral, fixture_config):
    seq, clusters, plan = plan_conversation(spacecraft, ClusterParams(), fixture_config, mistral)
    params_with_cap = ClusterParams(max_cluster_tokens=max_piece_tokens(fixture_config, mistral))
    reference = assignment_from_groups(
        spacecraft_dsm, REFERENCE_GROUPS, params_with_cap, spacecraft.token_counts()
    )
    assert clusters.j_total <= reference.j_total


def test_pipeline_is_deterministic(spacecraft, mistral, fixture_config):
    first = plan_conversation(spacecraft, ClusterParams(), fixture_config, mistral)
    second = plan_conversation(spacecraft, ClusterParams(), fixture_config, mistral)
    assert first == second


def test_reference_grouping_scores_the_frozen_cost(spacecraft_dsm, expected):
    scored = assignment_from_groups(spacecraft_dsm, REFERENCE_GROUPS)
    assert scored.j_total == expected["reference_clusters"]["j_total"]
    assert scored.j_size_term == expected["reference_clusters"]["j_size_term"]
    assert scored.j_interaction_term == expected["reference_clusters"]["j_interaction_term"]


# ---------------------------------------------------------------------------
# model catalog
# ---------------------------------------------------------------------------


def test_default_catalog_entries(mistral):
    catalog = default_model_catalog()
    assert (mistral.context_window, mistral.max_output_tokens) == (32000, 8192)
    checks = {
        "gpt-4": (8192, 4096),
        "gpt-4-turbo": (128000, 4096),
        "claude-3": (200000, 4096),
        "gemini-1.5-pro": (128000, 8192),
    }
    for name, (cw, ol) in checks.items():
        spec = find_model(catalog, name)
        assert (spec.context_window, spec.max_output_tokens) == (cw, ol)


def test_unknown_model_lists_names():
    with pytest.raises(UnknownModel) as err:
        find_model(default_model_catalog(), "definitely-not-a-model")
    assert "mistral-7b" in str(err.value)


def test_catalog_rejects_duplicates(tmp_path):
    path = tmp_path / "models.csv"
    path.write_text("name,context_window,max_output_tokens\nm,100,50\nm,200,50\n")
    with pytest.raises(DuplicateModelName):
        load_model_catalog(path)


def test_catalog_rejects_bad_header(tmp_path):
    path = tmp_path / "models.csv"
    path.write_text("nom,cw,ol\nm,100,50\n")
    with pytest.raises(ParseError, match="line 1"):
        load_model_catalog(path)


def test_catalog_reads_a_header_after_blank_lines(tmp_path):
    path = tmp_path / "models.csv"
    path.write_text("\nname,context_window,max_output_tokens\nm,100,50\n")
    assert load_model_catalog(path) == (ModelSpec("m", 100, 50),)
    path.write_text("\ufeffname,context_window,max_output_tokens\nm,100,50\n", encoding="utf-8")  # a UTF-8 BOM
    assert load_model_catalog(path) == (ModelSpec("m", 100, 50),)


@pytest.mark.parametrize("text", ["\nmistral-7b,100,50\n", "", "\n"])
def test_catalog_needs_a_header_first(tmp_path, text):
    path = tmp_path / "models.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match="expected header 'name,context_window,max_output_tokens'"):
        load_model_catalog(path)


@pytest.mark.parametrize(
    "row, message",
    [("m,100\n", "^line 2: expected 3 cells, got 2$"), ("m,100,lots\n", "^line 2: non-integer limits in row 'm'$")],
    ids=["two-cells", "word-limit"],
)
def test_catalog_rejects_bad_rows(tmp_path, row, message):
    path = tmp_path / "models.csv"
    path.write_text("name,context_window,max_output_tokens\n" + row)
    with pytest.raises(ParseError, match=message):
        load_model_catalog(path)


def test_catalog_rejects_inconsistent_limits(tmp_path):
    path = tmp_path / "models.csv"
    path.write_text("name,context_window,max_output_tokens\nm,100,500\n")
    with pytest.raises(ParseError):
        load_model_catalog(path)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("m", 100, 200)  # OL above CW
    with pytest.raises(ValueError):
        ModelSpec("m", 0, 0)
    # budgets are integer arithmetic: a float or a bool limit is no limit
    for cw, ol, field in (
        (1000.5, 100, "context_window"),
        (1000, 100.5, "max_output_tokens"),
        (True, 1, "context_window"),
    ):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ModelSpec("m", cw, ol)


def test_piece_validation():
    with pytest.raises(ValueError, match="at least one element"):
        ConversationPiece((), 0, 0)
    for gm, fm in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="non-negative"):
            ConversationPiece(("a",), gm, fm)
    for gm, fm, field in ((1.5, 0, "gm_tokens"), (0, True, "fm_tokens"), (0, 2.0, "fm_tokens")):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ConversationPiece(("a",), gm, fm)


def _flagged_plan(flags: tuple[bool, ...], ust: int) -> ConversationPlan:
    conv = ConversationModel(
        elements=tuple(ConversationElement(id=f"e{k}", label=f"e{k}", token_count=10) for k in range(len(flags))),
        user_statement_tokens=ust,
    )
    pieces = tuple(ConversationPiece((f"e{k}",), 10, 10, flag) for k, flag in enumerate(flags))
    config = BudgetConfig(margin=0.0, instructions_per_piece=3)
    return ConversationPlan(pieces, ModelSpec("m", 1000, 1000), config, conv)


@pytest.mark.parametrize(
    "flags,ust,message",
    [
        ((True, True), 5, "piece 2 carries the user statement"),
        ((True, False, True), 0, "piece 3 carries the user statement"),
        ((False, True), 5, "piece 2 carries the user statement"),
        ((False, False), 5, "the first piece must carry"),
    ],
)
def test_plan_rejects_a_user_statement_off_the_first_piece(flags, ust, message):
    with pytest.raises(ValueError, match=message):
        _flagged_plan(flags, ust)


@pytest.mark.parametrize("flags,ust", [((True, False), 5), ((True, False), 0), ((False, False), 0)])
def test_window_budget_and_stream_charge_the_user_statement_alike(flags, ust):
    plan = _flagged_plan(flags, ust)
    assert window_budget(plan)[0] == plan._layout.piece_ends[-1]  # at margin 0, WB is the whole stream


def test_budget_config_validation():
    with pytest.raises(ValueError):
        BudgetConfig(margin=1.0)
    with pytest.raises(ValueError):
        BudgetConfig(margin=-0.1)
    with pytest.raises(ValueError):
        BudgetConfig(fm_ratio=0)
    with pytest.raises(ValueError):
        BudgetConfig(instructions_per_piece=-1)
    for value in (1.5, True, "50"):
        with pytest.raises(ValueError, match="instructions_per_piece must be an integer"):
            BudgetConfig(instructions_per_piece=value)


@pytest.mark.parametrize("field", ["margin", "fm_ratio"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_budget_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        BudgetConfig(**{field: value})
