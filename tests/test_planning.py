from collections import Counter
from decimal import ROUND_CEILING, ROUND_HALF_UP, Decimal
from itertools import groupby

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dsmplan.clustering import ClusterParams, assignment_from_groups
from dsmplan.dsm import build_dsm
from dsmplan.errors import DuplicateModelName, ParseError, UnknownModel, UnsplittablePiece
from dsmplan.manifest import ConversationElement, ConversationModel
from dsmplan.planning import (
    BudgetConfig,
    ConversationPiece,
    ModelSpec,
    budget_report,
    default_model_catalog,
    find_model,
    literal_plan,
    load_model_catalog,
    make_naive_plan,
    make_pieces,
    max_piece_tokens,
    output_budget,
    plan_conversation,
    window_budget,
)
from dsmplan.sequencing import sequence

from conftest import REFERENCE_GROUPS

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


def test_budget_config_validation():
    with pytest.raises(ValueError):
        BudgetConfig(margin=1.0)
    with pytest.raises(ValueError):
        BudgetConfig(margin=-0.1)
    with pytest.raises(ValueError):
        BudgetConfig(fm_ratio=0)
    with pytest.raises(ValueError):
        BudgetConfig(instructions_per_piece=-1)
