"""Tests of the benchmark's own parts: generator, correctness checks, tracer.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import dsmplan  # noqa: E402
from checks import (  # noqa: E402
    Budget,
    Simulation,
    check_budget,
    check_pieces,
    check_sequence,
    check_simulation,
    read_manifest,
)
import workloads  # noqa: E402
from run import WORKLOADS, result  # noqa: E402
from synth import DEP_REACH, ManifestSpec, manifest, manifest_bytes  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import MARGIN, Tally, cli_in_process, plan_file, plan_quality, run_library  # noqa: E402

SMALL = ManifestSpec(n=60, feedback_rate=0.2)


def test_same_seed_gives_identical_bytes():
    for spec in (SMALL, dataclasses.replace(SMALL, text=True), WORKLOADS["pipeline-3000"].spec):
        assert manifest_bytes(spec, "w:1:0") == manifest_bytes(spec, "w:1:0")


def test_different_seeds_give_different_manifests():
    docs = {manifest_bytes(SMALL, f"w:{seed}:0") for seed in range(10)}
    assert len(docs) == 10
    assert manifest_bytes(SMALL, "w:1:0") != manifest_bytes(SMALL, "w:1:1")


def test_generator_controls_shape(tmp_path):
    spec = ManifestSpec(n=400, mean_deps=3.5, feedback_rate=0.1, feedback_reach=3, text=True)
    path = tmp_path / "m.json"
    path.write_bytes(manifest_bytes(spec, "shape"))
    conversation = dsmplan.parse_manifest(path)
    assert len(conversation.elements) == 400
    backward = [
        (k, int(d[1:])) for k, e in enumerate(conversation.elements) for d in e.dependencies if int(d[1:]) < k
    ]
    forward = [
        (k, int(d[1:])) for k, e in enumerate(conversation.elements) for d in e.dependencies if int(d[1:]) > k
    ]
    assert 3.0 < len(backward) / 400 < 4.2  # mean_deps plus the back edges that close feedback
    assert all(k - j <= DEP_REACH for k, j in backward if (j, k) not in forward)
    assert 0.06 < len(forward) / 400 < 0.14 and all(j - k <= 3 for k, j in forward)
    seq = dsmplan.sequence(dsmplan.build_dsm(conversation.elements))
    assert seq.cycles and max(map(len, seq.cycles)) <= 8  # feedback closes small coupled groups
    # text is counted to exactly the sizes the generator dealt, by dsmplan and by the checks
    sizes = sorted(e.token_count for e in conversation.elements)
    assert sizes == sorted(read_manifest(path).tokens.values())
    literal = manifest(dataclasses.replace(spec, text=False), "shape")
    assert sizes == sorted(e["tokens"] for e in literal["elements"])
    assert spec.token_min <= sizes[0] and sizes[-1] <= spec.token_max


@pytest.fixture(scope="module")
def planned(tmp_path_factory):
    path = tmp_path_factory.mktemp("plan") / "m.json"
    path.write_bytes(manifest_bytes(SMALL, "plan"))
    model = dsmplan.find_model(dsmplan.default_model_catalog(), "gemini-1.5-pro")
    result = plan_file(path, types.SimpleNamespace(anneal=False), model)
    return result, read_manifest(path)


def _all_problems(budget, sims, seq, manifest):
    ids = seq.sequenced_ids()
    problems = check_sequence(ids, seq.cycles, manifest) + check_pieces(budget, ids, manifest)
    problems += check_budget(budget, manifest, MARGIN)
    return problems + [p for sim in sims for p in check_simulation(sim, budget, manifest)]


def _sims(plan):
    return [Simulation.from_report(dsmplan.simulate(plan, context_window=cw)) for cw in (500, 2000, 10**9)]


def test_a_correct_plan_passes(planned):
    result, manifest = planned
    budget = Budget.from_plan(result.plan, result.report)
    sims = _sims(result.plan)
    assert sims[0].misses > 0 and any(step.evicted for step in sims[0].steps)
    assert _all_problems(budget, sims, result.sequence, manifest) == []


def _swap_across_pieces(budget):
    pieces = list(budget.pieces)
    a, b = pieces[0], pieces[1]
    pieces[0] = dataclasses.replace(a, ids=(*a.ids[:-1], b.ids[0]))
    pieces[1] = dataclasses.replace(b, ids=(a.ids[-1], *b.ids[1:]))
    return dataclasses.replace(budget, pieces=tuple(pieces))


def _bump(budget, field):
    first = budget.pieces[0]
    pieces = (dataclasses.replace(first, **{field: getattr(first, field) + 1}), *budget.pieces[1:])
    return dataclasses.replace(budget, pieces=pieces)


@pytest.mark.parametrize(
    "corrupt",
    [
        _swap_across_pieces,
        lambda b: dataclasses.replace(b, pieces=b.pieces[1:]),  # an element goes missing
        lambda b: dataclasses.replace(b, pieces=b.pieces[::-1]),  # out of sequence order
        lambda b: _bump(b, "gm"),
        lambda b: _bump(b, "fm"),
        lambda b: _bump(b, "ob"),
        lambda b: dataclasses.replace(b, wb=b.wb - 1),
        lambda b: dataclasses.replace(b, feasible=not b.feasible),
        lambda b: dataclasses.replace(b, instructions_per_piece=b.instructions_per_piece + 1),
    ],
)
def test_a_corrupted_plan_fails(planned, corrupt):
    result, manifest = planned
    budget = corrupt(Budget.from_plan(result.plan, result.report))
    ids = result.sequence.sequenced_ids()
    assert check_pieces(budget, ids, manifest) + check_budget(budget, manifest, MARGIN)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda s: dataclasses.replace(s, lost_tokens=s.lost_tokens + 1),
        lambda s: dataclasses.replace(s, misses=s.misses - 1),
        lambda s: dataclasses.replace(s, missed_pairs=s.missed_pairs[1:]),
        lambda s: dataclasses.replace(s, steps=s.steps[:-1]),
        lambda s: dataclasses.replace(  # an element leaves the window without being reported
            s, steps=tuple(dataclasses.replace(st, evicted=st.evicted[1:]) for st in s.steps)
        ),
        lambda s: dataclasses.replace(
            s, steps=(dataclasses.replace(s.steps[0], tokens_in=s.steps[0].tokens_in + 1), *s.steps[1:])
        ),
    ],
)
def test_a_corrupted_simulation_fails(planned, corrupt):
    result, manifest = planned
    budget = Budget.from_plan(result.plan, result.report)
    assert check_simulation(corrupt(_sims(result.plan)[0]), budget, manifest)


def test_a_misordered_sequence_fails(planned):
    result, manifest = planned
    ids = result.sequence.sequenced_ids()
    assert check_sequence(ids[::-1], result.sequence.cycles, manifest)


def test_cli_output_is_checked_like_the_library(tmp_path):
    corpus = dsmplan.data.SPACECRAFT_MANIFEST
    out = cli_in_process(["plan", "--manifest", str(corpus), "--format", "json"])
    budget = Budget.from_json(json.loads(out.stdout))
    manifest = read_manifest(Path(corpus))
    seq = dsmplan.sequence(dsmplan.build_dsm(dsmplan.parse_manifest(corpus).elements))
    assert out.code == 0
    assert check_pieces(budget, seq.sequenced_ids(), manifest) + check_budget(budget, manifest, MARGIN) == []
    assert check_pieces(_swap_across_pieces(budget), seq.sequenced_ids(), manifest)
    assert check_budget(_bump(budget, "ob"), manifest, MARGIN)


def test_plan_quality_scores_the_pieces(planned):
    result, _ = planned
    dsm = dsmplan.build_dsm(result.plan.conversation.elements)
    pieces = [p.element_ids for p in result.plan.pieces]
    quality = plan_quality(dsm, pieces, result.clusters)
    assert quality["plan_j"] == dsmplan.assignment_from_groups(dsm, pieces).j_total
    # the fixed grouping's coupled groups are contiguous in sequence, so the cut keeps them
    assert quality["multi_clusters"] == len(result.sequence.cycles) > 0
    assert quality["kept_clusters"] == quality["multi_clusters"]


def test_tracer_covers_calls_inside_the_pipeline_and_restores(planned):
    result, _ = planned
    conversation = result.plan.conversation
    config = dsmplan.BudgetConfig(instructions_per_piece=conversation.instruction_tokens)
    params = dsmplan.ClusterParams(restarts=2, iterations_per_restart=50)
    original = dsmplan.planning.build_dsm
    tracer = Tracer()
    with tracer.request("plan", "r1"):
        dsmplan.plan_conversation(conversation, params, config, result.plan.model)
    assert dsmplan.planning.build_dsm is original and dsmplan.plan_conversation.__module__ == "dsmplan.planning"
    (root,) = tracer.roots("plan")
    names = {tracer.spans[k].name for k in tracer.subtree(root)}
    assert {"planning.plan_conversation", "dsm.build_dsm", "sequencing.sequence", "clustering.cluster",
            "planning.make_pieces", "planning.max_piece_tokens"} <= names  # fmt: skip
    assert all(tracer.spans[k].request == "r1" for k in tracer.subtree(root))
    times = tracer.breakdown(root)
    layers = sum(times[layer] for layer in LAYERS)
    total = tracer.spans[root].end - tracer.spans[root].start
    assert times["clustering"] > 0 and layers <= total
    assert abs(layers - times["planning.plan_conversation"]) < 1e-9


@pytest.mark.parametrize("trace", [0, 1])
def test_a_broken_planner_is_counted_not_fatal(tmp_path, monkeypatch, trace):
    path = tmp_path / "m.json"
    path.write_bytes(manifest_bytes(SMALL, "broken"))

    def broken(*args, **kwargs):
        raise RuntimeError("planner broke")

    monkeypatch.setattr(dsmplan, "plan_conversation", broken)
    monkeypatch.setattr(workloads, "python_startup", lambda env: (0.01, 0.02))
    workload = dataclasses.replace(WORKLOADS["anneal-300"], spec=SMALL, manifests=1)
    tally = Tally()
    _, metrics = run_library(workload, [path], 0.0, 1, trace, {}, tally)
    benchmark = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = result(tally, {**metrics, "setup_s": 0.1}, benchmark["per_layer" if trace else "end_to_end"])
    assert out["attempted"] == out["failed"] == (2 if trace else 1)  # traced runs pair each plan untraced
    assert not out["correct"]
    assert "plan_s" not in out["metrics"] and "trace.plan_s" not in out["metrics"]
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())
