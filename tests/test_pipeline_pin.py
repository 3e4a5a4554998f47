"""A regression pin on the no-search plan path at n=3000.

A seeded text manifest of 3000 elements is planned the way the benchmark's
``pipeline-3000`` workload plans it: approximate counting, the matrix,
sequencing, coupled groups plus singletons as the grouping, pieces, budgets
and a four-window FIFO sweep.  Every output is hashed and compared with a
recorded digest, so a speed-up on this path that changes any count, order,
piece, budget or eviction fails here.
"""

import dataclasses
import hashlib
import json
import random

from dsmplan import (
    BudgetConfig,
    assignment_from_groups,
    budget_report,
    build_dsm,
    default_model_catalog,
    find_model,
    make_pieces,
    parse_manifest,
    sequence,
    simulate,
)

_WORDS = (
    "orbit mass power thermal margin budget link antenna battery solar panel radiator "
    "payload sensor downlink attitude wheel thruster tank frame load mode duty cycle peak "
    "x1 v2.0 don't a-b (kg) [50, 35] 3.5e-2 #7 ~ 100%"
).split()
# drawn now and then, so about one element in eight is counted off the ASCII path
_NON_ASCII = "café naïve Δv µs — 中文 ²".split()
SWEEP = (500, 1000, 2000, 1_000_000)
DIGEST = "45233332c595bab73e2b3961fdeb265d5e1448b8a26d493f1d0b0e3fc3525373"


def pin_manifest(n: int = 3000, seed: str = "pipeline-pin") -> dict:
    """Elements depend on up to 4 of the 40 before them; every 20th one also
    depends on one up to 3 ahead, which depends back, so the pair is coupled."""
    rng = random.Random(seed)
    back: dict[int, int] = {}
    elements = []
    for k in range(n):
        first = max(0, k - 40)
        deps = sorted(rng.sample(range(first, k), min(k - first, rng.randint(0, 4))))
        if k in back:
            deps.append(back.pop(k))
        if k % 20 == 7 and k + 3 < n:
            ahead = k + rng.randint(1, 3)
            deps.append(ahead)
            back.setdefault(ahead, k)
        words = [rng.choice(_NON_ASCII if rng.random() < 0.005 else _WORDS) for _ in range(rng.randint(1, 60))]
        text = "".join(w + rng.choice(" " * 12 + ",\n\t") for w in words)
        elements.append({"id": f"e{k:04d}", "deps": [f"e{j:04d}" for j in dict.fromkeys(deps)], "text": text})
    return {"user_statement": "plan the whole mission", "instructions": {"tokens": 10}, "elements": elements}


def report_dict(report) -> dict:
    """``asdict(report)`` with each step as a dict, as it was when steps were dataclasses."""
    return {**dataclasses.asdict(report), "steps": [step._asdict() for step in report.steps]}


def pipeline_digest(path) -> str:
    conversation = parse_manifest(path)
    model = find_model(default_model_catalog(), "claude-3")
    config = BudgetConfig(margin=0.05, instructions_per_piece=conversation.instruction_tokens)
    dsm = build_dsm(conversation.elements)
    seq = sequence(dsm)
    coupled = {e for group in seq.cycles for e in group}
    clusters = assignment_from_groups(dsm, [*seq.cycles, *([e] for e in dsm.element_ids if e not in coupled)])
    plan = make_pieces(conversation, seq, clusters, config, model)
    outputs = {
        "counts": conversation.token_counts(),
        "overheads": [conversation.user_statement_tokens, conversation.instruction_tokens],
        "marks": dsm.marks,
        "sequence": [seq.sequenced_ids(), seq.levels, seq.cycles],
        "clusters": dataclasses.asdict(clusters),
        "pieces": [dataclasses.astuple(piece) for piece in plan.pieces],
        "budget": dataclasses.asdict(budget_report(plan)),
        "sweep": [report_dict(simulate(plan, context_window=cw)) for cw in SWEEP],
    }
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def test_no_search_pipeline_at_3000_is_pinned(tmp_path):
    path = tmp_path / "pin.json"
    path.write_text(json.dumps(pin_manifest()), encoding="utf-8")
    assert pipeline_digest(path) == DIGEST
