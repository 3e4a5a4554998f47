#!/usr/bin/env python
"""End-to-end run on the bundled spacecraft conversation.

Builds the dependency matrix, sequences it, clusters under the model's
output cap, then contrasts three plans: the naive single-piece
conversation, the four-piece reference plan cut along the grouping the
corpus ships with, and the plan from the cost-minimizing search.  Budget
tables first, then FIFO window simulations across a sweep of
context-window sizes, and each plan's smallest window that loses nothing.
"""

from __future__ import annotations

import argparse
import json

from dsmplan import (
    BudgetConfig,
    ClusterParams,
    above_diagonal_marks,
    assignment_from_groups,
    budget_report,
    build_dsm,
    default_model_catalog,
    find_model,
    loss_curve,
    make_naive_plan,
    make_pieces,
    parse_manifest,
    permute,
    plan_conversation,
    simulate,
)
from dsmplan.data import SPACECRAFT_EXPECTED, SPACECRAFT_MANIFEST


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", default="mistral-7b")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--margin", type=float, default=0.05)
    ap.add_argument(
        "--sweep",
        default="1000,2000,4000,8000,16000,32000",
        help="comma-separated context-window sizes to simulate",
    )
    args = ap.parse_args()

    conversation = parse_manifest(SPACECRAFT_MANIFEST)
    spec = find_model(default_model_catalog(), args.model)
    config = BudgetConfig(margin=args.margin, instructions_per_piece=conversation.instruction_tokens)
    params = ClusterParams(seed=args.seed)

    # the hand-identified grouping this corpus ships with; the annealing search
    # usually beats its cost, so the searched plan below may cut differently
    with open(SPACECRAFT_EXPECTED, encoding="utf-8") as handle:
        grouping = json.load(handle)["reference_clusters"]
    reference_groups = [*grouping["clusters"], *([e] for e in grouping["singletons"])]

    matrix = build_dsm(conversation.elements)
    seq, clusters, plan = plan_conversation(conversation, params, config, spec)
    naive = make_naive_plan(conversation, config, spec)
    reference = make_pieces(
        conversation, seq, assignment_from_groups(matrix, reference_groups), config, spec
    )

    print(f"elements: {matrix.n}, total dependency tokens: {sum(matrix.marks[2])}")
    print(f"feedback marks before/after sequencing: "
          f"{above_diagonal_marks(matrix)} -> {above_diagonal_marks(permute(matrix, seq.order))}")
    print("levels:")
    for k, level in enumerate(seq.levels, start=1):
        print(f"  {k}: {', '.join(level)}")
    print(f"clusters (J={clusters.j_total:g}):")
    for k, group in enumerate(clusters.clusters(), start=1):
        print(f"  {k}: {', '.join(group)}")

    for title, p in (("NAIVE", naive), ("REFERENCE", reference), ("SEARCHED", plan)):
        report = budget_report(p)
        print(f"\n{title} budget on {spec.name} "
              f"(CW {spec.context_window}, OL {spec.max_output_tokens})")
        for piece, pb in zip(p.pieces, report.piece_budgets):
            print(f"  piece [{', '.join(piece.element_ids)}]: "
                  f"GM {piece.gm_tokens}, OB {pb.ob}, OL-OB {pb.ol_headroom:+d}")
        print(f"  WB {report.wb}, CW-WB {report.cw_headroom:+d}, "
              f"feasible: {'yes' if report.feasible else 'no'}")

    windows = [int(v) for v in args.sweep.split(",")]
    print(f"\nFIFO simulation sweep (misses / lost tokens)")
    print(f"{'CW':>8}{'naive':>18}{'reference':>18}{'searched':>18}")
    for cw in windows:
        runs = [simulate(p, context_window=cw) for p in (naive, reference, plan)]
        print(f"{cw:>8}" + "".join(f"{r.dependency_misses:>7} /{r.lost_tokens:>8}" for r in runs))
    # overflow depends on the replies alone, not on the window: read it off the last sweep row
    print(f"output overflow tokens: naive {runs[0].output_overflow_tokens}, "
          f"reference {runs[1].output_overflow_tokens}, "
          f"searched {runs[2].output_overflow_tokens}")
    lossless = [loss_curve(p).lossless_window for p in (naive, reference, plan)]
    print(f"smallest lossless window: naive {lossless[0]}, "
          f"reference {lossless[1]}, searched {lossless[2]}")


if __name__ == "__main__":
    main()
