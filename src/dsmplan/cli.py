"""Command-line interface.

Subcommands mirror the pipeline stages: ``dsm``, ``sequence``, ``cluster``,
``plan``, ``budget``, ``simulate``.  Settings come from built-in defaults,
then an optional ``--config`` JSON file, then explicit flags (flags win).
Exit codes: 0 success/feasible, 1 analysis says infeasible (report still
printed), 2 bad input.  Output for a fixed invocation is byte-identical
across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Any

from .clustering import ClusterParams
from .dsm import Dsm, build_dsm, permute, to_binary, write_dsm_csv
from .errors import DsmPlanError, ParseError, PieceExceedsWindow, UnsplittablePiece
from .manifest import ConversationModel, parse_manifest, read_json_file
from .planning import (
    BudgetConfig,
    ConversationPlan,
    ModelSpec,
    TokenBudgetReport,
    budget_report,
    capped_cluster,
    default_model_catalog,
    find_model,
    literal_plan,
    load_model_catalog,
    make_naive_plan,
    plan_conversation,
)
from .sequencing import SequencingResult, sequence
from .simulator import SimulationReport, compare, simulate
from .tokens import TokenCountProvider, load_token_table

_DEFAULTS: dict[str, Any] = {
    "manifest": None,
    "model": "mistral-7b",
    "catalog": None,
    "alpha": 2.0,
    "beta": 1.0,
    "size_mode": "count",
    "seed": 42,
    "restarts": 32,
    "margin": 0.05,
    "fm_ratio": 1.0,
    "instructions": None,  # None -> use the manifest's instruction block
    "tokens": "approx",
    "cw": None,
    "ol": None,
    "format": None,  # None -> per-command default
    "naive": False,
    "binary": False,
    "permute": "none",
    "fm": None,
    "ust": None,
}

_ANALYSIS_ERRORS = (UnsplittablePiece, PieceExceedsWindow)


# ---------------------------------------------------------------------------
# settings plumbing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    parser.add_argument("--manifest", metavar="PATH", help="conversation manifest (JSON)")
    parser.add_argument("--config", metavar="PATH", help="JSON file of defaults; flags win")
    parser.add_argument("--model", help="model name from the catalog (default mistral-7b)")
    parser.add_argument("--catalog", metavar="PATH", help="model catalog CSV (default bundled)")
    parser.add_argument("--alpha", type=float, help="cluster size penalty weight")
    parser.add_argument("--beta", type=float, help="outside-cluster interaction weight")
    parser.add_argument("--size-mode", dest="size_mode", choices=["count", "tokens"])
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--restarts", type=int, help="annealing restarts")
    parser.add_argument("--margin", type=float, help="safety margin on budgets, e.g. 0.05")
    parser.add_argument("--fm-ratio", dest="fm_ratio", type=float, help="filled/generic token ratio")
    parser.add_argument("--instructions", type=int, help="instruction tokens charged per piece")
    parser.add_argument("--tokens", metavar="MODE", help="'approx' or 'table:PATH'")
    parser.add_argument("--cw", type=int, help="context window override")
    parser.add_argument("--ol", type=int, help="max output tokens override")
    parser.add_argument("--format", choices=list(formats))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsmplan",
        description="Dependency-structure planning of LLM conversations under token budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dsm = sub.add_parser("dsm", help="emit the dependency matrix")
    _add_common(p_dsm, ("csv", "text", "json"))
    p_dsm.add_argument("--binary", action="store_true", default=None, help="marks instead of weights")
    p_dsm.add_argument("--permute", choices=["none", "sequence"], help="row/column order")
    p_dsm.set_defaults(func=cmd_dsm, default_format="csv")

    p_seq = sub.add_parser("sequence", help="levels and element order")
    _add_common(p_seq, ("text", "json"))
    p_seq.set_defaults(func=cmd_sequence, default_format="text")

    p_cluster = sub.add_parser("cluster", help="cluster the matrix (capped by the model's limits)")
    _add_common(p_cluster, ("text", "json"))
    p_cluster.set_defaults(func=cmd_cluster, default_format="text")

    p_plan = sub.add_parser("plan", help="pieces plus budgets plus verdict")
    _add_common(p_plan, ("text", "json"))
    p_plan.add_argument("--naive", action="store_true", default=None, help="single piece, no matrix")
    p_plan.set_defaults(func=cmd_plan, default_format="text")

    p_budget = sub.add_parser("budget", help="token budget report only")
    _add_common(p_budget, ("text", "json"))
    p_budget.add_argument("--naive", action="store_true", default=None)
    p_budget.add_argument("--fm", metavar="N,N,...", help="literal per-piece token figures")
    p_budget.add_argument("--ust", type=int, help="user statement tokens for --fm mode")
    p_budget.set_defaults(func=cmd_budget, default_format="text")

    p_sim = sub.add_parser("simulate", help="FIFO window losses, naive vs planned")
    _add_common(p_sim, ("text", "json"))
    p_sim.set_defaults(func=cmd_simulate, default_format="text")

    return parser


def _load_config_file(path: str) -> dict[str, Any]:
    raw = read_json_file(path, "config")
    if not isinstance(raw, dict):
        raise ParseError(f"config {path}: root must be an object")
    unknown = sorted(set(raw) - set(_DEFAULTS))
    if unknown:
        raise ParseError(f"config {path}: unknown keys {', '.join(unknown)}")
    return raw


def _merge(args: argparse.Namespace) -> dict[str, Any]:
    settings = dict(_DEFAULTS)
    if getattr(args, "config", None):
        settings.update(_load_config_file(args.config))
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if settings["format"] is None:
        settings["format"] = args.default_format
    return settings


def _provider(settings: dict[str, Any]) -> TokenCountProvider:
    spec = settings["tokens"]
    if spec == "approx":
        return TokenCountProvider.approximate()
    if isinstance(spec, str) and spec.startswith("table:"):
        path = spec[len("table:") :]
        try:
            return load_token_table(path)
        except OSError as exc:
            raise ParseError(f"cannot read token table {path}: {exc}") from None
    raise ParseError(f"--tokens must be 'approx' or 'table:PATH', got {spec!r}")


def _conversation(settings: dict[str, Any]) -> ConversationModel:
    if not settings["manifest"]:
        raise ParseError("--manifest is required for this command")
    return parse_manifest(settings["manifest"], _provider(settings))


def _model_spec(settings: dict[str, Any], *, apply_cw: bool = True) -> ModelSpec:
    if settings["catalog"]:
        try:
            catalog = load_model_catalog(settings["catalog"])
        except OSError as exc:
            raise ParseError(f"cannot read catalog {settings['catalog']}: {exc}") from None
    else:
        catalog = default_model_catalog()
    spec = find_model(catalog, settings["model"])
    cw = settings["cw"] if apply_cw and settings["cw"] is not None else spec.context_window
    ol = settings["ol"] if settings["ol"] is not None else spec.max_output_tokens
    if (cw, ol) != (spec.context_window, spec.max_output_tokens):
        try:
            spec = replace(spec, context_window=cw, max_output_tokens=ol)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return spec


def _budget_config(settings: dict[str, Any], conversation: ConversationModel | None) -> BudgetConfig:
    instructions = settings["instructions"]
    if instructions is None:
        instructions = conversation.instruction_tokens if conversation else 0
    return BudgetConfig(
        margin=settings["margin"],
        fm_ratio=settings["fm_ratio"],
        instructions_per_piece=instructions,
    )


def _cluster_params(settings: dict[str, Any]) -> ClusterParams:
    return ClusterParams(
        alpha=settings["alpha"],
        beta=settings["beta"],
        size_mode=settings["size_mode"],
        seed=settings["seed"],
        restarts=settings["restarts"],
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(payload: Any) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _num(value: float) -> str:
    return f"{value:g}"


def _row(label: str, value: str, note: str = "") -> str:
    line = f"{label:<26}{value:>12}"
    return line + (f"  {note}" if note else "")


def _ids(ids: tuple[str, ...]) -> str:
    return ", ".join(ids)


def _report_payload(plan: ConversationPlan, report: TokenBudgetReport) -> dict[str, Any]:
    return {
        "model": {
            "name": plan.model.name,
            "context_window": plan.model.context_window,
            "max_output_tokens": plan.model.max_output_tokens,
        },
        "config": {
            "margin": plan.config.margin,
            "fm_ratio": plan.config.fm_ratio,
            "instructions_per_piece": plan.config.instructions_per_piece,
        },
        "user_statement_tokens": plan.conversation.user_statement_tokens,
        "pieces": [
            {
                "elements": list(piece.element_ids),
                "gm_tokens": piece.gm_tokens,
                "fm_tokens": piece.fm_tokens,
                "includes_user_statement": piece.includes_user_statement,
                "ob": budget.ob,
                "ol_headroom": budget.ol_headroom,
            }
            for piece, budget in zip(plan.pieces, report.piece_budgets)
        ],
        "wb": report.wb,
        "cw_headroom": report.cw_headroom,
        "feasible": report.feasible,
    }


def _budget_text(plan: ConversationPlan, report: TokenBudgetReport) -> str:
    lines = [
        _row("MODEL", plan.model.name),
        _row("  Context window - CW", str(plan.model.context_window)),
        _row("  Max output     - OL", str(plan.model.max_output_tokens)),
        _row("PARAMETERS", ""),
        _row("  User statement - USt", str(plan.conversation.user_statement_tokens)),
        _row("  Instructions   - IntLLM", str(plan.config.instructions_per_piece), "per piece"),
        _row("  Margin         - MG", _num(plan.config.margin)),
        _row("  FM ratio", _num(plan.config.fm_ratio)),
    ]
    for k, (piece, budget) in enumerate(zip(plan.pieces, report.piece_budgets), start=1):
        suffix = "  (+ user statement)" if piece.includes_user_statement else ""
        lines.append(f"PIECE {k}  [{_ids(piece.element_ids)}]{suffix}")
        lines.append(_row("  Generic text   - GM", str(piece.gm_tokens)))
        lines.append(_row("  Filled text    - FM", str(piece.fm_tokens)))
        lines.append(_row("  Output budget  - OB", str(budget.ob)))
        lines.append(_row("  OL - OB", f"{budget.ol_headroom:+d}"))
    lines.append(_row("WHOLE CONVERSATION", ""))
    lines.append(_row("  Window budget  - WB", str(report.wb)))
    lines.append(_row("  CW - WB", f"{report.cw_headroom:+d}"))
    lines.append(_row("FEASIBLE", "yes" if report.feasible else "no"))
    return "\n".join(lines) + "\n"


def _simulation_payload(report: SimulationReport) -> dict[str, Any]:
    return {
        "context_window": report.context_window,
        "dependency_misses": report.dependency_misses,
        "lost_tokens": report.lost_tokens,
        "output_overflow_tokens": report.output_overflow_tokens,
        "oversized_pieces": [k + 1 for k in report.oversized_piece_indices],
        "missed_pairs": [list(pair) for pair in report.missed_pairs],
        "steps": [
            {
                "piece": step.piece_index + 1,
                "tokens_in": step.tokens_in,
                "tokens_out": step.tokens_out,
                "evicted": list(step.evicted_element_ids),
            }
            for step in report.steps
        ],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_dsm(settings: dict[str, Any]) -> int:
    conversation = _conversation(settings)
    matrix = build_dsm(conversation.elements)
    if settings["permute"] == "sequence":
        matrix = permute(matrix, sequence(matrix).order)
    if settings["binary"]:
        matrix = to_binary(matrix)
    fmt = settings["format"]
    if fmt == "csv":
        sys.stdout.write(write_dsm_csv(matrix))
    elif fmt == "json":
        _emit_json(
            {
                "element_ids": list(matrix.element_ids),
                "kind": matrix.kind,
                "weights": matrix.weights.tolist(),
            }
        )
    else:
        _emit(_dsm_text(matrix))
    return 0


def _dsm_text(matrix: Dsm) -> str:
    width = max((len(e) for e in matrix.element_ids), default=1) + 1
    header = " " * width + "".join(f"{e:>{width}}" for e in matrix.element_ids)
    lines = [header]
    for i, element_id in enumerate(matrix.element_ids):
        marks = "".join(
            f"{'X' if matrix.weights[i, j] else '.':>{width}}" for j in range(matrix.n)
        )
        lines.append(f"{element_id:<{width}}" + marks)
    return "\n".join(lines) + "\n"


def cmd_sequence(settings: dict[str, Any]) -> int:
    conversation = _conversation(settings)
    seq = sequence(build_dsm(conversation.elements))
    if settings["format"] == "json":
        _emit_json(
            {
                "levels": [list(level) for level in seq.levels],
                "order": list(seq.sequenced_ids()),
                "cycles": [list(group) for group in seq.cycles],
            }
        )
        return 0
    lines = [f"LEVEL {k}   {_ids(level)}" for k, level in enumerate(seq.levels, start=1)]
    lines.append(f"ORDER     {_ids(seq.sequenced_ids())}")
    if seq.cycles:
        lines.append("COUPLED   " + "; ".join("{" + _ids(group) + "}" for group in seq.cycles))
    _emit("\n".join(lines))
    return 0


def cmd_cluster(settings: dict[str, Any]) -> int:
    conversation = _conversation(settings)
    spec = _model_spec(settings)
    config = _budget_config(settings, conversation)
    _, assignment, cap = capped_cluster(conversation, _cluster_params(settings), config, spec)
    if settings["format"] == "json":
        _emit_json(
            {
                "params": {
                    "alpha": settings["alpha"],
                    "beta": settings["beta"],
                    "size_mode": settings["size_mode"],
                    "seed": settings["seed"],
                    "restarts": settings["restarts"],
                    "max_cluster_tokens": cap,
                },
                "clusters": [list(group) for group in assignment.clusters()],
                "num_clusters": assignment.num_clusters,
                "j_total": assignment.j_total,
                "j_size_term": assignment.j_size_term,
                "j_interaction_term": assignment.j_interaction_term,
            }
        )
        return 0
    lines = [
        "PARAMS    "
        + f"alpha={_num(settings['alpha'])} beta={_num(settings['beta'])} "
        + f"size={settings['size_mode']} seed={settings['seed']} "
        + f"restarts={settings['restarts']} cap={cap}",
        _row("J TOTAL", _num(assignment.j_total)),
        _row("  size term", _num(assignment.j_size_term)),
        _row("  interaction term", _num(assignment.j_interaction_term)),
    ]
    for k, group in enumerate(assignment.clusters(), start=1):
        lines.append(f"CLUSTER {k}  [{_ids(tuple(group))}]")
    _emit("\n".join(lines))
    return 0


def _build_plans(
    settings: dict[str, Any], conversation: ConversationModel
) -> tuple[ConversationPlan, ConversationPlan]:
    """(naive, optimized) plans against the same model spec and config."""
    spec = _model_spec(settings, apply_cw=False)
    config = _budget_config(settings, conversation)
    naive = make_naive_plan(conversation, config, spec)
    _, _, optimized = plan_conversation(conversation, _cluster_params(settings), config, spec)
    return naive, optimized


def _print_report(plan: ConversationPlan, fmt: str) -> int:
    report = budget_report(plan)
    if fmt == "json":
        _emit_json(_report_payload(plan, report))
    else:
        _emit(_budget_text(plan, report))
    return 0 if report.feasible else 1


def cmd_plan(settings: dict[str, Any]) -> int:
    conversation = _conversation(settings)
    spec = _model_spec(settings)
    config = _budget_config(settings, conversation)
    if settings["naive"]:
        plan = make_naive_plan(conversation, config, spec)
    else:
        _, _, plan = plan_conversation(conversation, _cluster_params(settings), config, spec)
    return _print_report(plan, settings["format"])


def cmd_budget(settings: dict[str, Any]) -> int:
    if settings["fm"] is None:
        return cmd_plan(settings)
    try:
        fm_values = [int(v) for v in str(settings["fm"]).split(",") if v.strip() != ""]
    except ValueError:
        raise ParseError(f"--fm expects comma-separated integers, got {settings['fm']!r}") from None
    if not fm_values:
        raise ParseError("--fm needs at least one value")
    spec = _model_spec(settings)
    plan = literal_plan(fm_values, _budget_config(settings, None), spec, ust_tokens=settings["ust"] or 0)
    return _print_report(plan, settings["format"])


def cmd_simulate(settings: dict[str, Any]) -> int:
    conversation = _conversation(settings)
    naive_plan, optimized_plan = _build_plans(settings, conversation)
    cw = settings["cw"]
    naive_run = simulate(naive_plan, context_window=cw)
    optimized_run = simulate(optimized_plan, context_window=cw)
    deltas = compare(naive_run, optimized_run)
    oversized = naive_run.oversized_piece_indices or optimized_run.oversized_piece_indices

    if settings["format"] == "json":
        payload = {
            "model": naive_plan.model.name,
            "context_window": naive_run.context_window,
            "naive": {
                **_report_payload(naive_plan, budget_report(naive_plan)),
                "simulation": _simulation_payload(naive_run),
            },
            "optimized": {
                **_report_payload(optimized_plan, budget_report(optimized_plan)),
                "simulation": _simulation_payload(optimized_run),
            },
            "comparison": [
                {
                    "metric": d.metric,
                    "naive": d.baseline,
                    "optimized": d.candidate,
                    "delta": d.delta,
                    "verdict": d.verdict,
                }
                for d in deltas
            ],
        }
        _emit_json(payload)
        return 1 if oversized else 0

    lines = [f"SIMULATION  model={naive_run.model_name}  CW={naive_run.context_window}"]
    lines.append(f"{'METRIC':<24}{'NAIVE':>10}{'PLANNED':>10}{'DELTA':>10}  VERDICT")
    for d in deltas:
        lines.append(f"{d.metric:<24}{d.baseline:>10}{d.candidate:>10}{d.delta:>+10}  {d.verdict}")
    for k in naive_run.oversized_piece_indices:
        lines.append(f"WARNING: naive piece {k + 1} exceeds the context window (PieceExceedsWindow)")
    for k in optimized_run.oversized_piece_indices:
        lines.append(
            f"WARNING: planned piece {k + 1} exceeds the context window (PieceExceedsWindow)"
        )
    _emit("\n".join(lines))
    return 1 if oversized else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _merge(args)
        return args.func(settings)
    except _ANALYSIS_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DsmPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
