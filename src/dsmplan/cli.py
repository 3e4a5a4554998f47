"""Command-line interface.

Subcommands mirror the pipeline stages: ``dsm``, ``sequence``, ``cluster``,
``plan``, ``budget``, ``simulate``.  Settings come from built-in defaults,
then an optional ``--config`` JSON file, then explicit flags (flags win).
Each setting is declared once, in ``_SETTINGS``; the defaults of the search
and budget settings are those of :class:`ClusterParams` and
:class:`BudgetConfig`.  Every setting, whether from a flag or ``--config``,
is checked whichever subcommand runs, by the rules of the library object
that holds it.
Exit codes: 0 success/feasible, 1 analysis says infeasible (report still
printed), 2 bad input.  Output for a fixed invocation is byte-identical
across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from functools import partial
from typing import TYPE_CHECKING, Any, NamedTuple

from .clustering import SIZE_MODE_COUNT, SIZE_MODE_TOKENS, ClusterParams
from .data import MODEL_CATALOG
from .dsm import build_dsm, permute, to_binary, write_dsm
from .errors import ParseError, UnsplittablePiece
from .manifest import ConversationModel, load_token_table, parse_manifest, read_json_file
from .planning import (
    BudgetConfig,
    ConversationPlan,
    ModelSpec,
    TokenBudgetReport,
    budget_report,
    find_model,
    literal_plan,
    load_model_catalog,
    make_naive_plan,
    max_piece_tokens,
    plan_conversation,
)
from .sequencing import SequencingResult, sequence

if TYPE_CHECKING:  # only `simulate` loads the simulator
    from .simulator import SimulationReport


class _Setting(NamedTuple):
    """One setting: the flag ``--<key>`` (underscores as dashes) and the config key ``<key>``."""

    default: Any  # None: unset, and a --config file may give null
    type: type  # the value's type; a bool setting is an on/off flag
    choices: tuple[str, ...] | None = None
    help: str | None = None
    metavar: str | None = None


_SETTINGS: dict[str, _Setting] = {
    "manifest": _Setting(None, str, help="conversation manifest (JSON)", metavar="PATH"),
    "model": _Setting("mistral-7b", str, help="model name from the catalog (default mistral-7b)"),
    "catalog": _Setting(None, str, help="model catalog CSV (default bundled)", metavar="PATH"),
    "alpha": _Setting(ClusterParams.alpha, float, help="cluster size penalty weight"),
    "beta": _Setting(ClusterParams.beta, float, help="outside-cluster interaction weight"),
    "size_mode": _Setting(ClusterParams.size_mode, str, (SIZE_MODE_COUNT, SIZE_MODE_TOKENS)),
    "seed": _Setting(ClusterParams.seed, int, help="master random seed"),
    "restarts": _Setting(ClusterParams.restarts, int, help="annealing restarts"),
    "margin": _Setting(BudgetConfig.margin, float, help="safety margin on budgets, e.g. 0.05"),
    "fm_ratio": _Setting(BudgetConfig.fm_ratio, float, help="filled/generic token ratio"),
    # None -> charge the manifest's instruction block
    "instructions": _Setting(None, int, help="instruction tokens charged per piece"),
    "tokens": _Setting("approx", str, help="'approx' or 'table:PATH'", metavar="MODE"),
    "cw": _Setting(None, int, help="context window override"),
    "ol": _Setting(None, int, help="max output tokens override"),
    "format": _Setting(None, str),  # each command has its own formats, the first its default
    "naive": _Setting(False, bool, help="single piece, no matrix"),
    "binary": _Setting(False, bool, help="marks instead of weights"),
    "permute": _Setting("none", str, ("none", "sequence"), help="row/column order"),
    "fm": _Setting(None, str, help="literal per-piece token figures", metavar="N,N,..."),
    "ust": _Setting(None, int, help="user statement tokens for --fm mode"),
}
_TYPE_NAMES = {str: "a string", float: "a number", int: "an integer", bool: "true or false"}


# ---------------------------------------------------------------------------
# settings plumbing
# ---------------------------------------------------------------------------


def _flag(parser: argparse.ArgumentParser, key: str, **overrides: Any) -> None:
    """Add ``--<key>`` as its ``_SETTINGS`` row declares it; unset flags stay None."""
    row = _SETTINGS[key]
    if row.type is bool:
        kwargs: dict[str, Any] = {"action": "store_true", "default": None, "help": row.help}
    else:
        kwargs = {"type": row.type, "choices": row.choices, "metavar": row.metavar, "help": row.help}
    parser.add_argument("--" + key.replace("_", "-"), **{**kwargs, **overrides})


def _add_common(parser: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    _flag(parser, "manifest")
    parser.add_argument("--config", metavar="PATH", help="JSON file of defaults; flags win")
    common = "model catalog alpha beta size_mode seed restarts margin fm_ratio instructions tokens cw ol"
    for key in common.split():
        _flag(parser, key)
    _flag(parser, "format", choices=formats)
    parser.set_defaults(formats=formats)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsmplan",
        description="Dependency-structure planning of LLM conversations under token budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # no prefix matching, or "--fm" would be taken for "--fm-ratio"
    add_parser = partial(sub.add_parser, allow_abbrev=False)

    p_dsm = add_parser("dsm", help="emit the dependency matrix")
    _add_common(p_dsm, ("csv", "text", "json"))
    _flag(p_dsm, "binary")
    _flag(p_dsm, "permute")
    p_dsm.set_defaults(func=cmd_dsm)

    p_seq = add_parser("sequence", help="levels and element order")
    _add_common(p_seq, ("text", "json"))
    p_seq.set_defaults(func=cmd_sequence)

    p_cluster = add_parser("cluster", help="cluster the matrix (capped by the model's limits)")
    _add_common(p_cluster, ("text", "json"))
    p_cluster.set_defaults(func=cmd_cluster)

    p_plan = add_parser("plan", help="pieces plus budgets plus verdict")
    _add_common(p_plan, ("text", "json"))
    _flag(p_plan, "naive")
    p_plan.set_defaults(func=cmd_plan)

    p_budget = add_parser("budget", help="token budget report only")
    _add_common(p_budget, ("text", "json"))
    _flag(p_budget, "naive", help=None)
    _flag(p_budget, "fm")
    _flag(p_budget, "ust")
    p_budget.set_defaults(func=cmd_budget)

    p_sim = add_parser("simulate", help="FIFO window losses, naive vs planned")
    _add_common(p_sim, ("text", "json"))
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def _load_config_file(path: str, formats: tuple[str, ...]) -> dict[str, Any]:
    """The settings of a --config file, each checked as its flag would be."""
    raw = read_json_file(path, "config")
    if not isinstance(raw, dict):
        raise ParseError(f"config {path}: root must be an object")
    unknown = sorted(set(raw) - set(_SETTINGS))
    if unknown:
        raise ParseError(f"config {path}: unknown keys {', '.join(unknown)}")
    for key, value in raw.items():
        row = _SETTINGS[key]
        if value is None and row.default is None:
            continue
        # bool is an int subclass in Python, but true/false is no number in a config
        accepted = (int, float) if row.type is float else row.type
        if not isinstance(value, accepted) or isinstance(value, bool) != (row.type is bool):
            raise ParseError(f"config {path}: {key} must be {_TYPE_NAMES[row.type]}, got {json.dumps(value)}")
        choices = formats if key == "format" else row.choices
        if choices and value not in choices:
            raise ParseError(f"config {path}: {key} must be one of {', '.join(choices)}, got {value!r}")
        if row.type is float:  # parsed as the flag parses it, so 0 prints as 0.0
            try:
                raw[key] = float(value)
            except OverflowError:
                raise ParseError(f"config {path}: {key} is out of range") from None
    return raw


def _merge(args: argparse.Namespace) -> dict[str, Any]:
    """The settings of this run, each range-checked once, whichever command reads it.

    Besides one entry per ``_SETTINGS`` key, ``"params"`` holds the search
    settings as a :class:`ClusterParams` and ``"budget"`` the budget settings
    as a :class:`BudgetConfig`; building them applies the library's rules.
    ``"table"`` holds the ``--tokens`` table (None for approx) and ``"spec"``
    the ``--model`` entry of the catalog, before any ``--cw``/``--ol``.
    """
    settings = {key: row.default for key, row in _SETTINGS.items()}
    if args.config:
        settings.update(_load_config_file(args.config, args.formats))
    for key in _SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if settings["format"] is None:
        settings["format"] = args.formats[0]
    settings["budget"] = BudgetConfig(
        margin=settings["margin"],
        fm_ratio=settings["fm_ratio"],
        instructions_per_piece=settings["instructions"] or 0,  # literal --fm figures come with no manifest
    )
    settings["params"] = ClusterParams(
        alpha=settings["alpha"],
        beta=settings["beta"],
        size_mode=settings["size_mode"],
        seed=settings["seed"],
        restarts=settings["restarts"],
    )
    settings["table"] = _provider(settings)
    settings["spec"] = find_model(load_model_catalog(settings["catalog"] or MODEL_CATALOG), settings["model"])
    # each limit alone, as a model with that window and output: positive, but
    # --cw may sit below the model's OL, which simulate accepts
    for limit in (settings["cw"], settings["ol"]):
        if limit is not None:
            ModelSpec(settings["spec"].name, limit, limit)
    if settings["ust"] is not None:
        ConversationModel((), user_statement_tokens=settings["ust"])
    return settings


def _provider(settings: dict[str, Any]) -> dict[str, int] | None:
    spec = settings["tokens"]
    if spec == "approx":
        return None
    if spec.startswith("table:"):
        return load_token_table(spec[len("table:") :])
    raise ParseError(f"--tokens must be 'approx' or 'table:PATH', got {spec!r}")


def _conversation(settings: dict[str, Any]) -> ConversationModel:
    if not settings["manifest"]:
        raise ParseError("--manifest is required for this command")
    return parse_manifest(settings["manifest"], settings["table"])


def _model_spec(settings: dict[str, Any], *, apply_cw: bool = True) -> ModelSpec:
    spec = settings["spec"]
    cw = settings["cw"] if apply_cw and settings["cw"] is not None else spec.context_window
    ol = settings["ol"] if settings["ol"] is not None else spec.max_output_tokens
    return replace(spec, context_window=cw, max_output_tokens=ol)


def _budget_config(settings: dict[str, Any], conversation: ConversationModel) -> BudgetConfig:
    """The budget settings, charging the manifest's instruction block unless --instructions is set."""
    if settings["instructions"] is not None:
        return settings["budget"]
    return replace(settings["budget"], instructions_per_piece=conversation.instruction_tokens)


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
        "model": asdict(plan.model),
        "config": asdict(plan.config),
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
    matrix = build_dsm(conversation)
    if settings["permute"] == "sequence":
        matrix = permute(matrix, sequence(matrix).order)
    if settings["binary"]:
        matrix = to_binary(matrix)
    write_dsm(matrix, settings["format"], sys.stdout)
    return 0


def cmd_sequence(settings: dict[str, Any]) -> int:
    conversation = _conversation(settings)
    seq = sequence(build_dsm(conversation))
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
    params = settings["params"]
    _, assignment, _ = plan_conversation(conversation, params, config, spec)
    cap = max_piece_tokens(config, spec)
    if settings["format"] == "json":
        _emit_json(
            {
                "params": {
                    "alpha": params.alpha,
                    "beta": params.beta,
                    "size_mode": params.size_mode,
                    "seed": params.seed,
                    "restarts": params.restarts,
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
        + f"alpha={_num(params.alpha)} beta={_num(params.beta)} "
        + f"size={params.size_mode} seed={params.seed} "
        + f"restarts={params.restarts} cap={cap}",
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
    _, _, optimized = plan_conversation(conversation, settings["params"], config, spec)
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
        _, _, plan = plan_conversation(conversation, settings["params"], config, spec)
    return _print_report(plan, settings["format"])


def cmd_budget(settings: dict[str, Any]) -> int:
    if settings["fm"] is None:
        return cmd_plan(settings)
    if settings["manifest"]:
        raise ParseError("--fm budgets the literal figures given and reads no manifest; drop --manifest")
    if settings["fm_ratio"] != 1:
        raise ParseError("--fm takes FM figures as given, so --fm-ratio (fm_ratio in a config) must be 1")
    try:
        fm_values = [int(v) for v in settings["fm"].split(",") if v.strip() != ""]
    except ValueError:
        raise ParseError(f"--fm expects comma-separated integers, got {settings['fm']!r}") from None
    if not fm_values:
        raise ParseError("--fm needs at least one value")
    spec = _model_spec(settings)
    plan = literal_plan(fm_values, settings["budget"], spec, ust_tokens=settings["ust"] or 0)
    return _print_report(plan, settings["format"])


def cmd_simulate(settings: dict[str, Any]) -> int:
    from .simulator import compare, simulate

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
    for label, run in (("naive", naive_run), ("planned", optimized_run)):
        for k in run.oversized_piece_indices:
            # the tag in parentheses names the condition; no exception is raised
            lines.append(f"WARNING: {label} piece {k + 1} exceeds the context window (PieceExceedsWindow)")
    _emit("\n".join(lines))
    return 1 if oversized else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _merge(args)
        return args.func(settings)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UnsplittablePiece) else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
