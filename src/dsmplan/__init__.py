"""dsmplan: dependency-structure planning of long LLM conversations.

Build a token-weighted dependency matrix over conversation elements, sequence
it so providers precede consumers, cluster tightly coupled elements, cut the
result into pieces that respect a model's output and window limits, and
simulate what a FIFO context window would lose under each plan.

``import dsmplan`` loads only this package.  Each public name is declared
once, in ``_EXPORTS`` under the layer module it lives in, and that module
loads on first use of one of its names.  A name is looked up in its module on
every access and never stored here, so a patch on a layer module's attribute
is also what ``dsmplan.<name>`` returns.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "clustering": (
        "ClusterAssignment",
        "ClusterParams",
        "assignment_from_groups",
        "cluster",
    ),
    "dsm": (
        "BINARY",
        "NUMERICAL",
        "Dsm",
        "Permutation",
        "above_diagonal_marks",
        "build_dsm",
        "parse_dsm_csv",
        "permute",
        "to_binary",
        "write_dsm_csv",
    ),
    "manifest": ("ConversationElement", "ConversationModel", "load_token_table", "parse_manifest"),
    "planning": (
        "BudgetConfig",
        "ConversationPiece",
        "ConversationPlan",
        "ModelSpec",
        "PieceBudget",
        "TokenBudgetReport",
        "budget_report",
        "default_model_catalog",
        "find_model",
        "literal_plan",
        "load_model_catalog",
        "make_naive_plan",
        "make_pieces",
        "max_piece_tokens",
        "output_budget",
        "plan_conversation",
        "window_budget",
    ),
    "sequencing": ("SequencingResult", "reachability", "sequence"),
    "simulator": ("LossCurve", "MetricDelta", "SimulationReport", "SimulationStep", "compare", "loss_curve", "simulate"),
    "tokens": ("count_tokens_approx",),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}
# the submodules that resolve as attributes before anything imports them
_SUBMODULES = {*_EXPORTS, "data", "errors"}

__all__ = sorted([*_HOME, "errors"])


def __getattr__(name: str) -> object:
    if name in _HOME:
        return getattr(import_module(_HOME[name]), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
