"""dsmplan: dependency-structure planning of long LLM conversations.

Build a token-weighted dependency matrix over conversation elements, sequence
it so providers precede consumers, cluster tightly coupled elements, cut the
result into pieces that respect a model's output and window limits, and
simulate what a FIFO context window would lose under each plan.
"""

from . import errors
from .clustering import (
    ClusterAssignment,
    ClusterParams,
    assignment_from_groups,
    brute_force_cluster,
    cluster,
    clustering_cost,
)
from .dsm import (
    BINARY,
    NUMERICAL,
    Dsm,
    Permutation,
    above_diagonal_marks,
    build_dsm,
    parse_dsm_csv,
    permute,
    to_binary,
    write_dsm_csv,
)
from .manifest import ConversationElement, ConversationModel, parse_manifest
from .planning import (
    BudgetConfig,
    ConversationPiece,
    ConversationPlan,
    ModelSpec,
    PieceBudget,
    TokenBudgetReport,
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
from .sequencing import SequencingResult, reachability, sequence
from .simulator import LossCurve, MetricDelta, SimulationReport, SimulationStep, compare, loss_curve, simulate
from .tokens import count_tokens_approx, load_token_table

__version__ = "0.1.0"

__all__ = [
    "BINARY",
    "NUMERICAL",
    "BudgetConfig",
    "ClusterAssignment",
    "ClusterParams",
    "ConversationElement",
    "ConversationModel",
    "ConversationPiece",
    "ConversationPlan",
    "Dsm",
    "LossCurve",
    "MetricDelta",
    "ModelSpec",
    "Permutation",
    "PieceBudget",
    "SequencingResult",
    "SimulationReport",
    "SimulationStep",
    "TokenBudgetReport",
    "above_diagonal_marks",
    "assignment_from_groups",
    "brute_force_cluster",
    "budget_report",
    "build_dsm",
    "cluster",
    "clustering_cost",
    "compare",
    "count_tokens_approx",
    "default_model_catalog",
    "errors",
    "find_model",
    "literal_plan",
    "load_model_catalog",
    "load_token_table",
    "loss_curve",
    "make_naive_plan",
    "make_pieces",
    "max_piece_tokens",
    "output_budget",
    "parse_dsm_csv",
    "parse_manifest",
    "permute",
    "plan_conversation",
    "reachability",
    "sequence",
    "simulate",
    "to_binary",
    "window_budget",
    "write_dsm_csv",
]
