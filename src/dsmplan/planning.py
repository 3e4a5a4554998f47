"""Conversation pieces and token budgets.

Glossary used throughout (all counts are tokens):

* GM — the generic text of a piece as sent (sum of its members' counts)
* FM — the information-filled text the model returns, ``round(GM * fm_ratio)``
* OB — output budget a reply must fit, ``ceil(FM * (1 + margin))``
* WB — whole-conversation window budget,
  ``ceil((USt + sum IntLLM + sum GM + sum FM) * (1 + margin))``
* USt / IntLLM — user statement / per-piece instruction overhead
* OL / CW — a model's max output tokens / context window

A plan is feasible when every piece has OB <= OL and the whole conversation
has WB <= CW.  Margins and FM ratios are treated as exact decimals
(``Fraction(str(m))``, as the integer pair ``p/q``) and every rounding is an
integer division, so e.g. a 5% margin on 20 tokens is exactly 21, not a float
whisker above.

OB never decreases as GM grows, so "OB <= OL" is the same as "GM <= cap" for
one integer, :func:`max_piece_tokens`: with ``fm_max = floor(OL / (1 + MG))``
(:func:`max_filled_tokens`, the largest FM whose OB fits),
``cap = ceil((fm_max + 1/2) / fm_ratio) - 1`` (the largest GM that rounds to an
FM no larger).  Clustering and cutting compare GM against that cap, and the
simulator compares FM against ``fm_max``, and nothing else.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

from .clustering import ClusterAssignment, ClusterParams, cluster
from .data import MODEL_CATALOG
from .dsm import Dsm, build_dsm
from .errors import DuplicateModelName, ParseError, UnknownModel, UnsplittablePiece, require_int
from .manifest import ConversationElement, ConversationModel
from .sequencing import SequencingResult, sequence

if TYPE_CHECKING:
    from .simulator import PlanLayout


@dataclass(frozen=True)
class ModelSpec:
    """Context-window and output limits of one target LLM."""

    name: str
    context_window: int
    max_output_tokens: int

    def __post_init__(self) -> None:
        for name in ("context_window", "max_output_tokens"):
            require_int(name, getattr(self, name))
        if self.context_window <= 0 or self.max_output_tokens <= 0:
            raise ValueError(f"model {self.name!r}: limits must be positive")
        if self.max_output_tokens > self.context_window:
            raise ValueError(f"model {self.name!r}: max output exceeds context window")


@dataclass(frozen=True)
class BudgetConfig:
    margin: float = 0.05
    fm_ratio: float = 1.0
    instructions_per_piece: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.margin < 1:
            raise ValueError("margin must be in [0, 1)")
        if self.fm_ratio <= 0:
            raise ValueError("fm_ratio must be positive")
        if not math.isfinite(self.fm_ratio):
            raise ValueError("fm_ratio must be finite")
        require_int("instructions_per_piece", self.instructions_per_piece)
        if self.instructions_per_piece < 0:
            raise ValueError("instructions_per_piece must be non-negative")


@dataclass(frozen=True)
class ConversationPiece:
    element_ids: tuple[str, ...]
    gm_tokens: int
    fm_tokens: int
    includes_user_statement: bool = False

    def __post_init__(self) -> None:
        if not self.element_ids:
            raise ValueError("a piece needs at least one element")
        for name in ("gm_tokens", "fm_tokens"):
            require_int(name, getattr(self, name))
        if self.gm_tokens < 0 or self.fm_tokens < 0:
            raise ValueError("piece token counts must be non-negative")


@dataclass(frozen=True)
class ConversationPlan:
    pieces: tuple[ConversationPiece, ...]
    model: ModelSpec
    config: BudgetConfig
    conversation: ConversationModel

    def __post_init__(self) -> None:
        # window_budget charges USt once, lay_out with each flagged piece: keep them equal
        for k, piece in enumerate(self.pieces[1:], start=2):
            if piece.includes_user_statement:
                raise ValueError(f"piece {k} carries the user statement; only the first piece may")
        if self.pieces and self.conversation.user_statement_tokens and not self.pieces[0].includes_user_statement:
            raise ValueError("the first piece must carry the conversation's user statement")

    @cached_property
    def _layout(self) -> PlanLayout:
        """The plan laid out as one token stream, window-free (see
        :mod:`dsmplan.simulator`): built on first read and cached, outside
        ``==``, ``hash`` and ``repr``."""
        from .simulator import lay_out  # deferred: the simulator imports this module

        return lay_out(self)


@dataclass(frozen=True)
class PieceBudget:
    ob: int
    ol_headroom: int


@dataclass(frozen=True)
class TokenBudgetReport:
    piece_budgets: tuple[PieceBudget, ...]
    wb: int
    cw_headroom: int
    feasible: bool


@lru_cache(maxsize=64)
def _exact(ratio: float) -> tuple[int, int]:
    """``ratio`` as the exact decimal the caller wrote, in lowest terms ``(p, q)``:
    str() round-trips it, e.g. 0.05 -> (1, 20).  Cached, as configs repeat."""
    return Fraction(str(ratio)).as_integer_ratio()


def _inflate(tokens: int, margin: float) -> int:
    """ceil(tokens * (1 + margin)) with the margin read as an exact decimal."""
    p, q = _exact(margin)
    return -(-tokens * (q + p) // q)


def _filled_tokens(gm_tokens: int, fm_ratio: float) -> int:
    """round(gm_tokens * fm_ratio), half up, with the ratio read as an exact decimal."""
    p, q = _exact(fm_ratio)
    return (2 * gm_tokens * p + q) // (2 * q)


def max_filled_tokens(config: BudgetConfig, spec: ModelSpec) -> int:
    """Largest FM whose reply fits: a piece has OB <= OL exactly when its FM is
    at most ``fm_max = floor(OL / (1 + MG))``."""
    p, q = _exact(config.margin)
    return spec.max_output_tokens * q // (q + p)


def max_piece_tokens(config: BudgetConfig, spec: ModelSpec) -> int:
    """Largest GM whose reply fits: a piece has OB <= OL exactly when its GM is
    at most this cap (see the module docstring for the closed form)."""
    fm_max = max_filled_tokens(config, spec)
    p, q = _exact(config.fm_ratio)
    return -(-(2 * fm_max + 1) * q // (2 * p)) - 1  # ceil((fm_max + 1/2) / fm_ratio) - 1


def output_budget(piece: ConversationPiece, config: BudgetConfig, spec: ModelSpec) -> PieceBudget:
    ob = _inflate(piece.fm_tokens, config.margin)
    return PieceBudget(ob=ob, ol_headroom=spec.max_output_tokens - ob)


def window_budget(plan: ConversationPlan) -> tuple[int, int]:
    """(WB, CW - WB) for the whole conversation: USt once, IntLLM per piece."""
    total = (
        plan.conversation.user_statement_tokens
        + len(plan.pieces) * plan.config.instructions_per_piece
        + sum(p.gm_tokens for p in plan.pieces)
        + sum(p.fm_tokens for p in plan.pieces)
    )
    wb = _inflate(total, plan.config.margin)
    return wb, plan.model.context_window - wb


def budget_report(plan: ConversationPlan) -> TokenBudgetReport:
    piece_budgets = tuple(output_budget(p, plan.config, plan.model) for p in plan.pieces)
    wb, cw_headroom = window_budget(plan)
    feasible = cw_headroom >= 0 and all(b.ol_headroom >= 0 for b in piece_budgets)
    return TokenBudgetReport(
        piece_budgets=piece_budgets, wb=wb, cw_headroom=cw_headroom, feasible=feasible
    )


def _plan(
    chunks: list[tuple[str, ...]],
    conversation: ConversationModel,
    counts: dict[str, int],
    config: BudgetConfig,
    spec: ModelSpec,
) -> ConversationPlan:
    """One piece per chunk of element ids, in order, each weighed by ``counts``
    (the conversation's :meth:`~ConversationModel.token_counts`); the user
    statement rides along with the first piece."""
    pieces = []
    for k, chunk in enumerate(chunks):
        gm = sum(counts[e] for e in chunk)
        fm = _filled_tokens(gm, config.fm_ratio)
        pieces.append(ConversationPiece(chunk, gm, fm, includes_user_statement=(k == 0)))
    return ConversationPlan(
        pieces=tuple(pieces), model=spec, config=config, conversation=conversation
    )


def make_pieces(
    conversation: ConversationModel,
    seq: SequencingResult,
    clusters: ClusterAssignment,
    config: BudgetConfig,
    spec: ModelSpec,
) -> ConversationPlan:
    """Cut the sequenced conversation into pieces in one walk of the sequence.

    A unit is a coupled group (``seq.cycles``) whose GM fits
    :func:`max_piece_tokens`, else one element, and its run key is its first
    element's cluster if that has several members, else "singletons".  A piece
    ends where the key changes or the next unit would push its GM above the
    cap, so no boundary falls inside a group that fits.  The user statement
    rides along with the first piece.
    """
    ids = set(conversation.element_ids)
    if ids != set(seq.element_ids) or ids != set(clusters.cluster_of):
        raise ValueError("sequence and clusters must cover exactly the conversation elements")
    counts = conversation.token_counts()
    cluster_sizes = Counter(clusters.cluster_of.values())

    cap = max_piece_tokens(config, spec)
    # first member -> (size, GM) of each coupled group whose GM fits the cap
    weighed = ((group, sum(counts[e] for e in group)) for group in seq.cycles)
    whole = {group[0]: (len(group), tokens) for group, tokens in weighed if tokens <= cap}
    order = seq.sequenced_ids()
    chunks: list[list[str]] = []
    run_key: object = None
    gm = 0
    i = 0
    while i < len(order):
        first = order[i]
        size, tokens = whole.get(first) or (1, counts[first])
        if tokens > cap:
            raise UnsplittablePiece(first)
        index = clusters.cluster_of[first]
        key = index if cluster_sizes[index] > 1 else "singletons"
        if not chunks or key != run_key or gm + tokens > cap:
            chunks.append([])
            run_key, gm = key, 0
        chunks[-1].extend(order[i : i + size])
        gm += tokens
        i += size
    return _plan([tuple(chunk) for chunk in chunks], conversation, counts, config, spec)


def make_naive_plan(
    conversation: ConversationModel, config: BudgetConfig, spec: ModelSpec
) -> ConversationPlan:
    """The do-nothing baseline: every element in manifest order as one piece.

    Deliberately skips the oversized-piece split — the point of this plan is
    to show what happens without structure-aware cutting.
    """
    ids = conversation.element_ids
    return _plan([ids] if ids else [], conversation, conversation.token_counts(), config, spec)


def literal_plan(
    fm_values: list[int],
    config: BudgetConfig,
    spec: ModelSpec,
    ust_tokens: int = 0,
) -> ConversationPlan:
    """A plan from literal per-piece token figures (one synthetic element each).

    Used to check budget tables whose piece sizes are inputs rather
    than derived quantities.
    """
    elements = tuple(
        ConversationElement(id=f"piece{k + 1}", label=f"piece{k + 1}", token_count=value)
        for k, value in enumerate(fm_values)
    )
    conversation = ConversationModel(elements=elements, user_statement_tokens=ust_tokens)
    return _plan([(e.id,) for e in elements], conversation, conversation.token_counts(), config, spec)


def capped_cluster(
    conversation: ConversationModel,
    cluster_params: ClusterParams,
    config: BudgetConfig,
    spec: ModelSpec,
) -> tuple[Dsm, ClusterAssignment, int]:
    """Build the matrix and cluster it with each cluster's GM capped at
    :func:`max_piece_tokens`; returns (matrix, clusters, cap).

    Raises :class:`UnsplittablePiece` for an element above the cap on its own.
    """
    counts = conversation.token_counts()
    cap = max_piece_tokens(config, spec)
    for element_id, count in counts.items():
        if count > cap:
            raise UnsplittablePiece(element_id)
    dsm = build_dsm(conversation.elements)
    params = replace(cluster_params, max_cluster_tokens=cap)
    return dsm, cluster(dsm, params, token_counts=counts), cap


def plan_conversation(
    conversation: ConversationModel,
    cluster_params: ClusterParams,
    config: BudgetConfig,
    spec: ModelSpec,
) -> tuple[SequencingResult, ClusterAssignment, ConversationPlan]:
    """Full pipeline: matrix, capped clustering, sequence, pieces.

    An empty conversation takes the same path: :func:`cluster` gives it the
    empty assignment and :func:`make_pieces` the zero-piece plan, as
    :func:`make_naive_plan` gives it.
    """
    dsm, clusters, _ = capped_cluster(conversation, cluster_params, config, spec)
    seq = sequence(dsm)
    plan = make_pieces(conversation, seq, clusters, config, spec)
    return seq, clusters, plan


# ---------------------------------------------------------------------------
# Model catalog
# ---------------------------------------------------------------------------


def load_model_catalog(path: str | Path) -> tuple[ModelSpec, ...]:
    """Load ``name,context_window,max_output_tokens`` rows; the first non-blank
    row must be that header."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        numbered = enumerate(csv.reader(handle), start=1)
        rows = [(n, row) for n, row in numbered if row and (len(row) > 1 or row[0].strip())]
    expected = ["name", "context_window", "max_output_tokens"]
    lineno, header = rows[0] if rows else (1, [])
    if [cell.strip().lower() for cell in header] != expected:
        raise ParseError(f"expected header {','.join(expected)!r}", line=lineno)
    specs: list[ModelSpec] = []
    names: set[str] = set()
    for lineno, row in rows[1:]:
        if len(row) != 3:
            raise ParseError(f"expected 3 cells, got {len(row)}", line=lineno)
        name = row[0].strip()
        if name in names:
            raise DuplicateModelName(name)
        names.add(name)
        try:
            cw, ol = int(row[1]), int(row[2])
        except ValueError:
            raise ParseError(f"non-integer limits in row {name!r}", line=lineno) from None
        try:
            specs.append(ModelSpec(name=name, context_window=cw, max_output_tokens=ol))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    return tuple(specs)


def default_model_catalog() -> tuple[ModelSpec, ...]:
    return load_model_catalog(MODEL_CATALOG)


def find_model(catalog: tuple[ModelSpec, ...], name: str) -> ModelSpec:
    for spec in catalog:
        if spec.name == name:
            return spec
    raise UnknownModel(name, tuple(s.name for s in catalog))
