"""Conversation pieces, token budgets and the window-free token stream.

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
layout compares FM against ``fm_max``, and nothing else.

A plan is built from its pieces' element ids alone: :class:`ConversationPlan`
derives each piece's GM, FM and user-statement flag, so every cutter hands it
ids and no piece can disagree with its elements.

A plan is sent as one stream of whole entries: per piece, the user statement
(first piece only), the instruction block, the piece's elements in order,
then the modeled reply of exactly ``fm_tokens``.  :func:`window_budget` sums
that stream, and :func:`lay_out` walks it once, without a window: each
entry's start offset, each piece's start and end, the output-overflow total,
every (consumer, provider) pair that can be missed with its *need* (its
piece's end minus the provider's start), and the *early pairs*, whose
provider comes in a later piece.  The layout is cached on the frozen plan, so
:mod:`dsmplan.simulator` only adds the window to it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from pathlib import Path
from typing import NamedTuple

from .clustering import ClusterAssignment, ClusterParams, cluster
from .data import MODEL_CATALOG
from .dsm import build_dsm
from .errors import DuplicateModelName, ParseError, UnknownModel, UnsplittablePiece, require_int
from .manifest import ConversationElement, ConversationModel, read_csv_table
from .sequencing import SequencingResult, sequence


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
    """A conversation cut into pieces, each given as its element ids in the
    order sent; elements may be left out.  ``pieces`` is derived, one record
    per piece: GM is its members' counts, FM that GM filled at the config's
    ``fm_ratio``, and only the first piece carries the user statement.  So
    ``replace(plan, config=...)`` re-derives FM and ``replace(plan,
    piece_ids=...)`` checks the new cut."""

    piece_ids: tuple[tuple[str, ...], ...]
    model: ModelSpec
    config: BudgetConfig
    conversation: ConversationModel
    pieces: tuple[ConversationPiece, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Each element a piece names is in the conversation and sent once, and
        is checked before its count is read.  ValueError names the first fault,
        piece by piece."""
        counts = self.conversation.counts
        unsent = set(counts)
        pieces = []
        for k, element_ids in enumerate(self.piece_ids, start=1):
            gm = 0
            for element_id in element_ids:
                if element_id not in unsent:
                    if element_id in counts:
                        raise ValueError(f"piece {k} sends {element_id!r} a second time")
                    raise ValueError(f"piece {k} names {element_id!r}, which is not in the conversation")
                unsent.remove(element_id)
                gm += counts[element_id]
            fm = _filled_tokens(gm, self.config.fm_ratio)
            pieces.append(ConversationPiece(element_ids, gm, fm, includes_user_statement=(k == 1)))
        object.__setattr__(self, "pieces", tuple(pieces))

    @cached_property
    def _layout(self) -> PlanLayout:
        """The plan's token stream (:func:`lay_out`), built on first read and
        cached outside ``==``, ``hash`` and ``repr``."""
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


class PlanLayout(NamedTuple):
    """A plan laid out as one token stream: everything about a FIFO run that
    does not depend on the window.  Built by :func:`lay_out`."""

    sent: tuple[str, ...]  # element ids in stream order
    starts: tuple[int, ...]  # their start offsets, non-decreasing
    piece_starts: tuple[int, ...]  # offset of each piece's first entry
    piece_ends: tuple[int, ...]  # offset after each piece's reply
    overflow: int  # output-overflow tokens over all pieces
    pairs: tuple[tuple[str, str], ...]  # (consumer, provider) that can be missed, in report order
    needs: tuple[int, ...]  # per pair: its piece's end minus the provider's start
    provider_tokens: tuple[int, ...]  # per pair: what missing it loses
    early_pairs: tuple[tuple[str, str], ...]  # (consumer, provider) sent in a later piece, in report order


def lay_out(plan: ConversationPlan) -> PlanLayout:
    """Walk ``plan`` once and lay it out; read it as the plan's cached ``_layout``.

    A piece too large for some window is no fault: the layout does not depend on the window.
    """
    counts = plan.conversation.counts
    deps = plan.conversation.dependencies()
    inst = plan.config.instructions_per_piece
    ust = plan.conversation.user_statement_tokens
    fm_max = max_filled_tokens(plan.config, plan.model)

    start: dict[str, int] = {}  # element id -> stream offset of its entry
    piece_starts: list[int] = []
    piece_ends: list[int] = []
    pairs: list[tuple[str, str]] = []
    needs: list[int] = []
    provider_tokens: list[int] = []
    unsent: list[tuple[str, str]] = []  # (consumer, provider) not sent by the consumer's piece
    overflow = 0
    end = 0  # stream offset after the last entry sent

    for piece in plan.pieces:
        piece_start = end
        end += (ust if piece.includes_user_statement else 0) + inst
        for element_id in piece.element_ids:
            start[element_id] = end
            end += counts[element_id]
        end += piece.fm_tokens
        piece_starts.append(piece_start)
        piece_ends.append(end)
        for element_id in piece.element_ids:
            for provider in deps[element_id]:
                provider_start = start.get(provider)
                if provider_start is None:  # a provider not sent yet can't be missed
                    unsent.append((element_id, provider))
                else:
                    pairs.append((element_id, provider))
                    needs.append(end - provider_start)
                    provider_tokens.append(counts[provider])
        if piece.fm_tokens > fm_max:  # exactly when OB > OL
            overflow -= output_budget(piece, plan.config, plan.model).ol_headroom

    return PlanLayout(
        sent=tuple(start),
        starts=tuple(start.values()),
        piece_starts=tuple(piece_starts),
        piece_ends=tuple(piece_ends),
        overflow=overflow,
        pairs=tuple(pairs),
        needs=tuple(needs),
        provider_tokens=tuple(provider_tokens),
        early_pairs=tuple(pair for pair in unsent if pair[1] in start),
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
    counts = conversation.counts
    if counts.keys() != set(seq.element_ids) or counts.keys() != set(clusters.cluster_of):
        raise ValueError("sequence and clusters must cover exactly the conversation elements")
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
    return ConversationPlan(tuple(map(tuple, chunks)), spec, config, conversation)


def make_naive_plan(
    conversation: ConversationModel, config: BudgetConfig, spec: ModelSpec
) -> ConversationPlan:
    """The do-nothing baseline: every element in manifest order as one piece.

    Deliberately skips the oversized-piece split — the point of this plan is
    to show what happens without structure-aware cutting.
    """
    ids = conversation.element_ids
    return ConversationPlan((ids,) if ids else (), spec, config, conversation)


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
    return ConversationPlan(tuple((e.id,) for e in elements), spec, config, conversation)


def plan_conversation(
    conversation: ConversationModel,
    cluster_params: ClusterParams,
    config: BudgetConfig,
    spec: ModelSpec,
) -> tuple[SequencingResult, ClusterAssignment, ConversationPlan]:
    """Full pipeline: matrix, clustering with each cluster's GM capped at
    :func:`max_piece_tokens`, sequence, pieces.

    Raises :class:`UnsplittablePiece` for an element above the cap on its own,
    before the search.  An empty conversation takes the same path:
    :func:`cluster` gives it the empty assignment and :func:`make_pieces` the
    zero-piece plan, as :func:`make_naive_plan` gives it.
    """
    cap = max_piece_tokens(config, spec)
    for element_id, count in conversation.counts.items():
        if count > cap:
            raise UnsplittablePiece(element_id)
    dsm = build_dsm(conversation)
    clusters = cluster(dsm, replace(cluster_params, max_cluster_tokens=cap), token_counts=conversation.counts)
    seq = sequence(dsm)
    return seq, clusters, make_pieces(conversation, seq, clusters, config, spec)


# ---------------------------------------------------------------------------
# Model catalog
# ---------------------------------------------------------------------------


def load_model_catalog(path: str | Path) -> tuple[ModelSpec, ...]:
    """Load the rows of a catalog CSV headed ``name,context_window,max_output_tokens``."""
    specs: list[ModelSpec] = []
    names: set[str] = set()
    for line, row in read_csv_table(path, "catalog", ("name", "context_window", "max_output_tokens")):
        name = row[0].strip()
        if name in names:
            raise DuplicateModelName(name)
        names.add(name)
        try:
            cw, ol = int(row[1]), int(row[2])
        except ValueError:
            raise ParseError(f"non-integer limits in row {name!r}", line=line) from None
        try:
            specs.append(ModelSpec(name=name, context_window=cw, max_output_tokens=ol))
        except ValueError as exc:
            raise ParseError(str(exc), line=line) from None
    return tuple(specs)


def default_model_catalog() -> tuple[ModelSpec, ...]:
    return load_model_catalog(MODEL_CATALOG)


def find_model(catalog: tuple[ModelSpec, ...], name: str) -> ModelSpec:
    for spec in catalog:
        if spec.name == name:
            return spec
    raise UnknownModel(name, tuple(s.name for s in catalog))
