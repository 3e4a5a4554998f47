"""First-in-first-out context-window simulation.

The window is a queue of whole entries (never split): per piece, the user
statement (first piece only), the instruction block, the piece's elements in
order, then the modeled reply of exactly ``fm_tokens``.  Before a piece is
sent, the oldest entries are evicted until the piece's input plus projected
reply fits; a piece larger than the window then evicts its own earliest
entries, which is precisely the failure mode worth measuring.

Laid out as one stream of token offsets, that rule has a closed form.  The
stream only grows, so after piece k the window is the longest suffix of the
stream that ends at piece k's end offset ``end_k`` and fits in CW: an entry
is held exactly when its start offset is at least the head ``end_k - CW``.
The head only moves forward, so each step's evictions are found by one
bisection over the element start offsets.

A dependency miss is a (consumer, provider) pair whose provider was already
sent but is no longer in the window when the consumer's piece lands, i.e. the
provider's start offset is below the head.  Providers that have not been sent
yet (feedback edges inside coupled groups) are not misses — nothing was lost
from the window.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import PieceExceedsWindow, SpecMismatch
from .planning import ConversationPlan, max_filled_tokens, output_budget


@dataclass(frozen=True)
class SimulationStep:
    piece_index: int
    tokens_in: int
    tokens_out: int
    evicted_element_ids: tuple[str, ...]


@dataclass(frozen=True)
class SimulationReport:
    model_name: str
    context_window: int  # effective window the run used
    max_output_tokens: int
    steps: tuple[SimulationStep, ...]
    dependency_misses: int
    lost_tokens: int
    output_overflow_tokens: int
    missed_pairs: tuple[tuple[str, str], ...]  # (consumer, provider)
    oversized_piece_indices: tuple[int, ...]


def simulate(
    plan: ConversationPlan,
    *,
    context_window: int | None = None,
    strict: bool = False,
) -> SimulationReport:
    """Run ``plan`` through a FIFO window of ``context_window`` tokens.

    ``context_window`` defaults to the plan's model; passing it explicitly
    supports sweeps below the model's output limit.  With ``strict`` a piece
    that cannot fit the window even on its own raises PieceExceedsWindow;
    otherwise the run continues and the piece index is reported.  A plan that
    sends an element twice, or one the conversation does not have, raises
    ValueError.
    """
    cw = plan.model.context_window if context_window is None else context_window
    if cw <= 0:
        raise ValueError("context window must be positive")
    counts = plan.conversation.token_counts()
    deps = plan.conversation.dependencies()
    inst = plan.config.instructions_per_piece
    ust = plan.conversation.user_statement_tokens
    fm_max = max_filled_tokens(plan.config, plan.model)

    start: dict[str, int] = {}  # element id -> stream offset of its entry
    sent: list[str] = []  # element ids in stream order
    starts: list[int] = []  # their start offsets, non-decreasing
    head = 0  # sent[:head] have left the window
    end = 0  # stream offset after the last entry sent

    steps: list[SimulationStep] = []
    missed_pairs: list[tuple[str, str]] = []
    lost_tokens = 0
    overflow = 0
    oversized: list[int] = []

    for k, piece in enumerate(plan.pieces):
        piece_start = end
        end += (ust if piece.includes_user_statement else 0) + inst
        for element_id in piece.element_ids:
            tokens = counts.get(element_id)
            if tokens is None:
                raise ValueError(
                    f"piece {k + 1} names {element_id!r}, which is not in the conversation"
                )
            if element_id in start:
                raise ValueError(f"piece {k + 1} sends {element_id!r} a second time")
            start[element_id] = end
            sent.append(element_id)
            starts.append(end)
            end += tokens
        end += piece.fm_tokens
        incoming = end - piece_start
        if incoming > cw:
            if strict:
                raise PieceExceedsWindow(k)
            oversized.append(k)

        head_offset = end - cw  # the window holds exactly the entries starting here or later
        new_head = bisect_left(starts, head_offset, head)
        evicted = tuple(sent[head:new_head])
        head = new_head
        for element_id in piece.element_ids:
            for provider in deps[element_id]:
                # a provider not sent yet counts as held: nothing was lost
                if start.get(provider, head_offset) < head_offset:
                    missed_pairs.append((element_id, provider))
                    lost_tokens += counts[provider]
        steps.append(
            SimulationStep(
                piece_index=k,
                tokens_in=incoming - piece.fm_tokens,
                tokens_out=piece.fm_tokens,
                evicted_element_ids=evicted,
            )
        )
        if piece.fm_tokens > fm_max:  # exactly when OB > OL
            overflow -= output_budget(piece, plan.config, plan.model).ol_headroom

    return SimulationReport(
        model_name=plan.model.name,
        context_window=cw,
        max_output_tokens=plan.model.max_output_tokens,
        steps=tuple(steps),
        dependency_misses=len(missed_pairs),
        lost_tokens=lost_tokens,
        output_overflow_tokens=overflow,
        missed_pairs=tuple(missed_pairs),
        oversized_piece_indices=tuple(oversized),
    )


@dataclass(frozen=True)
class MetricDelta:
    metric: str
    baseline: int
    candidate: int
    delta: int  # candidate - baseline; lower is better for every metric here
    verdict: str  # improved | worse | equal


def compare(baseline: SimulationReport, candidate: SimulationReport) -> tuple[MetricDelta, ...]:
    """Metric-by-metric delta of two runs against the same model and window."""
    same = (
        baseline.model_name == candidate.model_name
        and baseline.context_window == candidate.context_window
        and baseline.max_output_tokens == candidate.max_output_tokens
    )
    if not same:
        raise SpecMismatch(
            "cannot compare runs against different models or windows: "
            f"{baseline.model_name}@{baseline.context_window} vs "
            f"{candidate.model_name}@{candidate.context_window}"
        )
    deltas = []
    for metric in ("dependency_misses", "lost_tokens", "output_overflow_tokens"):
        b = getattr(baseline, metric)
        c = getattr(candidate, metric)
        verdict = "equal" if c == b else ("improved" if c < b else "worse")
        deltas.append(MetricDelta(metric=metric, baseline=b, candidate=c, delta=c - b, verdict=verdict))
    return tuple(deltas)
