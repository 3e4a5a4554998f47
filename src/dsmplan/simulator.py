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

A dependency miss is a (consumer, provider) pair whose provider was already
sent but is no longer in the window when the consumer's piece lands, i.e. the
provider's start offset is below the head.  So each such pair has a *need*,
``end_k`` minus the provider's start: the pair is missed exactly when its
need exceeds CW.  Providers that have not been sent yet (feedback edges
inside coupled groups) are not misses — nothing was lost from the window.
But a provider sent in a later piece means the consumer's piece was answered
without it: each such (consumer, provider) is an *early pair*.  Early pairs
do not depend on the window, so the layout lists them and every report
counts them.

The simulation therefore has two parts.  :func:`lay_out` walks the plan once,
without a window: entry offsets, each piece's start and end, the
output-overflow total, every pair that can be missed with its need, and the
early pairs.  The layout is cached on the frozen plan (outside ``==``,
``hash`` and ``repr``), so a sweep lays a plan out once.  Per window, :func:`simulate` then costs one
bisection per piece for the evictions (the head only moves forward), one
comparison per piece for oversized pieces, and one per pair for the misses.
:func:`loss_curve` sorts the needs instead, and gives misses and lost tokens
at any window by one bisection.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import NamedTuple

from .errors import SpecMismatch, require_int
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
    early_dependencies: int  # len(PlanLayout.early_pairs), the same at every window
    lost_tokens: int
    output_overflow_tokens: int
    missed_pairs: tuple[tuple[str, str], ...]  # (consumer, provider)
    oversized_piece_indices: tuple[int, ...]


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

    A malformed plan, one that sends an element twice or one the conversation
    does not have, raises ValueError at the first such element; nothing is
    cached then, so every later read raises again.  A piece too large for
    some window is no fault here: the layout does not depend on the window.
    """
    counts = plan.conversation.token_counts()
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

    for k, piece in enumerate(plan.pieces):
        piece_start = end
        end += (ust if piece.includes_user_statement else 0) + inst
        for element_id in piece.element_ids:
            tokens = counts.get(element_id)
            if tokens is None:
                raise ValueError(f"piece {k + 1} names {element_id!r}, which is not in the conversation")
            if element_id in start:
                raise ValueError(f"piece {k + 1} sends {element_id!r} a second time")
            start[element_id] = end
            end += tokens
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


def simulate(plan: ConversationPlan, *, context_window: int | None = None) -> SimulationReport:
    """Run ``plan`` through a FIFO window of ``context_window`` tokens.

    ``context_window`` defaults to the plan's model; passing it explicitly
    supports sweeps below the model's output limit.  A piece that cannot fit
    the window even on its own is run all the same, evicting its own earliest
    entries, and listed in ``oversized_piece_indices``.  ValueError is raised
    only for a window that is no positive int, or a malformed plan (:func:`lay_out`).
    """
    cw = plan.model.context_window if context_window is None else context_window
    require_int("context_window", cw)
    if cw <= 0:
        raise ValueError("context window must be positive")
    layout = plan._layout
    piece_starts, piece_ends = layout.piece_starts, layout.piece_ends
    oversized = tuple(k for k, (start, end) in enumerate(zip(piece_starts, piece_ends)) if end - start > cw)
    sent, starts = layout.sent, layout.starts
    steps = []
    head = 0  # sent[:head] have left the window
    for k, piece in enumerate(plan.pieces):
        piece_end = piece_ends[k]
        new_head = bisect_left(starts, piece_end - cw, head)
        tokens_in = piece_end - piece_starts[k] - piece.fm_tokens
        steps.append(SimulationStep(k, tokens_in, piece.fm_tokens, sent[head:new_head]))
        head = new_head
    missed = [need > cw for need in layout.needs]
    missed_pairs = tuple(compress(layout.pairs, missed))
    return SimulationReport(
        model_name=plan.model.name,
        context_window=cw,
        max_output_tokens=plan.model.max_output_tokens,
        steps=tuple(steps),
        dependency_misses=len(missed_pairs),
        early_dependencies=len(layout.early_pairs),
        lost_tokens=sum(compress(layout.provider_tokens, missed)),
        output_overflow_tokens=layout.overflow,
        missed_pairs=missed_pairs,
        oversized_piece_indices=oversized,
    )


class LossCurve(NamedTuple):
    """What a plan loses as a function of the window, from :func:`loss_curve`.

    ``needs`` holds the need of every dependency that can be missed, sorted
    ascending, and ``provider_tokens`` what missing each one loses.
    ``lost_from[i]`` is the sum of ``provider_tokens[i:]``: the tokens lost
    by a window that misses all but the first ``i`` of them.
    """

    needs: tuple[int, ...]
    provider_tokens: tuple[int, ...]
    lost_from: tuple[int, ...]

    def at(self, context_window: int) -> tuple[int, int]:
        """``(dependency_misses, lost_tokens)`` of a run at ``context_window``."""
        require_int("context_window", context_window)
        if context_window <= 0:
            raise ValueError("context window must be positive")
        kept = bisect_right(self.needs, context_window)
        return len(self.needs) - kept, self.lost_from[kept]

    @property
    def lossless_window(self) -> int:
        """The smallest window that loses nothing: the largest need, or 0 when
        there is none.  Every window at least this large loses nothing."""
        return self.needs[-1] if self.needs else 0


def loss_curve(plan: ConversationPlan) -> LossCurve:
    """The plan's loss curve; a malformed plan raises ValueError as in :func:`simulate`."""
    layout = plan._layout
    ranked = sorted(zip(layout.needs, layout.provider_tokens))
    provider_tokens = tuple(tokens for _, tokens in ranked)
    lost_from = list(accumulate(reversed(provider_tokens), initial=0))
    return LossCurve(tuple(need for need, _ in ranked), provider_tokens, tuple(reversed(lost_from)))


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
