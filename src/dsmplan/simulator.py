"""First-in-first-out context-window simulation.

The window is a queue of whole entries (never split), sent in the order of
the plan's token stream (see :mod:`dsmplan.planning`).  Before a piece is
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

The simulation therefore has two parts.  :func:`dsmplan.planning.lay_out`
walks the plan once, without a window, and its layout is cached on the
frozen plan (outside ``==``, ``hash`` and ``repr``), so a sweep lays a plan
out once.  Per window, :func:`simulate` then costs one
bisection per piece for the evictions (the head only moves forward), one
comparison per piece for oversized pieces, and one per pair for the misses.
It also builds one :class:`SimulationStep` per piece, and on plans of a few
hundred pieces that is most of a window's time, so a step is a NamedTuple,
not a frozen dataclass that sets each field in turn: each is built as a
plain tuple and given its type in one pass that makes no Python call.
:func:`loss_curve` sorts the needs instead, and gives misses and lost tokens
at any window by one bisection.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, repeat
from typing import NamedTuple

from .errors import SpecMismatch, require_int
from .planning import ConversationPlan


class SimulationStep(NamedTuple):
    """One piece's turn in the window; :func:`simulate` builds one per piece
    per window, so it is a NamedTuple (see the module docstring)."""

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
    early_dependencies: int  # len(planning.PlanLayout.early_pairs), the same at every window
    lost_tokens: int
    output_overflow_tokens: int
    missed_pairs: tuple[tuple[str, str], ...]  # (consumer, provider)
    oversized_piece_indices: tuple[int, ...]


def _check_window(context_window: int) -> None:
    """The window rule of :func:`simulate` and :meth:`LossCurve.at`: a positive int."""
    require_int("context_window", context_window)
    if context_window <= 0:
        raise ValueError("context window must be positive")


def simulate(plan: ConversationPlan, *, context_window: int | None = None) -> SimulationReport:
    """Run ``plan`` through a FIFO window of ``context_window`` tokens.

    ``context_window`` defaults to the plan's model; passing it explicitly
    supports sweeps below the model's output limit.  A piece that cannot fit
    the window even on its own is run all the same, evicting its own earliest
    entries, and listed in ``oversized_piece_indices``.  ValueError is raised
    only for a window that is no positive int.

    A call costs one bisection and one ``SimulationStep`` (a NamedTuple) per
    piece and one comparison per dependency that can be missed; the layout
    is read from the plan's cache.
    """
    cw = plan.model.context_window if context_window is None else context_window
    _check_window(cw)
    layout = plan._layout
    piece_starts, piece_ends = layout.piece_starts, layout.piece_ends
    oversized = tuple(k for k, (start, end) in enumerate(zip(piece_starts, piece_ends)) if end - start > cw)
    sent, starts = layout.sent, layout.starts
    steps = []
    head = 0  # sent[:head] have left the window
    for k, (piece, start, end) in enumerate(zip(plan.pieces, piece_starts, piece_ends)):
        new_head = bisect_left(starts, end - cw, head)
        steps.append((k, end - start - piece.fm_tokens, piece.fm_tokens, sent[head:new_head]))
        head = new_head
    missed = [need > cw for need in layout.needs]
    missed_pairs = tuple(compress(layout.pairs, missed))
    return SimulationReport(
        model_name=plan.model.name,
        context_window=cw,
        max_output_tokens=plan.model.max_output_tokens,
        # each made a SimulationStep as its _make does, but without a Python call per step
        steps=tuple(map(tuple.__new__, repeat(SimulationStep), steps)),
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
        _check_window(context_window)
        kept = bisect_right(self.needs, context_window)
        return len(self.needs) - kept, self.lost_from[kept]

    @property
    def lossless_window(self) -> int:
        """The smallest window that loses nothing: the largest need, or 0 when
        there is none.  Every window at least this large loses nothing."""
        return self.needs[-1] if self.needs else 0


def loss_curve(plan: ConversationPlan) -> LossCurve:
    """The plan's loss curve; it never raises."""
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
