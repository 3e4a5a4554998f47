"""Correctness checks on plans, budget tables and FIFO simulations.

Every check works on plain values (the shapes the CLI prints as JSON) and
recomputes what it can from the raw manifest, so the library and the CLI are
checked by the same code and independently of the code under test.  A check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# one token per maximal alphanumeric run, one per other non-space character;
# exact for the ASCII text the benchmark generates
_TOKEN = re.compile(r"[A-Za-z0-9]+|[^\sA-Za-z0-9]")


@dataclass(frozen=True)
class Manifest:
    """What the benchmark knows about a manifest without asking dsmplan."""

    ids: tuple[str, ...]
    tokens: dict[str, int]
    deps: dict[str, tuple[str, ...]]
    user_tokens: int
    instruction_tokens: int
    text_chars: int


def _statement(raw: object) -> int:
    if isinstance(raw, dict):
        return raw["tokens"]
    return len(_TOKEN.findall(raw)) if isinstance(raw, str) else 0


def read_manifest(path: Path) -> Manifest:
    doc = json.loads(path.read_text(encoding="utf-8"))
    tokens: dict[str, int] = {}
    chars = 0
    for element in doc["elements"]:
        if "tokens" in element:
            tokens[element["id"]] = element["tokens"]
        else:
            tokens[element["id"]] = len(_TOKEN.findall(element["text"]))
            chars += len(element["text"])
    return Manifest(
        ids=tuple(e["id"] for e in doc["elements"]),
        tokens=tokens,
        deps={e["id"]: tuple(e.get("deps", ())) for e in doc["elements"]},
        user_tokens=_statement(doc.get("user_statement")),
        instruction_tokens=_statement(doc.get("instructions")),
        text_chars=chars,
    )


@dataclass(frozen=True)
class Piece:
    ids: tuple[str, ...]
    gm: int
    fm: int
    ob: int
    ol_headroom: int
    with_user_statement: bool


@dataclass(frozen=True)
class Budget:
    """A plan's budget table, as ``dsmplan plan --format json`` prints it."""

    pieces: tuple[Piece, ...]
    context_window: int
    max_output: int
    instructions_per_piece: int
    wb: int
    cw_headroom: int
    feasible: bool

    @classmethod
    def from_json(cls, payload: dict) -> "Budget":
        return cls(
            pieces=tuple(
                Piece(
                    tuple(p["elements"]),
                    p["gm_tokens"],
                    p["fm_tokens"],
                    p["ob"],
                    p["ol_headroom"],
                    p["includes_user_statement"],
                )
                for p in payload["pieces"]
            ),
            context_window=payload["model"]["context_window"],
            max_output=payload["model"]["max_output_tokens"],
            instructions_per_piece=payload["config"]["instructions_per_piece"],
            wb=payload["wb"],
            cw_headroom=payload["cw_headroom"],
            feasible=payload["feasible"],
        )

    @classmethod
    def from_plan(cls, plan, report) -> "Budget":
        """From a dsmplan ConversationPlan and its TokenBudgetReport."""
        return cls(
            pieces=tuple(
                Piece(p.element_ids, p.gm_tokens, p.fm_tokens, b.ob, b.ol_headroom, p.includes_user_statement)
                for p, b in zip(plan.pieces, report.piece_budgets, strict=True)
            ),
            context_window=plan.model.context_window,
            max_output=plan.model.max_output_tokens,
            instructions_per_piece=plan.config.instructions_per_piece,
            wb=report.wb,
            cw_headroom=report.cw_headroom,
            feasible=report.feasible,
        )


@dataclass(frozen=True)
class Step:
    tokens_in: int
    tokens_out: int
    evicted: tuple[str, ...]


@dataclass(frozen=True)
class Simulation:
    """One FIFO run, as ``dsmplan simulate --format json`` prints it."""

    context_window: int
    steps: tuple[Step, ...]
    misses: int
    lost_tokens: int
    missed_pairs: tuple[tuple[str, str], ...]

    @classmethod
    def from_json(cls, payload: dict) -> "Simulation":
        return cls(
            context_window=payload["context_window"],
            steps=tuple(Step(s["tokens_in"], s["tokens_out"], tuple(s["evicted"])) for s in payload["steps"]),
            misses=payload["dependency_misses"],
            lost_tokens=payload["lost_tokens"],
            missed_pairs=tuple(tuple(pair) for pair in payload["missed_pairs"]),
        )

    @classmethod
    def from_report(cls, report) -> "Simulation":
        """From a dsmplan SimulationReport."""
        return cls(
            context_window=report.context_window,
            steps=tuple(Step(s.tokens_in, s.tokens_out, s.evicted_element_ids) for s in report.steps),
            misses=report.dependency_misses,
            lost_tokens=report.lost_tokens,
            missed_pairs=report.missed_pairs,
        )


def _ceil(value: Fraction) -> int:
    return -((-value.numerator) // value.denominator)


def check_pieces(budget: Budget, sequenced: tuple[str, ...], manifest: Manifest) -> list[str]:
    """Pieces partition the elements and are contiguous in sequence order."""
    problems = []
    if set(sequenced) != set(manifest.ids) or len(sequenced) != len(manifest.ids):
        problems.append("sequence is not a permutation of the manifest's elements")
    cut = tuple(e for piece in budget.pieces for e in piece.ids)
    if cut != tuple(sequenced):
        problems.append("pieces do not cut the sequence into contiguous runs covering it once")
    if any(not piece.ids for piece in budget.pieces):
        problems.append("empty piece")
    flags = [piece.with_user_statement for piece in budget.pieces]
    if flags and flags != [True] + [False] * (len(flags) - 1):
        problems.append("the user statement must ride with the first piece only")
    return problems


def check_sequence(sequenced: tuple[str, ...], cycles, manifest: Manifest) -> list[str]:
    """Providers precede consumers except inside a coupled group."""
    position = {e: k for k, e in enumerate(sequenced)}
    group = {e: k for k, members in enumerate(cycles) for e in members}
    late = [
        (consumer, provider)
        for consumer, providers in manifest.deps.items()
        for provider in providers
        if position[provider] > position[consumer]
        and (consumer not in group or group.get(provider) != group[consumer])
    ]
    return [f"provider after consumer outside a coupled group: {late[:3]}"] if late else []


def check_budget(budget: Budget, manifest: Manifest, margin: str) -> list[str]:
    """GM, FM, OB and WB recomputed with exact fractions from the raw manifest.

    Every workload plans at the default fm_ratio of 1, so FM equals GM.
    """
    mg = Fraction(margin)
    problems = []
    window = manifest.user_tokens + budget.instructions_per_piece * len(budget.pieces)
    fits = True
    for k, piece in enumerate(budget.pieces):
        gm = sum(manifest.tokens[e] for e in piece.ids)
        fm = gm
        ob = _ceil(fm * (1 + mg))
        if (piece.gm, piece.fm, piece.ob, piece.ol_headroom) != (gm, fm, ob, budget.max_output - ob):
            problems.append(f"piece {k + 1}: GM/FM/OB/headroom {piece.gm}/{piece.fm}/{piece.ob}/"
                            f"{piece.ol_headroom}, expected {gm}/{fm}/{ob}/{budget.max_output - ob}")
        window += gm + fm
        fits = fits and ob <= budget.max_output
    wb = _ceil(window * (1 + mg))
    if (budget.wb, budget.cw_headroom) != (wb, budget.context_window - wb):
        problems.append(f"WB {budget.wb}, expected {wb}")
    if budget.feasible != (fits and wb <= budget.context_window):
        problems.append("feasibility verdict disagrees with the recomputed budgets")
    return problems


def check_simulation(sim: Simulation, budget: Budget, manifest: Manifest) -> list[str]:
    """Token accounting of one FIFO run is conserved and its misses are exact.

    Each step must carry exactly its piece's input (user statement on the
    first piece, instructions, members) and reply; each element may be
    evicted once, only after it was sent; and the missed pairs must be
    exactly the dependencies whose provider had been evicted by the time the
    consumer's piece landed.
    """
    if len(sim.steps) != len(budget.pieces):
        return [f"{len(sim.steps)} simulation steps for {len(budget.pieces)} pieces"]
    problems = []
    sent: set[str] = set()
    gone: set[str] = set()
    missed: list[tuple[str, str]] = []
    for k, (step, piece) in enumerate(zip(sim.steps, budget.pieces)):
        tokens_in = (
            (manifest.user_tokens if piece.with_user_statement else 0)
            + budget.instructions_per_piece
            + sum(manifest.tokens[e] for e in piece.ids)
        )
        if (step.tokens_in, step.tokens_out) != (tokens_in, piece.fm):
            problems.append(f"step {k + 1}: {step.tokens_in} in / {step.tokens_out} out, "
                            f"expected {tokens_in} / {piece.fm}")
        sent.update(piece.ids)
        for e in step.evicted:
            if e not in sent or e in gone:
                problems.append(f"step {k + 1}: {e} evicted before it was sent, or twice")
            gone.add(e)
        missed.extend((c, p) for c in piece.ids for p in manifest.deps[c] if p in gone)
    if tuple(missed) != sim.missed_pairs or sim.misses != len(missed):
        problems.append(f"{sim.misses} misses reported, {len(missed)} follow from the evictions")
    if sim.lost_tokens != sum(manifest.tokens[p] for _, p in missed):
        problems.append("lost tokens do not sum the missed providers")
    total = sum(s.tokens_in + s.tokens_out for s in sim.steps)
    if total <= sim.context_window and gone:
        problems.append("a window that holds the whole conversation evicted something")
    return problems
