"""Seeded synthetic conversation manifests for the benchmark.

Element k depends on ``mean_deps`` elements drawn from the ``DEP_REACH``
elements before it (conversations mostly refer back to recent material).  One
element in every ``1 / feedback_rate`` consecutive ones, at a seeded position,
also depends on one a short distance *ahead* of it, and that later element
depends back on it, so the pair is coupled and sequencing has to condense
it.  Because feedback reaches only ``feedback_reach`` positions forward, the
coupled groups stay small.

Token sizes are the quantiles of a clipped log-normal distribution, dealt to
the elements in seeded order.  Both choices are stratified so that every
seed sees the same size multiset and about evenly spaced coupled groups:
plan-quality totals then move with the structure, not with sampling noise.
Sizes are written either as literal ``tokens`` or as ``text`` whose
approximate count is that size.

Only the standard library's ``random.Random`` with a string seed is used, so
the same seed gives byte-identical manifests on every platform and Python.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from statistics import NormalDist

# plain ASCII words: each one is exactly one approximate token
_WORDS = (
    "orbit mass power thermal margin budget link antenna battery solar panel "
    "radiator bus payload sensor downlink uplink attitude wheel thruster tank "
    "harness frame bracket load case mode duty cycle peak nominal worst"
).split()

DEP_REACH = 40  # deps are drawn from this many preceding elements
USER_TOKENS = 200


@dataclass(frozen=True)
class ManifestSpec:
    """Shape of one synthetic conversation."""

    n: int
    mean_deps: float = 4.0
    feedback_rate: float = 0.05  # share of elements that get one forward dep
    feedback_reach: int = 4  # how many positions forward a feedback dep may point
    token_median: float = 120.0
    token_sigma: float = 0.5  # log-normal shape
    token_min: int = 10
    token_max: int = 1500
    text: bool = False  # write `text` to be counted instead of literal `tokens`
    instruction_tokens: int = 20

    def __post_init__(self) -> None:
        if self.n < 1 or self.mean_deps < 0 or not 0 <= self.feedback_rate <= 1:
            raise ValueError("need n >= 1, mean_deps >= 0 and feedback_rate in [0, 1]")
        if self.feedback_reach < 1 or not 1 <= self.token_min <= self.token_max:
            raise ValueError("need feedback_reach >= 1 and 1 <= token_min <= token_max")


def _text(rng: random.Random, tokens: int) -> str:
    """Words and punctuation whose approximate token count is exactly ``tokens``."""
    parts: list[str] = []
    for k in range(tokens):
        if k % 8 == 7:
            parts[-1] += ","  # glued punctuation is its own token
        else:
            parts.append(rng.choice(_WORDS))
    return " ".join(parts)


def _sizes(spec: ManifestSpec) -> list[int]:
    shape = NormalDist(math.log(spec.token_median), spec.token_sigma)
    quantiles = (math.exp(shape.inv_cdf((k + 0.5) / spec.n)) for k in range(spec.n))
    return [min(spec.token_max, max(spec.token_min, round(q))) for q in quantiles]


def manifest(spec: ManifestSpec, seed: str) -> dict:
    """One manifest document for ``spec``, fully determined by ``seed``."""
    rng = random.Random(seed)
    width = len(str(spec.n))
    ids = [f"e{k:0{width}d}" for k in range(spec.n)]
    sizes = _sizes(spec)
    rng.shuffle(sizes)
    whole, fraction = divmod(spec.mean_deps, 1)
    blocks = math.ceil(spec.n * spec.feedback_rate)
    feedback = {math.floor((j + rng.random()) / spec.feedback_rate) for j in range(blocks)}
    coupled_back: dict[int, int] = {}  # later element -> the earlier one it closes a cycle with
    elements = []
    for k in range(spec.n):
        first = max(0, k - DEP_REACH)
        wanted = int(whole) + (rng.random() < fraction)
        deps = set(rng.sample(range(first, k), min(k - first, wanted)))
        if k in coupled_back:
            deps.add(coupled_back.pop(k))
        ordered = sorted(deps)
        if k + 1 < spec.n and k in feedback:
            ahead = min(spec.n - 1, k + rng.randint(1, spec.feedback_reach))
            ordered.append(ahead)
            coupled_back.setdefault(ahead, k)
        element: dict = {"id": ids[k], "deps": [ids[j] for j in ordered]}
        if spec.text:
            element["text"] = _text(rng, sizes[k])
        else:
            element["tokens"] = sizes[k]
        elements.append(element)
    return {
        "user_statement": {"tokens": USER_TOKENS},
        "instructions": {"tokens": spec.instruction_tokens},
        "elements": elements,
    }


def manifest_bytes(spec: ManifestSpec, seed: str) -> bytes:
    """Canonical JSON encoding of :func:`manifest`."""
    return (json.dumps(manifest(spec, seed), separators=(",", ":")) + "\n").encode("utf-8")
