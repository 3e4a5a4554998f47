"""The benchmark's workloads.

Each runs one closed loop: a single client issues one operation at a time and
the next only after the previous one returned.  It keeps going until its time
is up, but always finishes one full pass over its manifests, and it checks
every output.  Plan quality and layer counts come from that first pass, so
they repeat exactly; later passes must reproduce the first pass's outputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (
    Budget,
    Manifest,
    Simulation,
    check_budget,
    check_pieces,
    check_sequence,
    check_simulation,
    read_manifest,
)
# dsmplan is called through its package namespace throughout, so that the
# tracer's wrappers see the calls made inside a traced request
import dsmplan
from dsmplan import cli
from dsmplan.data import SPACECRAFT_EXPECTED
from tracing import Tracer

MARGIN = "0.05"
PARAMS = dsmplan.ClusterParams()  # the CLI's default search settings
PROBES = 5  # interpreter and import timings are medians of this many fresh processes

# `dsmplan simulate` exits 1 when a naive or planned piece cannot fit the
# window; the spacecraft corpus's naive single piece needs 19 488 tokens
SPACECRAFT_SIMULATE_EXIT = {4000: 1, 8000: 1, 16000: 1, 32000: 0}
SPACECRAFT_BUDGET = ["--fm", "272,1438,7703,16", "--ust", "190", "--instructions", "50",
                     "--margin", MARGIN, "--model", "mistral-7b"]  # fmt: skip


class Tally:
    """Operations attempted and failed, and the seconds each kind took."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.seconds: dict[str, list[float]] = defaultdict(list)

    def attempt(self, kind: str, label: str, operation: Callable, check: Callable[..., list[str]]):
        """Run and time one operation; an error or a failed check counts it failed.

        Returns the output if it passed its check, else None.
        """
        self.attempted += 1
        try:
            start = time.perf_counter()
            out = operation()
            self.seconds[kind].append(time.perf_counter() - start)
            problems = check(out)
        except Exception as exc:  # a failing operation is counted; the run goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.fail(label, problems)
            return None
        return out

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{label}: {p}" for p in problems]

    def median(self, kind: str) -> float | None:
        return _median(self.seconds.get(kind, ()))


def _median(values) -> float | None:
    """Median, or None when nothing was measured (every such operation failed)."""
    values = list(values)
    return statistics.median(values) if values else None


@dataclass
class Planned:
    sequence: dsmplan.SequencingResult
    clusters: dsmplan.ClusterAssignment
    plan: dsmplan.ConversationPlan
    report: dsmplan.TokenBudgetReport


def _traced(tracer: Tracer | None, operation: str, request: str):
    return tracer.request(operation, request) if tracer else contextlib.nullcontext()


def _variants(tracer: Tracer | None) -> list[tuple[str, Tracer | None]]:
    """Untraced only, or untraced then traced: the traced run times both."""
    return [("", None), ("trace.", tracer)] if tracer else [("", None)]


def _plan_problems(planned: Planned, manifest: Manifest) -> list[str]:
    budget = Budget.from_plan(planned.plan, planned.report)
    ids = planned.sequence.sequenced_ids()
    return (
        check_sequence(ids, planned.sequence.cycles, manifest)
        + check_pieces(budget, ids, manifest)
        + check_budget(budget, manifest, MARGIN)
    )


def _same_as(first: dict, key, value) -> list[str]:
    """Record ``value`` the first time ``key`` is seen; afterwards it must repeat."""
    if first.setdefault(key, value) != value:
        return [f"output differs from the first run of {key}"]
    return []


def layer_counts(planned: Planned, dsm, manifest: Manifest, sims) -> Counter:
    """Work counts of one plan and its simulation sweep, for the traced run."""
    cluster_of = planned.clusters.cluster_of
    sizes = Counter(cluster_of.values())
    runs = [key for key, _ in itertools.groupby(
        planned.sequence.sequenced_ids(), lambda e: cluster_of[e] if sizes[cluster_of[e]] > 1 else None
    )]  # fmt: skip
    cycles = planned.sequence.cycles
    return Counter({
        "planning.pieces": len(planned.plan.pieces),
        "planning.split_pieces": len(planned.plan.pieces) - len(runs),
        "tokens.text_chars": manifest.text_chars,
        "dsm.marks": int(np.count_nonzero(dsm.weights)),
        "dsm.matrix_bytes": dsm.n * dsm.n * 8,
        "sequencing.coupled_groups": len(cycles),
        "sequencing.levels": len(planned.sequence.levels),
        "sequencing.feedback_marks_before": dsmplan.above_diagonal_marks(dsm),
        "sequencing.feedback_marks_after": dsmplan.above_diagonal_marks(dsmplan.permute(dsm, planned.sequence.order)),
        "simulator.steps": sum(len(s.steps) for s in sims),
        "simulator.evicted_elements": sum(len(step.evicted_element_ids) for s in sims for step in s.steps),
    })  # fmt: skip


def plan_quality(dsm, piece_ids, clusters) -> dict[str, float]:
    """J of the pieces actually cut, and how many multi-member clusters the cut keeps whole.

    Both come from ``assignment_from_groups`` over the pieces, so they are
    scored exactly as the search scores its own clusters.
    """
    pieces = dsmplan.assignment_from_groups(dsm, piece_ids)
    piece_size = Counter(pieces.cluster_of.values())
    multi = [group for group in clusters.clusters() if len(group) > 1]
    kept = sum(
        1
        for group in multi
        if len({pieces.cluster_of[e] for e in group}) == 1 and piece_size[pieces.cluster_of[group[0]]] == len(group)
    )
    return {
        "plan_j": pieces.j_total,
        "multi_clusters": len(multi),
        "kept_clusters": kept,
        "clustering.j": clusters.j_total,
        "singletons_j": dsmplan.assignment_from_groups(dsm, [[e] for e in dsm.element_ids]).j_total,
    }


def layer_metrics(tally: Tally, tracer: Tracer, totals: Counter, largest_group: int, env: dict) -> dict:
    """Per-layer metrics of a traced run: medians per operation for times,
    totals over one pass of the manifests for counts."""
    plans = [tracer.breakdown(root) for root in tracer.roots("plan")]
    sims = [tracer.breakdown(root) for root in tracer.roots("simulate")]

    def self_time(key: str, rows: list[dict]) -> float | None:
        return _median(row.get(key, 0.0) for row in rows)

    interpreter, imports = python_startup(env)
    traced, untraced = tally.median("trace.plan"), tally.median("plan")
    multi, singletons = totals["multi_clusters"], totals["singletons_j"]
    counts = {name: value for name, value in totals.items() if "." in name}  # already named as metrics
    return {
        **counts,
        "manifest.parse_s": self_time("manifest", plans),
        "tokens.count_s": self_time("tokens", plans),
        "dsm.build_s": self_time("dsm", plans),
        "sequencing.sequence_s": self_time("sequencing", plans),
        "clustering.cluster_s": self_time("clustering", plans),
        "planning.make_pieces_s": self_time("planning.make_pieces", plans),
        "planning.budget_s": self_time("planning.budget_report", plans),
        "simulator.simulate_s": self_time("simulator", sims),
        "cli.interpreter_s": interpreter,
        "cli.import_s": imports,
        "trace.plan_s": traced,
        "trace.overhead_s": None if traced is None or untraced is None else traced - untraced,
        "trace.spans": _median(len(tracer.subtree(root)) for root in tracer.roots("plan")),
        "clustering.j_over_singletons": totals["clustering.j"] / singletons if singletons else None,
        "planning.contiguous_cluster_ratio": totals["kept_clusters"] / multi if multi else 1.0,
        "sequencing.largest_group": largest_group,
    }


def python_startup(env: dict) -> tuple[float, float]:
    """Median seconds of a bare interpreter, and of importing dsmplan's CLI in one."""
    probe = "import time; t = time.perf_counter(); import dsmplan.cli; print(time.perf_counter() - t)"
    interpreter, imports = [], []
    for _ in range(PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        interpreter.append(time.perf_counter() - start)
        done = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True)
        imports.append(float(done.stdout))
    return statistics.median(interpreter), statistics.median(imports)


# ---------------------------------------------------------------------------
# anneal-300 and pipeline-3000: the library, in process
# ---------------------------------------------------------------------------


def plan_file(path: Path, workload, model) -> Planned:
    """One manifest from file to budget verdict, as the workload plans it."""
    conversation = dsmplan.parse_manifest(path)
    config = dsmplan.BudgetConfig(margin=float(MARGIN), instructions_per_piece=conversation.instruction_tokens)
    if workload.anneal:
        seq, clusters, plan = dsmplan.plan_conversation(conversation, PARAMS, config, model)
    else:  # a fixed grouping: coupled groups plus singletons, no search
        dsm = dsmplan.build_dsm(conversation.elements)
        seq = dsmplan.sequence(dsm)
        coupled = {e for group in seq.cycles for e in group}
        groups = [*seq.cycles, *([e] for e in dsm.element_ids if e not in coupled)]
        clusters = dsmplan.assignment_from_groups(dsm, groups)
        plan = dsmplan.make_pieces(conversation, seq, clusters, config, model)
    return Planned(seq, clusters, plan, dsmplan.budget_report(plan))


def run_library(workload, paths: list[Path], seconds: float, seed: int, trace: bool, env: dict, tally: Tally):
    model = dsmplan.find_model(dsmplan.default_model_catalog(), workload.model)
    manifests = [read_manifest(p) for p in paths]
    tracer = Tracer() if trace else None
    first: dict = {}
    scored: set[Path] = set()
    totals: Counter = Counter()
    largest_group = 1
    deadline = time.perf_counter() + seconds
    for k in itertools.count():
        if k >= len(paths) and time.perf_counter() >= deadline:
            break
        path, manifest = paths[k % len(paths)], manifests[k % len(paths)]
        request = f"{path.name}#{k // len(paths)}"
        for prefix, traced_by in _variants(tracer):
            sims = None
            with _traced(traced_by, "plan", request):
                planned = tally.attempt(
                    prefix + "plan", f"plan {request}",
                    lambda: plan_file(path, workload, model),
                    lambda p: _plan_problems(p, manifest)
                    + _same_as(first, (path, "plan"), Budget.from_plan(p.plan, p.report)),
                )  # fmt: skip
            if planned is None:
                continue
            for _ in range(workload.simulate_repeats):
                with _traced(traced_by, "simulate", request):
                    sims = tally.attempt(
                        prefix + "simulate", f"simulate {request}",
                        lambda: [dsmplan.simulate(planned.plan, context_window=cw) for cw in workload.sweep],
                        lambda runs: _sweep_problems(runs, planned, manifest, first, path),
                    )  # fmt: skip
            if sims is None or path in scored:
                continue
            scored.add(path)
            dsm = dsmplan.build_dsm(planned.plan.conversation.elements)
            piece_ids = [p.element_ids for p in planned.plan.pieces]
            totals.update(plan_quality(dsm, piece_ids, planned.clusters))
            totals["wb_tokens"] += planned.report.wb
            totals["feasible_plans"] += planned.report.feasible
            totals["fifo_misses"] += sum(s.dependency_misses for s in sims)
            totals["fifo_lost_tokens"] += sum(s.lost_tokens for s in sims)
            if trace:
                totals.update(layer_counts(planned, dsm, manifest, sims))
                largest_group = max([largest_group, *map(len, planned.sequence.cycles)])
    if tracer:
        return tracer, layer_metrics(tally, tracer, totals, largest_group, env)
    return None, {
        "plan_s": tally.median("plan"),
        "simulate_s": tally.median("simulate"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **quality_metrics(totals),
    }


def _sweep_problems(runs, planned: Planned, manifest: Manifest, first: dict, path: Path) -> list[str]:
    budget = Budget.from_plan(planned.plan, planned.report)
    sims = [Simulation.from_report(run) for run in runs]
    problems = [p for sim in sims for p in check_simulation(sim, budget, manifest)]
    return problems + _same_as(first, (path, "simulate"), sims)


def quality_metrics(totals: Counter) -> dict[str, float]:
    return {
        "plan_j": totals["plan_j"],
        "wb_tokens": totals["wb_tokens"],
        "feasible_plans": totals["feasible_plans"],
        "fifo_misses": totals["fifo_misses"],
        "fifo_lost_tokens": totals["fifo_lost_tokens"],
    }


# ---------------------------------------------------------------------------
# spacecraft-cli: the dsmplan command line on the bundled corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Output:
    code: int
    stdout: bytes
    max_rss_kb: int = 0


def cli_subprocess(argv: list[str], env: dict) -> Output:
    """``dsmplan ARGV`` as its own process: interpreter start and import included."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "dsmplan.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env
    )
    with proc.stdout:
        stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Output(proc.returncode, stdout, usage.ru_maxrss)


def cli_in_process(argv: list[str]) -> Output:
    """``dsmplan ARGV`` through ``cli.main`` in this process, for the traced run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return Output(code, out.getvalue().encode("utf-8"))


def reference_plan(manifest_path: Path, expected: dict, model) -> dict:
    """The plan cut along the corpus's reference grouping, as its frozen budgets list it."""
    reference, frozen = expected["reference_clusters"], expected["reference_plan_budget"]
    groups = [*reference["clusters"], *([e] for e in reference["singletons"])]
    conversation = dsmplan.parse_manifest(manifest_path)
    dsm = dsmplan.build_dsm(conversation.elements)
    config = dsmplan.BudgetConfig(margin=frozen["margin"], instructions_per_piece=frozen["instructions_per_piece"])
    clusters = dsmplan.assignment_from_groups(dsm, groups)
    plan = dsmplan.make_pieces(conversation, dsmplan.sequence(dsm), clusters, config, model)
    report = dsmplan.budget_report(plan)
    return {
        "pieces": [list(p.element_ids) for p in plan.pieces],
        "ob": [b.ob for b in report.piece_budgets],
        "ol_headroom": [b.ol_headroom for b in report.piece_budgets],
        "wb": report.wb,
        "cw_headroom": report.cw_headroom,
        "feasible": report.feasible,
    }


def _reference_problems(got: dict, expected: dict) -> list[str]:
    frozen = expected["reference_plan_budget"]
    want = {"pieces": expected["pieces"]["element_ids"], **{k: frozen[k] for k in got if k != "pieces"}}
    return [] if got == want else [f"reference plan {got} != frozen {want}"]


def run_cli(workload, paths: list[Path], seconds: float, seed: int, trace: bool, env: dict, tally: Tally):
    corpus = paths[0]
    manifest = read_manifest(corpus)
    expected = json.loads(Path(SPACECRAFT_EXPECTED).read_text(encoding="utf-8"))
    fixture = expected["final_budget_fixture"]
    model = dsmplan.find_model(dsmplan.default_model_catalog(), workload.model)
    conversation = dsmplan.parse_manifest(corpus)
    dsm = dsmplan.build_dsm(conversation.elements)
    seq = dsmplan.sequence(dsm)
    tally.attempt(
        "reference", "reference plan",
        lambda: reference_plan(corpus, expected, model), lambda got: _reference_problems(got, expected),
    )  # fmt: skip
    first: dict = {}

    def check(kind: str, cw: int | None, out: Output) -> list[str]:
        payload = json.loads(out.stdout)
        if kind == "cluster":
            want_code = 0
            worse = payload["j_total"] > expected["reference_clusters"]["j_total"]
            problems = ["searched J is worse than the reference grouping's"] if worse else []
        elif kind == "budget":
            want_code = 0
            table = ([p["ob"] for p in payload["pieces"]], [p["ol_headroom"] for p in payload["pieces"]],
                     payload["wb"], payload["cw_headroom"])  # fmt: skip
            want = (fixture["ob"], fixture["ol_headroom"], fixture["computed_wb"], fixture["computed_cw_headroom"])
            problems = [] if table == want else [f"budget table {table} != fixture {want}"]
        elif kind == "plan":
            budget = Budget.from_json(payload)
            want_code = 0 if budget.feasible else 1
            problems = check_pieces(budget, seq.sequenced_ids(), manifest) + check_budget(budget, manifest, MARGIN)
        else:
            want_code = SPACECRAFT_SIMULATE_EXIT[cw]
            problems = []
            # the naive plan is one piece in manifest order, the optimized one is cut along the sequence
            for side, order in (("naive", manifest.ids), ("optimized", seq.sequenced_ids())):
                budget = Budget.from_json(payload[side])
                sim = Simulation.from_json(payload[side]["simulation"])
                problems += check_pieces(budget, order, manifest) + check_budget(budget, manifest, MARGIN)
                problems += check_simulation(sim, budget, manifest)
        if out.code != want_code:
            problems.append(f"exit code {out.code}, expected {want_code}")
        return problems + _same_as(first, (kind, cw), out.stdout)

    common = ["--manifest", str(corpus), "--format", "json"]
    one_pass = [
        ("cluster", None, ["cluster", *common]),
        ("budget", None, ["budget", *SPACECRAFT_BUDGET, "--format", "json"]),
    ]
    for cw in workload.sweep:  # as many plans as simulations, so both get samples
        one_pass += [("plan", None, ["plan", *common]), ("simulate", cw, ["simulate", *common, "--cw", str(cw)])]
    rng = random.Random(seed)  # the corpus is fixed; the seed orders each pass
    tracer = Tracer() if trace else None
    scored: set[tuple] = set()
    quality: Counter = Counter()
    peak_kb = 0
    deadline = time.perf_counter() + seconds
    for n_pass in itertools.count():
        if n_pass and time.perf_counter() >= deadline:
            break
        rng.shuffle(one_pass)
        for kind, cw, argv in one_pass:
            if n_pass and time.perf_counter() >= deadline:
                break
            request = f"{kind}{'' if cw is None else cw}#{n_pass}"
            for prefix, traced_by in _variants(tracer):
                with _traced(traced_by, kind, request):
                    out = tally.attempt(
                        prefix + kind, f"dsmplan {argv[0]} {request}",
                        (lambda: cli_in_process(argv)) if trace else (lambda: cli_subprocess(argv, env)),
                        lambda o: check(kind, cw, o),
                    )  # fmt: skip
                if out is None:
                    continue
                peak_kb = max(peak_kb, out.max_rss_kb)
                if (kind, cw) in scored:
                    continue
                scored.add((kind, cw))
                payload = json.loads(out.stdout)
                if kind == "plan":
                    pieces = [p["elements"] for p in payload["pieces"]]
                    quality["plan_j"] += dsmplan.assignment_from_groups(dsm, pieces).j_total
                    quality["wb_tokens"] += payload["wb"]
                    quality["feasible_plans"] += payload["feasible"]
                elif kind == "simulate":
                    quality["fifo_misses"] += payload["optimized"]["simulation"]["dependency_misses"]
                    quality["fifo_lost_tokens"] += payload["optimized"]["simulation"]["lost_tokens"]
    if tracer:
        # layer counts of what `dsmplan plan` and `simulate` run with their defaults
        planned = tally.attempt(
            "score", "plan for layer counts",
            lambda: plan_file(corpus, workload, model), lambda p: _plan_problems(p, manifest)
        )  # fmt: skip
        sims = None if planned is None else tally.attempt(
            "score", "simulate for layer counts",
            lambda: [dsmplan.simulate(planned.plan, context_window=cw) for cw in workload.sweep],
            lambda runs: _sweep_problems(runs, planned, manifest, {}, corpus),
        )  # fmt: skip
        totals: Counter = Counter()
        if sims is not None:
            totals = layer_counts(planned, dsm, manifest, sims)
            totals.update(plan_quality(dsm, [p.element_ids for p in planned.plan.pieces], planned.clusters))
        largest = max([1, *map(len, seq.cycles)])
        return tracer, layer_metrics(tally, tracer, totals, largest, env)
    return None, {
        "plan_s": tally.median("plan"),
        "simulate_s": tally.median("simulate"),
        "peak_rss_mb": peak_kb / 1024 if peak_kb else None,
        **quality_metrics(quality),
    }
