"""Acceptance gate: nine end-to-end criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Tolerances are pinned in the assertions themselves: exact integer equality
unless a line says otherwise (the single-piece WB figure allows +/-1 for the
reference table's ambiguous rounding).
"""

import subprocess
import sys
import time

import numpy as np

from dsmplan import (
    BudgetConfig,
    ClusterParams,
    assignment_from_groups,
    budget_report,
    cluster,
    literal_plan,
    reachability,
    simulate,
    window_budget,
)
from dsmplan.data import SPACECRAFT_MANIFEST

from conftest import REFERENCE_GROUPS
from oracles import brute_force_cluster, dense
from test_sequencing import bitsets, closure_by_dfs, mutual_groups


def _verdict(n: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"\ncriterion {n} [{label}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {n} {label}{tail}"


def test_criterion_1_reference_budget_table_exact(mistral):
    start = time.perf_counter()
    config = BudgetConfig(margin=0.05, instructions_per_piece=50)
    plan = literal_plan([272, 1438, 7703, 16], config, mistral, ust_tokens=190)
    report = budget_report(plan)
    headrooms = [b.ol_headroom for b in report.piece_budgets]
    elapsed = time.perf_counter() - start
    ok = headrooms == [7906, 6682, 103, 8175] and elapsed < 1.0
    _verdict(1, "final budget table, zero tolerance", ok, f"headrooms {headrooms}, {elapsed:.3f}s")


def test_criterion_2_single_piece_budget(mistral):
    flat = BudgetConfig(margin=0.0, instructions_per_piece=200)
    report = budget_report(literal_plan([9619], flat, mistral, ust_tokens=200))
    headroom = report.piece_budgets[0].ol_headroom

    inflated = BudgetConfig(margin=0.10, instructions_per_piece=200)
    wb, _ = window_budget(literal_plan([9619], inflated, mistral, ust_tokens=200))

    ok = headroom == -1427 and abs(wb - 21601) <= 1
    _verdict(2, "naive budget: exact -1427, WB within +/-1 of 21601", ok, f"headroom {headroom}, wb {wb}")


def test_criterion_3_sequencing_levels(spacecraft_dsm, expected):
    start = time.perf_counter()
    from dsmplan import sequence

    seq = sequence(spacecraft_dsm)
    got_levels = [list(level) for level in seq.levels]

    # independent oracle: condense mutual-reachability groups, then longest-path
    # levels over the component DAG
    reach = closure_by_dfs(spacecraft_dsm)
    groups = mutual_groups(reach)
    comp_of = {}
    for gi, group in enumerate(groups):
        for v in group:
            comp_of[v] = gi
    comp_levels: dict[int, int] = {}

    def comp_level(gi: int) -> int:
        if gi not in comp_levels:
            providers = {
                comp_of[j]
                for v in groups[gi]
                for j in range(spacecraft_dsm.n)
                if spacecraft_dsm.weights[v, j] and comp_of[j] != gi
            }
            comp_levels[gi] = 1 + max((comp_level(p) for p in providers), default=0)
        return comp_levels[gi]

    oracle = {
        spacecraft_dsm.element_ids[v]: comp_level(comp_of[v]) for v in range(spacecraft_dsm.n)
    }
    library = {e: k for k, level in enumerate(seq.levels, start=1) for e in level}
    elapsed = time.perf_counter() - start

    ok = (
        got_levels == expected["sequence"]["levels"]
        and list(seq.sequenced_ids()) == expected["sequence"]["order"]
        and library == oracle
        and elapsed < 1.0
    )
    _verdict(3, "levels match fixture and SCC+longest-path oracle", ok, f"{elapsed:.3f}s")


def test_criterion_4_piece_construction(reference_plan):
    got = [set(p.element_ids) for p in reference_plan.pieces]
    want = [{"A", "B"}, {"C", "F", "G", "H"}, {"D", "E", "I", "J", "L", "K"}, {"M"}]
    first_gm = reference_plan.pieces[0].gm_tokens
    ok = got == want and first_gm == 462
    _verdict(4, "reference grouping yields the four pieces, piece 1 = 462", ok, f"gm {first_gm}")


def test_criterion_5_clustering_quality(spacecraft_dsm):
    start = time.perf_counter()
    params = ClusterParams()  # alpha 2, beta 1, count sizes, seed 42

    # summation oracle for the reference grouping
    flat = {e: k for k, group in enumerate(REFERENCE_GROUPS) for e in group}
    sizes: dict[int, int] = {}
    for label in flat.values():
        sizes[label] = sizes.get(label, 0) + 1
    outside = sum(
        int(spacecraft_dsm.weights[i, j])
        for i, a in enumerate(spacecraft_dsm.element_ids)
        for j, b in enumerate(spacecraft_dsm.element_ids)
        if flat[a] != flat[b]
    )
    reference_j = params.alpha * sum(s * s for s in sizes.values()) + params.beta * outside

    n = spacecraft_dsm.n
    singleton_j = params.alpha * n + params.beta * int(spacecraft_dsm.weights.sum())
    one_big_j = params.alpha * n * n

    runs = [cluster(spacecraft_dsm, params) for _ in range(5)]
    elapsed = time.perf_counter() - start
    ok = (
        all(run == runs[0] for run in runs)
        and runs[0].j_total <= reference_j
        and runs[0].j_total <= min(singleton_j, one_big_j)
        and elapsed < 10.0
    )
    _verdict(
        5,
        "J beats reference grouping and both baselines, 5 identical runs",
        ok,
        f"J {runs[0].j_total:g} vs reference {reference_j:g}, {elapsed:.2f}s",
    )


def test_criterion_6_search_matches_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    params = ClusterParams(restarts=64)
    matched = 0
    below = 0
    for case in range(20):
        n = int(rng.integers(5, 8))
        w = rng.integers(0, 10, size=(n, n))
        np.fill_diagonal(w, 0)
        d = dense(tuple(chr(ord("a") + i) for i in range(n)), w)
        found = cluster(d, params).j_total
        exact = brute_force_cluster(d, params).j_total
        if found == exact:
            matched += 1
        if found < exact - 1e-9:
            below += 1
    elapsed = time.perf_counter() - start
    ok = matched >= 19 and below == 0 and elapsed < 60.0
    _verdict(6, "global optimum on >= 19/20 random matrices", ok, f"{matched}/20, {elapsed:.1f}s")


def test_criterion_7_reachability_oracle():
    rng = np.random.default_rng(99)
    all_equal = True
    for case in range(100):
        w = (rng.random((8, 8)) < 0.3).astype(np.int64)
        np.fill_diagonal(w, 0)
        d = dense(tuple(chr(ord("a") + i) for i in range(8)), w)
        if reachability(d) != bitsets(closure_by_dfs(d)):
            all_equal = False
            break
    _verdict(7, "reachability equals DFS closure on 100 random digraphs", all_equal)


def test_criterion_8_simulator_properties(naive_plan, reference_plan, expected):
    sim = expected["simulation"]
    sweep = sim["cw_sweep"]

    infinite = simulate(reference_plan, context_window=sim["zero_miss_context_window"])
    naive_misses = [simulate(naive_plan, context_window=cw).dependency_misses for cw in sweep]
    ref_misses = [simulate(reference_plan, context_window=cw).dependency_misses for cw in sweep]
    naive_lost = [simulate(naive_plan, context_window=cw).lost_tokens for cw in sweep]
    ref_lost = [simulate(reference_plan, context_window=cw).lost_tokens for cw in sweep]

    ok = (
        infinite.dependency_misses == 0
        and naive_misses == sorted(naive_misses, reverse=True)
        and ref_misses == sorted(ref_misses, reverse=True)
        and all(r <= n for r, n in zip(ref_misses, naive_misses))
        and naive_misses == sim["naive"]["dependency_misses"]
        and naive_lost == sim["naive"]["lost_tokens"]
        and ref_misses == sim["optimized"]["dependency_misses"]
        and ref_lost == sim["optimized"]["lost_tokens"]
    )
    _verdict(8, "FIFO sweep matches hand-traced oracle, monotone, dominated", ok,
             f"optimized misses {ref_misses}")


def test_criterion_9_cli_byte_determinism():
    manifest = str(SPACECRAFT_MANIFEST)
    outputs = {}
    for command in ("plan", "cluster"):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "dsmplan.cli", command, "--manifest", manifest],
                capture_output=True,
                check=False,
            )
            for _ in range(2)
        ]
        outputs[command] = (
            runs[0].stdout == runs[1].stdout
            and runs[0].returncode == runs[1].returncode
            and runs[0].stdout != b""
        )
    ok = all(outputs.values())
    _verdict(9, "plan and cluster CLI output byte-identical across runs", ok, str(outputs))
