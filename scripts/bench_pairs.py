#!/usr/bin/env python3
"""Paired benchmark runs: does a change beat its parent, and does it lose anywhere?

Exports two commits of this repository with ``git archive`` into fresh
directories, compiles both the same way (``compileall``), and runs each
one's own ``bench/run.py`` in k alternating pairs per workload: pair p runs
the p-th seed on both sides, the parent first in even pairs and the change
first in odd ones, each for the benchmark's own ``run_seconds``.  Each run
is made from one fixed path: the side's export is renamed to it for the run
and back after, because two identical copies in two directories can read
subprocess timings a few percent apart.  Run from anywhere inside a
checkout:

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --pairs 10 --seed 11

writes ``BENCH_<date>_<sha>.json`` (the date in UTC, the change's short
sha) into the repository root, or the file ``--out`` names.  For every
end-to-end metric in the change's ``BENCHMARK.json`` the file gives each
side's median, quartiles, min and p10, the pairs the change won (ties
count for neither), and a verdict:

* ``better``: the change won at least 9 in 10 pairs, and the medians differ
  by more than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound (a fraction of the parent's median);
* ``unresolved``: neither, and the parent's interquartile range is wider
  than the bound, unless every change run reads better than every parent run;
* ``within bound``: otherwise.

A workload's ``failed`` share is compared the same way: more failed
operations at the change is ``worse``.

Stopped by SIGTERM or Ctrl-C, it ends the running benchmark and every process
that one started, and removes the exported directories, before it exits.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

GAIN_SHARE = 0.9  # a gain needs the change to win this share of all pairs


def quantile_summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles, min and p10 of one side's runs (inclusive quantiles)."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = p10 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        p10 = statistics.quantiles(values, n=10, method="inclusive")[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "min": values[0], "p10": p10}


def _gain(parent: float, change: float, better: str) -> float:
    """How much better ``change`` reads than ``parent``; negative when worse."""
    return parent - change if better == "lower" else change - parent


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Summaries, wins and the verdict for one metric over paired runs;
    ``parent[p]`` and ``change[p]`` are the two runs of pair p."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    p, c = quantile_summary(parent), quantile_summary(change)
    wins = sum(_gain(a, b, better) > 0 for a, b in zip(parent, change))
    losses = sum(_gain(a, b, better) < 0 for a, b in zip(parent, change))
    spread = p["q3"] - p["q1"]
    base = abs(p["median"])
    worse_by = -_gain(p["median"], c["median"], better)
    relative = worse_by / base if base else (0.0 if worse_by <= 0 else float("inf"))
    if wins >= GAIN_SHARE * len(parent) and abs(c["median"] - p["median"]) > spread:
        verdict = "better"
    elif relative > bound:
        verdict = "worse"
    elif base and spread / base > bound and not all(_gain(a, b, better) > 0 for a in parent for b in change):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": p,
        "change": c,
        "change_wins": wins,
        "change_losses": losses,
        "relative_change": (c["median"] - p["median"]) / base if base else None,
        "bound": bound,
        "better": better,
        "verdict": verdict,
    }


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric comparison of one workload's pairs.

    ``runs`` holds one entry per pair: ``{"parent": line, "change": line}``,
    where each line is the JSON object ``bench/run.py`` prints last.  A metric
    missing from any run is reported as not measured.
    """
    metrics: dict[str, dict] = {}
    for metric in end_to_end:
        name = metric["name"]
        try:
            parent = [run["parent"]["metrics"][name]["value"] for run in runs]
            change = [run["change"]["metrics"][name]["value"] for run in runs]
        except KeyError:
            metrics[name] = {"verdict": "not measured"}
            continue
        metrics[name] = compare(parent, change, metric["better"], metric["bound"])
    failed = {
        side: sum(run[side]["failed"] for run in runs) / max(1, sum(run[side]["attempted"] for run in runs))
        for side in ("parent", "change")
    }
    failed["verdict"] = "worse" if failed["change"] > failed["parent"] else "within bound"
    correct = all(run[side]["correct"] for run in runs for side in ("parent", "change"))
    return {"metrics": metrics, "failed_share": failed, "all_correct": correct}


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True, text=True).stdout.strip()


def export(repo: Path, sha: str, directory: Path) -> Path:
    """The committed files of ``sha`` in ``directory``, compiled with compileall."""
    directory.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(repo), "archive", sha], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"], cwd=directory, check=True)
    return directory


@contextlib.contextmanager
def moved(directory: Path, place: Path) -> Iterator[Path]:
    """``directory`` renamed to ``place`` while the block runs, then back."""
    directory.rename(place)
    try:
        yield place
    finally:
        place.rename(directory)


def bench_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``; its last stdout line, parsed."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    # a session of its own, so the run and every process it starts share one
    # process group that can be ended together
    with subprocess.Popen(
        argv, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    ) as child:
        try:
            stdout, stderr = child.communicate()
        except BaseException:
            if child.returncode is None:  # not reaped, so the group id is still the child's
                os.killpg(child.pid, signal.SIGKILL)
            raise
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, argv, stdout, stderr)
    return json.loads(stdout.strip().splitlines()[-1])


def _exit_on_sigterm(signum: int, frame: object) -> None:
    """SIGTERM as SystemExit, so the running benchmark is ended and the
    exported directories are removed on the way out."""
    raise SystemExit(128 + signum)


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the baseline commit")
    parser.add_argument("--change", default="HEAD", help="the commit under test (default HEAD)")
    parser.add_argument("--workload", action="append", help="repeat for several (default: every workload)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="the first seed; pair p runs seed + p")
    parser.add_argument("--out", type=Path, help="the result file (default: BENCH_<date>_<sha>.json in the repository root)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    signal.signal(signal.SIGTERM, _exit_on_sigterm)

    repo = Path(_git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    parent, change = (_git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}") for rev in (args.parent, args.change))
    benchmark = json.loads(_git(repo, "show", f"{change}:BENCHMARK.json"))
    same_bench = all(
        _git(repo, "rev-parse", f"{parent}:{path}") == _git(repo, "rev-parse", f"{change}:{path}")
        for path in ("BENCHMARK.json", *benchmark["paths"])
    )
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    seeds = [args.seed + p for p in range(args.pairs)]

    result: dict = {
        "machine": machine(),
        "parent": parent,
        "change": change,
        "same_benchmark_files": same_bench,
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        sides = {side: export(repo, sha, Path(scratch) / side) for side, sha in (("parent", parent), ("change", change))}
        place = Path(scratch) / "checkout"  # every run is made from here
        for workload in workloads:
            runs = []
            for p, seed in enumerate(seeds):
                order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    with moved(sides[side], place):
                        run[side] = bench_once(place, workload, seed, seconds)
                    value = run[side]["metrics"].get("plan_s", {}).get("value")
                    print(f"{workload} pair {p + 1}/{len(seeds)} seed {seed} {side}: plan_s {value}", file=sys.stderr)
                runs.append(run)
            result["workloads"][workload] = {"pairs": runs, **summarize(runs, benchmark["end_to_end"])}

    date = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d")
    out = args.out or repo / f"BENCH_{date}_{change[:10]}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for workload, summary in result["workloads"].items():
        for name, metric in summary["metrics"].items():
            if "parent" in metric:
                print(f"{workload:<16} {name:<18} {metric['parent']['median']:>12.6g} -> "
                      f"{metric['change']['median']:<12.6g} wins {metric['change_wins']}/{len(seeds)}  {metric['verdict']}")  # fmt: skip
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
