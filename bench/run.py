#!/usr/bin/env python3
"""dsmplan benchmark: how long a plan takes, and how good it is.

Run from the root of a checkout, which it imports dsmplan from (``src/``):

    python3 bench/run.py --workload anneal-300 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes a separate traced run and reports the per-layer metrics.  Both lists,
with units, are read from BENCHMARK.json.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print the same metrics for people.  Spans
of a traced run go to ``.bench_build/bench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from synth import ManifestSpec, manifest_bytes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench"
SETUP_SAMPLES = 7  # set-up is timed this many times, once here and the rest in fresh processes


@dataclass(frozen=True)
class Workload:
    model: str  # catalog name the plans target
    sweep: tuple[int, ...]  # context windows the FIFO simulation runs at
    spec: ManifestSpec | None = None  # None: the bundled spacecraft corpus, run through the CLI
    manifests: int = 1
    anneal: bool = True  # plan_conversation; False: coupled groups plus singletons, no search
    simulate_repeats: int = 1  # sweeps per plan, so the cheap sweep gets enough samples


WORKLOADS = {
    # the paper's own 13-element corpus through `dsmplan` subprocesses: import,
    # interpreter start and the annealer's fixed cost per proposal dominate
    "spacecraft-cli": Workload(model="mistral-7b", sweep=(4000, 8000, 16000, 32000)),
    # clustering is ~99% of plan time at n=300; token sizes leave a good plan
    # ~25% window headroom on the model, so feasibility is a live check
    "anneal-300": Workload(
        model="gemini-1.5-pro",
        sweep=(4000, 8000, 16000, 32000),
        spec=ManifestSpec(n=300),
        manifests=3,
        simulate_repeats=20,
    ),
    # no search: parsing with approximate counting, the n*n matrix, sequencing,
    # cutting and simulation carry the time, and memory shows; the sweep runs
    # from windows smaller than most pieces (thousands of evictions) to one
    # that holds the whole conversation
    "pipeline-3000": Workload(
        model="claude-3",
        sweep=(500, 1000, 2000, 1_000_000),
        spec=ManifestSpec(n=3000, token_median=20, token_min=3, token_max=200, text=True, instruction_tokens=10),
        manifests=3,
        anneal=False,
        simulate_repeats=4,
    ),
}


def setup(name: str, seed: int, directory: Path) -> list[Path]:
    """Import dsmplan and write the workload's manifests into ``directory``."""
    import dsmplan.data

    workload = WORKLOADS[name]
    directory.mkdir(parents=True)
    if workload.spec is None:
        target = directory / "spacecraft.json"
        shutil.copyfile(dsmplan.data.SPACECRAFT_MANIFEST, target)
        return [target]
    paths = [directory / f"{name}-{k}.json" for k in range(workload.manifests)]
    for k, path in enumerate(paths):
        path.write_bytes(manifest_bytes(workload.spec, f"{name}:{seed}:{k}"))
    return paths


def _setup_in_fresh_process(name: str, seed: int, directory: Path, env: dict) -> float:
    code = (
        f"import sys; sys.path[:0] = [{str(BENCH)!r}]; import time, pathlib, run; "
        f"t = time.perf_counter(); run.setup({name!r}, {seed}, pathlib.Path({str(directory)!r})); "
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    return float(done.stdout)


def _machine() -> str:
    import numpy

    return f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {numpy.__version__}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep issuing operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dsmplan" / "__init__.py").is_file():
        print(f"error: no dsmplan sources under {SRC}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        scratch = Path(scratch)
        start = time.perf_counter()
        paths = setup(args.workload, args.seed, scratch / "manifests")
        setup_s = [time.perf_counter() - start]
        if not args.trace:
            setup_s += [
                _setup_in_fresh_process(args.workload, args.seed, scratch / f"setup{k}", env)
                for k in range(1, SETUP_SAMPLES)
            ]

        import workloads

        runner = workloads.run_cli if WORKLOADS[args.workload].spec is None else workloads.run_library
        tally = workloads.Tally()
        tracer, metrics = None, {}
        try:
            tracer, metrics = runner(WORKLOADS[args.workload], paths, args.seconds, args.seed, args.trace, env, tally)
        except Exception as exc:  # the program broke outside a checked operation: report, do not crash
            tally.attempted += 1
            tally.fail(f"{args.workload} run", [f"{type(exc).__name__}: {exc}"])
    if tracer is not None:
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_s)

    print(f"# {args.workload} seed {args.seed}: {_machine()}")
    print(json.dumps(result(tally, metrics, wanted)))
    return 0


def result(tally, metrics: dict, wanted: list[dict]) -> dict:
    """The run's result line; prints timings, failures and metrics for people first.

    A metric that could not be measured (None, because every operation it
    times failed) is left out, and the run is then not correct.
    """
    for kind, samples in sorted(tally.seconds.items()):
        print(f"# {kind}: {len(samples)} samples, median {statistics.median(samples):.4f} s")
    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    for problem in tally.problems[:20]:
        print(f"# FAILED {problem}")
    if missing:
        print(f"# FAILED not measured: {', '.join(missing)}")
    measured = [m for m in wanted if m["name"] not in missing]
    for m in measured:
        print(f"{m['name']:<36} {metrics[m['name']]:>16.6g} {m['unit']}")
    return {
        "correct": tally.failed == 0 and not missing,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in measured},
    }


if __name__ == "__main__":
    sys.exit(main())
