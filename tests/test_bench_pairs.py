"""The paired runner's summary and verdicts, on canned ``bench/run.py`` result lines,
and its clean-up when it is stopped."""

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "plan_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "feasible_plans", "unit": "count", "better": "higher", "bound": 0.1},
]


def line(plan_s=None, feasible=3, failed=0, attempted=40, correct=True) -> dict:
    """One result line as ``bench/run.py`` prints it last."""
    metrics = {"feasible_plans": {"value": feasible, "unit": "count"}}
    if plan_s is not None:
        metrics["plan_s"] = {"value": plan_s, "unit": "s"}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def test_quantile_summary():
    summary = bench_pairs.quantile_summary([float(v) for v in range(10, 0, -1)])
    assert summary == pytest.approx({"median": 5.5, "q1": 3.25, "q3": 7.75, "min": 1.0, "p10": 1.9})
    assert bench_pairs.quantile_summary([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "min": 2.0, "p10": 2.0}


@pytest.mark.parametrize(
    "parent,change,better,verdict",
    [
        # wins every pair, by more than the parent's spread
        ([80, 82, 84, 79, 81, 83, 85, 80, 82, 81], [66, 69, 68, 65, 70, 67, 66, 71, 68, 69], "lower", "better"),
        # 9 of 10 pairs is enough
        ([80, 82, 84, 79, 81, 83, 85, 80, 82, 81], [66, 69, 68, 65, 70, 67, 66, 71, 68, 90], "lower", "better"),
        # wins 9 of 10, but the medians sit inside the parent's interquartile range
        ([60, 100, 60, 100, 60, 100, 60, 100, 60, 100], [59, 99, 59, 99, 59, 99, 59, 99, 59, 100], "lower", "unresolved"),
        # worse by 30% against a bound of 25%
        ([10] * 10, [13] * 10, "lower", "worse"),
        # worse by 20%: inside the bound, and the parent's runs agree
        ([10] * 10, [12] * 10, "lower", "within bound"),
        # a little worse while the parent's own spread is wider than the bound
        ([6, 14, 6, 14, 6, 14, 6, 14, 6, 14], [7, 15, 7, 15, 7, 15, 7, 15, 7, 15], "lower", "unresolved"),
        # equal quality counts
        ([3] * 10, [3] * 10, "higher", "within bound"),
        # a higher-is-better count that fell
        ([3] * 10, [2] * 10, "higher", "worse"),
        # from zero, any worsening is beyond every bound
        ([0] * 4, [1] * 4, "lower", "worse"),
    ],
)
def test_verdicts(parent, change, better, verdict):
    assert bench_pairs.compare(parent, change, better, 0.25)["verdict"] == verdict


def test_wins_and_losses_leave_ties_out():
    result = bench_pairs.compare([5, 5, 5, 6], [4, 5, 6, 5], "lower", 0.1)
    assert (result["change_wins"], result["change_losses"]) == (2, 1)
    assert result["relative_change"] == pytest.approx(0.0)


def test_compare_needs_paired_runs():
    with pytest.raises(ValueError):
        bench_pairs.compare([1.0, 2.0], [1.0], "lower", 0.1)
    with pytest.raises(ValueError):
        bench_pairs.compare([], [], "lower", 0.1)


def test_summarize_reads_result_lines():
    runs = [{"parent": line(0.080 + k / 1000), "change": line(0.065 + k / 1000)} for k in range(10)]
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert summary["metrics"]["plan_s"]["verdict"] == "better"
    assert summary["metrics"]["plan_s"]["change_wins"] == 10
    assert summary["metrics"]["feasible_plans"]["verdict"] == "within bound"
    assert summary["failed_share"] == {"parent": 0.0, "change": 0.0, "verdict": "within bound"}
    assert summary["all_correct"]


def test_summarize_reports_failures_and_unmeasured_metrics():
    runs = [
        {"parent": line(0.08), "change": line(None, failed=2, correct=False)},
        {"parent": line(0.08), "change": line(0.07)},
    ]
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert summary["metrics"]["plan_s"] == {"verdict": "not measured"}
    assert summary["failed_share"] == {"parent": 0.0, "change": 2 / 80, "verdict": "worse"}
    assert not summary["all_correct"]


# a benchmark that starts a sleeping helper, records both pids, and sleeps
SLEEPING_RUN = """import os, subprocess, sys, time
helper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(120)"])
with open(os.environ["BENCH_PIDS"], "w") as fh:
    fh.write(f"{os.getpid()} {helper.pid}")
time.sleep(120)
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    stat = Path(f"/proc/{pid}/stat")
    # an ended process that its new parent has not reaped yet is a zombie
    return not (stat.exists() and stat.read_text().rsplit(")", 1)[1].split()[0] == "Z")


def make_repo(tmp_path: Path, run_py: str, end_to_end: list[dict]) -> Path:
    """A git repository holding this script, with a parent and a change commit
    whose ``bench/run.py`` is ``run_py`` under a comment naming the commit."""
    repo = tmp_path / "repo"
    (repo / "bench").mkdir(parents=True)
    (repo / "src").mkdir()
    (repo / "scripts").mkdir()
    shutil.copy(_PATH, repo / "scripts" / "bench_pairs.py")
    benchmark = {"paths": ["bench"], "run_seconds": 1, "workloads": [{"name": "sleep"}], "end_to_end": end_to_end}
    (repo / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    git = ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    subprocess.run([*git, "init", "-q"], check=True)
    for version in ("parent", "change"):
        (repo / "bench" / "run.py").write_text(f"# {version}\n{run_py}", encoding="utf-8")
        subprocess.run([*git, "add", "-A"], check=True)
        subprocess.run([*git, "commit", "-q", "-m", version], check=True)
    return repo


def test_both_sides_run_from_one_path(tmp_path, monkeypatch):
    repo = make_repo(tmp_path, "", END_TO_END)
    spec = importlib.util.spec_from_file_location("bench_pairs_copy", repo / "scripts" / "bench_pairs.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)

    def export(repo_, sha, directory):
        directory.mkdir(parents=True)
        (directory / "sha").write_text(sha, encoding="utf-8")
        return directory

    ran = []  # (path, the commit found there) per run

    def bench_once(checkout, workload, seed, seconds):
        ran.append((checkout, (checkout / "sha").read_text(encoding="utf-8")))
        return line(0.08)

    monkeypatch.setattr(runner, "export", export)
    monkeypatch.setattr(runner, "bench_once", bench_once)
    monkeypatch.setattr(signal, "signal", lambda *args: None)  # leave pytest's SIGTERM handler alone
    assert runner.main(["--parent", "HEAD~1", "--pairs", "2", "--seed", "1", "--out", str(tmp_path / "out.json")]) == 0
    parent, change = (runner._git(repo, "rev-parse", rev) for rev in ("HEAD~1", "HEAD"))
    assert [sha for _, sha in ran] == [parent, change, change, parent]
    assert len({path for path, _ in ran}) == 1


def test_sigterm_ends_the_running_benchmark_and_removes_the_exports(tmp_path):
    repo = make_repo(tmp_path, SLEEPING_RUN, [])
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    pids = tmp_path / "pids"
    env = {**os.environ, "TMPDIR": str(tmp), "BENCH_PIDS": str(pids)}
    argv = [sys.executable, str(repo / "scripts" / "bench_pairs.py"), "--parent", "HEAD~1", "--pairs", "1", "--seed", "1"]
    runner = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (pids.exists() and len(pids.read_text().split()) == 2):
            assert runner.poll() is None and time.monotonic() < deadline, "the benchmark never started"
            time.sleep(0.05)
        assert [path.name for path in tmp.iterdir()][0].startswith("bench_pairs_")
        runner.send_signal(signal.SIGTERM)
        assert runner.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        if runner.poll() is None:
            runner.kill()
            runner.wait()
    run_pid, helper_pid = map(int, pids.read_text().split())
    deadline = time.monotonic() + 10
    while _alive(helper_pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(run_pid)
    assert not _alive(helper_pid)
    assert list(tmp.iterdir()) == []
