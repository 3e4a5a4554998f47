"""The README's library example and the bundled study script run as shipped."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    assert blocks
    monkeypatch.chdir(ROOT)  # the example reads the manifest by its repository path
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].feasible
    assert namespace["result"].context_window == 4000
    assert namespace["curve"].lossless_window == 19494


def test_spacecraft_study_runs_and_repeats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = ROOT / "scripts" / "run_spacecraft_study.py"
    runs = [
        subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120)
        for _ in range(2)
    ]
    for run in runs:
        assert run.returncode == 0, run.stderr
        assert "SEARCHED budget" in run.stdout
    assert runs[0].stdout == runs[1].stdout
