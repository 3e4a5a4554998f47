"""The package namespace: each public name is declared once and its layer
module loads on first use, so importing the package or its data costs no
layer import."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dsmplan
from dsmplan import simulator

# every public name of the package
PUBLIC = [
    "BINARY", "NUMERICAL", "BudgetConfig", "ClusterAssignment", "ClusterParams", "ConversationElement",
    "ConversationModel", "ConversationPiece", "ConversationPlan", "Dsm", "LossCurve", "MetricDelta",
    "ModelSpec", "Permutation", "PieceBudget", "SequencingResult", "SimulationReport", "SimulationStep",
    "TokenBudgetReport", "above_diagonal_marks", "assignment_from_groups", "budget_report", "build_dsm",
    "cluster", "compare", "count_tokens_approx", "default_model_catalog", "errors", "find_model",
    "literal_plan", "load_model_catalog", "load_token_table", "loss_curve", "make_naive_plan", "make_pieces",
    "max_piece_tokens", "output_budget", "parse_dsm_csv", "parse_manifest", "permute", "plan_conversation",
    "reachability", "sequence", "simulate", "to_binary", "window_budget", "write_dsm_csv",
]  # fmt: skip


def _fresh(code: str):
    """Run ``code`` in a new interpreter that imports dsmplan from this
    checkout; it prints one JSON value, which is returned."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("module", ["dsmplan", "dsmplan.data", "dsmplan.errors"])
def test_importing_the_package_loads_no_layer_and_no_numpy(module):
    loaded = _fresh(
        f"import json, sys, {module}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('dsmplan', 'numpy'))))"
    )
    assert loaded == sorted({"dsmplan", module})


def test_the_marks_pipeline_loads_no_numpy():
    # only the optional dense view, Dsm.weights, imports numpy: the annealed
    # plan and its simulation load none
    assert _fresh(
        "import json, sys\n"
        "from dsmplan import BudgetConfig, ClusterParams, Dsm, ModelSpec, Permutation, build_dsm, parse_dsm_csv,"
        " parse_manifest, permute, plan_conversation, simulate, to_binary, write_dsm_csv\n"
        "from dsmplan.data import SPACECRAFT_DSM_TOKENS, SPACECRAFT_MANIFEST\n"
        "from dsmplan.dsm import dsm_from_csv_text\n"
        "conv = parse_manifest(SPACECRAFT_MANIFEST)\n"
        "d = build_dsm(conv.elements)\n"
        "assert parse_dsm_csv(SPACECRAFT_DSM_TOKENS) == d == Dsm(d.element_ids, d.marks, d.kind)\n"
        "p = permute(d, Permutation(tuple(reversed(range(d.n)))))\n"
        "b = to_binary(p)\n"
        "assert dsm_from_csv_text(write_dsm_csv(b)) == b\n"
        "_, _, plan = plan_conversation(conv, ClusterParams(), BudgetConfig(), ModelSpec('m', 32000, 8192))\n"
        "run = simulate(plan, context_window=8000)\n"
        "print(json.dumps(['numpy' in sys.modules, b.n, len(run.steps) == len(plan.pieces) > 1]))"
    ) == [False, 13, True]


def test_a_plan_is_built_budgeted_and_laid_out_without_the_simulator():
    # the token stream is a planning step: nothing before a window needs dsmplan.simulator
    assert _fresh(
        "import json, sys\n"
        "from dsmplan.data import SPACECRAFT_MANIFEST\n"
        "from dsmplan.manifest import parse_manifest\n"
        "from dsmplan.planning import BudgetConfig, ModelSpec, budget_report, make_naive_plan\n"
        "conv = parse_manifest(SPACECRAFT_MANIFEST)\n"
        "plan = make_naive_plan(conv, BudgetConfig(), ModelSpec('m', 100000, 50000))\n"
        "layout = plan._layout\n"
        "print(json.dumps([budget_report(plan).feasible, len(layout.piece_ends), 'dsmplan.simulator' in sys.modules]))"
    ) == [True, 1, False]


def test_submodules_resolve_after_a_bare_import():
    assert _fresh(
        "import json, dsmplan\n"
        "print(json.dumps([dsmplan.planning.max_piece_tokens.__qualname__, dsmplan.data.MODEL_CATALOG.name]))"
    ) == ["max_piece_tokens", "model_catalog.csv"]


def test_public_names_are_their_home_modules_objects():
    assert sorted(dsmplan.__all__) == sorted(PUBLIC)
    assert dsmplan.errors is importlib.import_module("dsmplan.errors")
    for name in PUBLIC:
        if name == "errors":
            continue
        home = importlib.import_module(dsmplan._HOME[name])
        value = getattr(dsmplan, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name  # defined there, not re-exported


def test_dir_and_star_import_follow_all():
    assert set(dsmplan.__all__) <= set(dir(dsmplan))
    namespace: dict = {}
    exec("from dsmplan import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(dsmplan.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        dsmplan.nope


def test_a_patched_layer_function_is_what_the_package_returns(monkeypatch):
    original = dsmplan.simulate

    def fake(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(simulator, "simulate", fake)
    assert dsmplan.simulate is fake
    monkeypatch.undo()
    assert dsmplan.simulate is original is simulator.simulate
    assert "simulate" not in vars(dsmplan)  # looked up, never stored


@pytest.mark.parametrize(
    "argv, loads_simulator",
    [
        (["plan"], False),
        (["cluster"], False),
        (["budget"], False),
        (["dsm"], False),
        (["sequence"], False),
        (["simulate", "--cw", "32000"], True),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_only_the_simulate_command_loads_the_simulator(argv, loads_simulator):
    assert _fresh(
        "import contextlib, io, json, sys\n"
        "from dsmplan import cli\n"
        "from dsmplan.data import SPACECRAFT_MANIFEST\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = cli.main({argv!r} + ['--manifest', str(SPACECRAFT_MANIFEST)])\n"
        "print(json.dumps([code, bool(out.getvalue()), 'dsmplan.simulator' in sys.modules]))"
    ) == [0, True, loads_simulator]
