import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from dsmplan import BudgetConfig, ClusterParams, ConversationModel, ModelSpec, errors
from dsmplan.cli import main
from dsmplan.data import (
    SPACECRAFT_DSM_BINARY,
    SPACECRAFT_DSM_TOKENS,
    SPACECRAFT_MANIFEST,
    SPACECRAFT_TOKEN_TABLE,
)

MANIFEST = str(SPACECRAFT_MANIFEST)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# dsm
# ---------------------------------------------------------------------------


def test_dsm_default_emits_fixture_csv(capsys):
    code, out, _ = run_cli(capsys, "dsm", "--manifest", MANIFEST)
    assert code == 0
    with open(SPACECRAFT_DSM_TOKENS, encoding="utf-8") as fh:
        assert out == fh.read()


def test_dsm_binary_emits_binary_fixture(capsys):
    code, out, _ = run_cli(capsys, "dsm", "--manifest", MANIFEST, "--binary")
    assert code == 0
    with open(SPACECRAFT_DSM_BINARY, encoding="utf-8") as fh:
        assert out == fh.read()


def test_dsm_permuted_pulls_marks_below_diagonal(capsys):
    from dsmplan.dsm import above_diagonal_marks, dsm_from_csv_text

    _, plain, _ = run_cli(capsys, "dsm", "--manifest", MANIFEST)
    _, permuted, _ = run_cli(capsys, "dsm", "--manifest", MANIFEST, "--permute", "sequence")
    assert above_diagonal_marks(dsm_from_csv_text(permuted)) < above_diagonal_marks(
        dsm_from_csv_text(plain)
    )


def test_dsm_json(capsys):
    code, out, _ = run_cli(capsys, "dsm", "--manifest", MANIFEST, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["element_ids"][0] == "A"
    assert len(doc["weights"]) == 13
    assert doc["kind"] == "numerical"


def test_dsm_text_grid(capsys):
    code, out, _ = run_cli(capsys, "dsm", "--manifest", MANIFEST, "--format", "text")
    assert code == 0
    assert "X" in out and "." in out


# ---------------------------------------------------------------------------
# sequence / cluster
# ---------------------------------------------------------------------------


def test_sequence_text_order(capsys, expected):
    code, out, _ = run_cli(capsys, "sequence", "--manifest", MANIFEST)
    assert code == 0
    assert "ORDER     " + ", ".join(expected["sequence"]["order"]) in out
    assert "LEVEL 1   A" in out


def test_sequence_json_matches_frozen(capsys, expected):
    code, out, _ = run_cli(capsys, "sequence", "--manifest", MANIFEST, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"] == expected["sequence"]["levels"]
    assert doc["order"] == expected["sequence"]["order"]
    assert doc["cycles"] == expected["sequence"]["cycles"]


def test_cluster_json_shape(capsys):
    code, out, _ = run_cli(capsys, "cluster", "--manifest", MANIFEST, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    members = sorted(e for group in doc["clusters"] for e in group)
    assert members == sorted("ABCDEFGHIJKLM")
    assert doc["num_clusters"] == len(doc["clusters"])
    assert doc["params"]["max_cluster_tokens"] == 7801  # floor(8192 / 1.05)
    assert doc["j_total"] > 0


def test_cluster_output_is_deterministic(capsys):
    first = run_cli(capsys, "cluster", "--manifest", MANIFEST)
    second = run_cli(capsys, "cluster", "--manifest", MANIFEST)
    assert first == second


# ---------------------------------------------------------------------------
# plan / budget
# ---------------------------------------------------------------------------


def test_plan_text_is_feasible(capsys):
    code, out, _ = run_cli(capsys, "plan", "--manifest", MANIFEST)
    assert code == 0
    assert "FEASIBLE" in out and "yes" in out
    assert "WHOLE CONVERSATION" in out


def test_plan_json_pieces_partition(capsys, expected):
    code, out, _ = run_cli(capsys, "plan", "--manifest", MANIFEST, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    flat = [e for piece in doc["pieces"] for e in piece["elements"]]
    assert flat == expected["sequence"]["order"]
    assert doc["feasible"] is True
    assert doc["pieces"][0]["includes_user_statement"] is True


def test_plan_naive_is_infeasible(capsys, expected):
    code, out, _ = run_cli(capsys, "plan", "--manifest", MANIFEST, "--naive")
    assert code == 1
    assert str(expected["naive_budget"]["ol_headroom"]) in out  # -2007
    assert "no" in out


def test_plan_naive_zero_margin_headroom(capsys):
    code, out, _ = run_cli(
        capsys, "plan", "--manifest", MANIFEST, "--naive", "--margin", "0.0",
        "--instructions", "200",
    )
    assert code == 1
    assert "-1521" in out  # ceil(9713 * 1.0) - 8192


def test_an_empty_manifest_plans_to_zero_pieces(tmp_path, capsys):
    manifest = tmp_path / "empty.json"
    manifest.write_text('{"elements": []}', encoding="utf-8")
    for argv in (["plan"], ["simulate", "--cw", "100"], ["budget"]):
        code, _, err = run_cli(capsys, *argv, "--manifest", str(manifest))
        assert (code, err) == (0, ""), argv
    planned = run_cli(capsys, "plan", "--manifest", str(manifest), "--format", "json")
    naive = run_cli(capsys, "plan", "--manifest", str(manifest), "--naive", "--format", "json")
    assert planned == naive and planned[0] == 0
    assert json.loads(planned[1])["pieces"] == []
    # clustering an empty matrix is the empty assignment, J 0
    code, out, err = run_cli(capsys, "cluster", "--manifest", str(manifest))
    assert (code, err) == (0, "") and "J TOTAL                              0\n" in out
    assert "CLUSTER" not in out


def test_a_zero_piece_cap_plans_like_the_naive_plan(tmp_path, capsys):
    # every element has 0 tokens and OL is 1, so max_piece_tokens is 0
    manifest = tmp_path / "zero.json"
    elements = [{"id": "A", "tokens": 0}, {"id": "B", "tokens": 0, "deps": ["A"]}, {"id": "C", "tokens": 0, "deps": ["B", "A"]}]
    manifest.write_text(json.dumps({"elements": elements}), encoding="utf-8")
    common = ("--manifest", str(manifest), "--ol", "1")
    for argv in (["plan"], ["simulate", "--cw", "100"], ["budget"], ["cluster"]):
        code, _, err = run_cli(capsys, *argv, *common)
        assert (code, err) == (0, ""), argv
    planned = run_cli(capsys, "plan", *common, "--format", "json")
    naive = run_cli(capsys, "plan", *common, "--naive", "--format", "json")
    assert planned == naive and planned[0] == 0
    code, out, _ = run_cli(capsys, "cluster", *common, "--format", "json")
    assert code == 0 and '"max_cluster_tokens": 0' in out


def test_budget_literal_fm_reproduces_reference_table(capsys, expected):
    want = expected["final_budget_fixture"]
    code, out, _ = run_cli(
        capsys, "budget", "--fm", "272,1438,7703,16", "--ust", "190",
        "--instructions", "50", "--margin", "0.05",
    )
    assert code == 0
    for headroom in want["ol_headroom"]:
        assert f"+{headroom}" in out
    assert str(want["computed_wb"]) in out


def test_budget_literal_fm_json(capsys, expected):
    want = expected["final_budget_fixture"]
    code, out, _ = run_cli(
        capsys, "budget", "--fm", "272,1438,7703,16", "--ust", "190",
        "--instructions", "50", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert [p["ob"] for p in doc["pieces"]] == want["ob"]
    assert [p["ol_headroom"] for p in doc["pieces"]] == want["ol_headroom"]
    assert doc["wb"] == want["computed_wb"]


def test_budget_single_piece_zero_margin(capsys, expected):
    want = expected["initial_budget_fixture"]
    code, out, _ = run_cli(
        capsys, "budget", "--fm", "9619", "--ust", "200", "--instructions", "200",
        "--margin", "0",
    )
    assert code == 1  # output side overflows OL
    assert str(want["ol_headroom"]) in out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("naive", [False, True])
def test_budget_on_a_manifest_is_the_plan(capsys, fmt, naive):
    args = ["--manifest", MANIFEST, "--format", fmt] + (["--naive"] if naive else [])
    assert run_cli(capsys, "budget", *args) == run_cli(capsys, "plan", *args)


def test_budget_bad_fm_list(capsys):
    code, _, err = run_cli(capsys, "budget", "--fm", "1,two,3")
    assert code == 2
    assert "comma-separated" in err
    code, out, err = run_cli(capsys, "budget", "--fm", ",")
    assert (code, out, err) == (2, "", "error: --fm needs at least one value\n")


@pytest.mark.parametrize("source", ["flag", "config"])
def test_budget_fm_takes_fm_figures_unscaled(tmp_path, capsys, source):
    # the literal figures are FM already; a ratio would go unapplied
    if source == "flag":
        extra = ("--fm-ratio", "2")
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"fm_ratio": 2}))
        extra = ("--config", str(config))
    code, out, err = run_cli(capsys, "budget", "--fm", "100,200", *extra)
    assert (code, out) == (2, "")
    assert err == "error: --fm takes FM figures as given, so --fm-ratio (fm_ratio in a config) must be 1\n"


@pytest.mark.parametrize("manifest", [MANIFEST, "/nonexistent.json"])
def test_budget_fm_rejects_a_manifest(capsys, manifest):
    code, out, err = run_cli(capsys, "budget", "--manifest", manifest, "--fm", "100")
    assert (code, out) == (2, "")
    assert "--manifest" in err


@pytest.mark.parametrize("command", ["cluster", "plan", "budget", "simulate"])
def test_an_element_above_the_piece_cap_exits_one(capsys, command):
    # OL 100 caps a piece's GM at 95 tokens, below element A's 190
    code, out, err = run_cli(capsys, command, "--manifest", MANIFEST, "--ol", "100")
    assert (code, out) == (1, "")
    assert err == "error: element 'A' alone exceeds the output budget and cannot be split\n"


def test_every_package_error_is_a_value_error():
    # main catches ValueError once, after UnsplittablePiece (exit 1): every other bad input exits 2
    found = [obj for obj in vars(errors).values() if isinstance(obj, type) and issubclass(obj, errors.DsmPlanError)]
    assert len(found) > 10
    assert all(issubclass(error, ValueError) for error in found)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_text_table(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--manifest", MANIFEST, "--cw", "4000")
    # the naive piece (whole corpus) cannot fit a 4000-token window
    assert code == 1
    assert "METRIC" in out and "NAIVE" in out and "PLANNED" in out
    assert "dependency_misses" in out
    assert "exceeds the context window" in out


def test_simulate_json_shape(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--manifest", MANIFEST, "--cw", "4000", "--format", "json")
    assert code == 1  # naive piece larger than the window
    doc = json.loads(out)
    assert doc["context_window"] == 4000
    assert doc["naive"]["simulation"]["oversized_pieces"] == [1]
    assert {d["metric"] for d in doc["comparison"]} == {
        "dependency_misses",
        "lost_tokens",
        "output_overflow_tokens",
    }
    assert doc["naive"]["simulation"]["dependency_misses"] >= 0


def test_simulate_huge_window_no_misses(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--manifest", MANIFEST, "--cw", "1000000000", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["naive"]["simulation"]["dependency_misses"] == 0
    assert doc["optimized"]["simulation"]["dependency_misses"] == 0


def test_simulate_oversized_piece_exits_one(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--manifest", MANIFEST, "--cw", "1000")
    assert code == 1
    assert "PieceExceedsWindow" in out


# ---------------------------------------------------------------------------
# settings plumbing and errors
# ---------------------------------------------------------------------------


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"margin": 0.0, "instructions": 0}))
    code, out, _ = run_cli(capsys, "budget", "--fm", "20", "--config", str(config))
    assert code == 0
    assert "20" in out and "+" in out


def test_flags_win_over_config_file(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"margin": 0.0}))
    _, without_flag, _ = run_cli(capsys, "budget", "--fm", "20", "--config", str(config))
    _, with_flag, _ = run_cli(
        capsys, "budget", "--fm", "20", "--config", str(config), "--margin", "0.05"
    )
    assert "          20" in without_flag  # ob = fm at margin 0
    assert "          21" in with_flag  # ceil(20 * 1.05)


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"margni": 0.0}))
    code, _, err = run_cli(capsys, "budget", "--fm", "20", "--config", str(config))
    assert code == 2
    assert "margni" in err


@pytest.mark.parametrize(
    "setting",
    [{"margin": "x"}, {"restarts": 1.5}, {"naive": "no"}, {"format": "yaml"}, {"restarts": True}, {"naive": 1}],
    ids=["margin-string", "restarts-float", "naive-string", "format-unknown", "restarts-bool", "naive-int"],
)
def test_config_values_are_checked(tmp_path, capsys, setting):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(setting))
    code, out, err = run_cli(capsys, "plan", "--manifest", MANIFEST, "--config", str(config))
    assert (code, out) == (2, "")
    assert err.startswith("error: config ") and f"{next(iter(setting))} must be" in err


@pytest.mark.parametrize(
    "content, message",
    [("[]", "root must be an object"), ('{"margin": 1' + "0" * 400 + "}", "margin is out of range")],
    ids=["list-root", "huge-integer"],
)
def test_config_file_shape_is_checked(tmp_path, capsys, content, message):
    config = tmp_path / "run.json"
    config.write_text(content)
    code, out, err = run_cli(capsys, "plan", "--manifest", MANIFEST, "--config", str(config))
    assert (code, out, err) == (2, "", f"error: config {config}: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("cluster", "--alpha", "nan"),
        ("plan", "--beta", "inf"),
        ("plan", "--fm-ratio", "nan"),
        ("budget", "--fm-ratio", "inf"),
        ("simulate", "--alpha", "inf"),
    ],
)
def test_non_finite_flags_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--manifest", MANIFEST)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "must be finite" in err


@pytest.mark.parametrize("setting", ['"alpha": NaN', '"beta": Infinity', '"fm_ratio": NaN', '"fm_ratio": Infinity'])
def test_non_finite_config_values_exit_two(tmp_path, capsys, setting):
    config = tmp_path / "run.json"
    config.write_text("{" + setting + "}")
    code, out, err = run_cli(capsys, "plan", "--manifest", MANIFEST, "--config", str(config))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "must be finite" in err


@pytest.mark.parametrize(
    "argv, config, library_call",
    [
        (("sequence", "--manifest", MANIFEST, "--alpha", "nan"), None, lambda: ClusterParams(alpha=math.nan)),
        (("dsm", "--manifest", MANIFEST, "--margin", "2"), None, lambda: BudgetConfig(margin=2)),
        (("plan", "--manifest", MANIFEST, "--naive", "--beta", "-1"), None, lambda: ClusterParams(beta=-1)),
        (("plan", "--manifest", MANIFEST, "--naive", "--seed", "-1"), None, lambda: ClusterParams(seed=-1)),
        (("budget", "--fm", "10", "--restarts", "0"), None, lambda: ClusterParams(restarts=0)),
        (("sequence", "--manifest", MANIFEST), {"alpha": -1}, lambda: ClusterParams(alpha=-1)),
        (("sequence", "--manifest", MANIFEST, "--cw", "0"), None, lambda: ModelSpec("mistral-7b", 0, 8192)),
        (("sequence", "--manifest", MANIFEST, "--ol", "-3"), None, lambda: ModelSpec("mistral-7b", 32000, -3)),
        (("dsm", "--manifest", MANIFEST, "--cw", "-1"), None, lambda: ModelSpec("mistral-7b", -1, 8192)),
        (("simulate", "--manifest", MANIFEST), {"cw": 0}, lambda: ModelSpec("mistral-7b", 0, 8192)),
        (
            ("budget", "--manifest", MANIFEST, "--ust", "-5"),
            None,
            lambda: ConversationModel((), user_statement_tokens=-5),
        ),
    ],
    ids=[
        "sequence-alpha-nan",
        "dsm-margin",
        "naive-beta",
        "naive-seed",
        "fm-restarts",
        "sequence-config-alpha",
        "sequence-cw",
        "sequence-ol",
        "dsm-cw",
        "simulate-config-cw",
        "manifest-budget-ust",
    ],
)
def test_every_setting_is_checked_whichever_command_runs(tmp_path, capsys, argv, config, library_call):
    with pytest.raises(ValueError) as rejected:
        library_call()
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = (*argv, "--config", str(path))
    assert run_cli(capsys, *argv) == (2, "", f"error: {rejected.value}\n")


_COMMANDS = {
    "dsm": ("dsm", "--manifest", MANIFEST),
    "sequence": ("sequence", "--manifest", MANIFEST),
    "cluster": ("cluster", "--manifest", MANIFEST),
    "plan": ("plan", "--manifest", MANIFEST),
    "budget": ("budget", "--fm", "1000,2000"),
    "simulate": ("simulate", "--manifest", MANIFEST),
}


@pytest.mark.parametrize("command", _COMMANDS)
def test_config_of_every_default_changes_nothing(tmp_path, capsys, command):
    params, budget = ClusterParams(), BudgetConfig()
    defaults = {
        "manifest": None,
        "model": "mistral-7b",
        "catalog": None,
        "alpha": params.alpha,
        "beta": params.beta,
        "size_mode": params.size_mode,
        "seed": params.seed,
        "restarts": params.restarts,
        "margin": budget.margin,
        "fm_ratio": budget.fm_ratio,
        "instructions": None,
        "tokens": "approx",
        "cw": None,
        "ol": None,
        "format": None,
        "naive": False,
        "binary": False,
        "permute": "none",
        "fm": None,
        "ust": None,
    }
    config = tmp_path / "defaults.json"
    config.write_text(json.dumps(defaults))
    argv = _COMMANDS[command]
    without_config = run_cli(capsys, *argv)
    assert without_config[0] == 0
    assert run_cli(capsys, *argv, "--config", str(config)) == without_config


@pytest.mark.parametrize("command", _COMMANDS)
def test_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: dsmplan {command} ")


@pytest.mark.parametrize(
    "command, key, library, own",
    [
        ("cluster", "params", ClusterParams(), "max_cluster_tokens"),  # the model's cap
        ("plan", "config", BudgetConfig(), "instructions_per_piece"),  # the manifest's instruction block
    ],
)
def test_json_settings_are_the_library_defaults(capsys, command, key, library, own):
    _, out, _ = run_cli(capsys, command, "--manifest", MANIFEST, "--format", "json")
    shown = json.loads(out)[key]
    del shown[own]
    assert shown and shown == {k: v for k, v in asdict(library).items() if k in shown}


def test_config_accepts_json_spellings_of_the_flags(tmp_path, capsys):
    # an integer where a number is due, null for an unset default, false for a flag
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"alpha": 2, "margin": 0, "cw": None, "naive": False, "format": "json"}))
    with_config = run_cli(capsys, "plan", "--manifest", MANIFEST, "--config", str(config))
    assert with_config == run_cli(capsys, "plan", "--manifest", MANIFEST, "--margin", "0", "--format", "json")


@pytest.mark.parametrize("content", [b"[" * 200_000, b'{"margin": "caf\xe9"}'], ids=["nested", "not-utf8"])
@pytest.mark.parametrize("flag", ["--manifest", "--config"])
def test_unreadable_json_exits_two(tmp_path, capsys, flag, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "plan", "--manifest", MANIFEST, flag, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "input.json" in err


@pytest.mark.parametrize("flag, prefix", [("--catalog", ""), ("--tokens", "table:")], ids=["catalog", "tokens"])
def test_oversized_csv_field_exits_two(tmp_path, capsys, flag, prefix):
    # a field over csv.field_size_limit() is bad input, reported in one line
    path = tmp_path / "input.csv"
    path.write_text("f" * (csv.field_size_limit() + 1) + "\n")
    code, out, err = run_cli(capsys, "plan", "--manifest", MANIFEST, flag, prefix + str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "input.csv: field larger than field limit" in err


def test_missing_manifest_exits_two(capsys):
    code, _, err = run_cli(capsys, "sequence", "--manifest", "/nonexistent/conv.json")
    assert code == 2
    assert "/nonexistent/conv.json" in err


def test_manifest_required(capsys):
    code, _, err = run_cli(capsys, "sequence")
    assert code == 2
    assert "--manifest" in err


def test_unknown_model_exits_two(capsys):
    code, _, err = run_cli(capsys, "plan", "--manifest", MANIFEST, "--model", "never-heard-of-it")
    assert code == 2
    assert "mistral-7b" in err  # lists what's available


def test_token_table_mode(tmp_path, capsys):
    manifest = tmp_path / "conv.json"
    manifest.write_text(
        json.dumps({"elements": [{"id": "x", "label": "X"}, {"id": "y", "label": "Y", "deps": ["x"]}]})
    )
    table = tmp_path / "tokens.csv"
    table.write_text("id,tokens\nx,5\ny,7\n")
    code, out, _ = run_cli(
        capsys, "dsm", "--manifest", str(manifest), "--tokens", f"table:{table}"
    )
    assert code == 0
    assert ",5," in out or out.rstrip().endswith(",5") or "y,5" in out


def test_missing_token_table_exits_two(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "dsm", "--manifest", MANIFEST, "--tokens", "table:/nonexistent/t.csv"
    )
    assert code == 2
    assert "/nonexistent/t.csv" in err


def test_bad_tokens_mode_exits_two(capsys):
    code, _, err = run_cli(capsys, "dsm", "--manifest", MANIFEST, "--tokens", "guess")
    assert code == 2
    assert "approx" in err


def test_bundled_token_table_plans_as_the_manifest_counts(capsys):
    by_manifest = run_cli(capsys, "plan", "--manifest", MANIFEST, "--format", "json")
    by_table = run_cli(
        capsys, "plan", "--manifest", MANIFEST, "--format", "json", "--tokens", f"table:{SPACECRAFT_TOKEN_TABLE}"
    )
    assert by_table == by_manifest


@pytest.mark.parametrize("prefix", ["--fm", "--res"])
def test_flag_prefixes_are_not_abbreviations(capsys, prefix):
    # "--fm" is budget's literal-figures flag, not short for plan's "--fm-ratio"
    with pytest.raises(SystemExit) as exited:
        main(["plan", "--manifest", MANIFEST, prefix, "2"])
    assert exited.value.code == 2
    assert f"unrecognized arguments: {prefix} 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sequence", "--manifest", MANIFEST, "--model", "bogus"), "bogus"),
        (("dsm", "--manifest", MANIFEST, "--catalog", "/nonexistent.csv"), "cannot read catalog /nonexistent.csv"),
        (("budget", "--fm", "10", "--tokens", "guess"), "--tokens must be 'approx' or 'table:PATH'"),
        (
            ("sequence", "--manifest", MANIFEST, "--tokens", "table:/nonexistent.csv"),
            "cannot read token table /nonexistent.csv",
        ),
    ],
    ids=["sequence-model", "dsm-catalog", "fm-tokens", "sequence-table"],
)
def test_model_and_tokens_are_checked_whichever_command_runs(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_plan_output_is_deterministic(capsys):
    first = run_cli(capsys, "plan", "--manifest", MANIFEST, "--format", "json")
    second = run_cli(capsys, "plan", "--manifest", MANIFEST, "--format", "json")
    assert first == second

def test_cw_below_the_model_output_limit_is_still_a_window_to_simulate(capsys):
    # --cw is checked for every command, but only as a positive count: 1000
    # sits below mistral-7b's OL of 8192, and simulate runs the plans in it
    code, out, err = run_cli(capsys, "simulate", "--manifest", MANIFEST, "--cw", "1000")
    assert (code, err) == (1, "") and "CW=1000" in out


@pytest.mark.parametrize("command", ["sequence", "dsm", "cluster", "plan"])
def test_token_counts_beyond_int64_exit_zero(tmp_path, capsys, command):
    # every stage is exact on Python ints, so no token count is too large
    doc = json.loads(Path(MANIFEST).read_text(encoding="utf-8"))
    for element in doc["elements"]:
        element.pop("text", None)
        element.setdefault("tokens", 10)
    doc["elements"][0]["tokens"] = 10**23  # element A, a provider
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    limits = ["--cw", str(10**30), "--ol", str(10**30)]  # so cluster's cap lets A through
    code, out, err = run_cli(capsys, command, "--manifest", str(path), *limits)
    assert (code, err) == (0, "") and out
    if command == "dsm":
        assert "\nB,100000000000000000000000," in out  # B depends on A, at A's exact count


# the annealed plan of the bundled corpus with the default settings, byte for
# byte as it printed while numpy was imported with the package, and while the
# annealer drew from numpy's generator
ANNEALED_PLAN = """\
MODEL                       mistral-7b
  Context window - CW            32000
  Max output     - OL             8192
PARAMETERS                            
  User statement - USt             200
  Instructions   - IntLLM           50  per piece
  Margin         - MG             0.05
  FM ratio                           1
PIECE 1  [A, B]  (+ user statement)
  Generic text   - GM              462
  Filled text    - FM              462
  Output budget  - OB              486
  OL - OB                        +7706
PIECE 2  [C, G, F, H]
  Generic text   - GM             5653
  Filled text    - FM             5653
  Output budget  - OB             5936
  OL - OB                        +2256
PIECE 3  [D, E, I, J, L, K]
  Generic text   - GM             3582
  Filled text    - FM             3582
  Output budget  - OB             3762
  OL - OB                        +4430
PIECE 4  [M]
  Generic text   - GM               16
  Filled text    - FM               16
  Output budget  - OB               17
  OL - OB                        +8175
WHOLE CONVERSATION                    
  Window budget  - WB            20818
  CW - WB                       +11182
FEASIBLE                           yes
"""

_NUMPY_PROBE = """
import contextlib, io, json, sys

def loaded():
    return "numpy" in sys.modules

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()

import dsmplan
seen = {"import dsmplan": loaded()}
from dsmplan import cli
seen["import dsmplan.cli"] = loaded()
manifest = sys.argv[1]
for argv in (
    ["plan", "--manifest", manifest, "--naive"],
    ["sequence", "--manifest", manifest],
    ["budget", "--fm", "272,1438,7703,16"],
):
    run(argv)
    seen[" ".join(argv[:2])] = loaded()
for flags in (["--format", "csv"], ["--format", "text"], ["--format", "json"],
              ["--binary", "--permute", "sequence", "--format", "text"]):
    run(["dsm", "--manifest", manifest, *flags])
    seen[" ".join(["dsm", *flags])] = loaded()
dsmplan.reachability(dsmplan.build_dsm(dsmplan.parse_manifest(manifest).elements))
seen["reachability"] = loaded()
empty_code, empty_out = run(["cluster", "--manifest", sys.argv[2], "--format", "json"])
seen["cluster, empty manifest"] = loaded()
code, plan = run(["plan", "--manifest", manifest])
seen["plan, annealed"] = loaded()
for argv in (
    ["cluster", "--manifest", manifest],
    ["simulate", "--manifest", manifest, "--cw", "8000"],
    ["budget", "--manifest", manifest],
):
    run(argv)
    seen[" ".join(argv[:2])] = loaded()
print(json.dumps({"seen": seen, "plan": plan, "code": code,
                  "empty": [empty_code, json.loads(empty_out)["num_clusters"]]}))
"""


def test_no_command_imports_numpy(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text('{"elements": []}', encoding="utf-8")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, MANIFEST, str(empty)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["seen"] == {
        "import dsmplan": False,
        "import dsmplan.cli": False,
        "plan --manifest": False,
        "sequence --manifest": False,
        "budget --fm": False,
        "dsm --format csv": False,
        "dsm --format text": False,
        "dsm --format json": False,
        "dsm --binary --permute sequence --format text": False,
        "reachability": False,
        "cluster, empty manifest": False,
        # the annealer draws from the standard library's generator
        "plan, annealed": False,
        "cluster --manifest": False,
        "simulate --manifest": False,
        "budget --manifest": False,
    }
    assert result["empty"] == [0, 0]  # exit 0, "num_clusters": 0
    assert result["code"] == 0
    assert result["plan"] == ANNEALED_PLAN
