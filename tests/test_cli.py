import json

import pytest

from dsmplan.cli import main
from dsmplan.data import SPACECRAFT_DSM_BINARY, SPACECRAFT_DSM_TOKENS, SPACECRAFT_MANIFEST

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


@pytest.mark.parametrize("content", [b"[" * 200_000, b'{"margin": "caf\xe9"}'], ids=["nested", "not-utf8"])
@pytest.mark.parametrize("flag", ["--manifest", "--config"])
def test_unreadable_json_exits_two(tmp_path, capsys, flag, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "plan", "--manifest", MANIFEST, flag, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "input.json" in err


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


def test_plan_output_is_deterministic(capsys):
    first = run_cli(capsys, "plan", "--manifest", MANIFEST, "--format", "json")
    second = run_cli(capsys, "plan", "--manifest", MANIFEST, "--format", "json")
    assert first == second