"""Bundled fixture data: the spacecraft conversation corpus and model catalog."""

from __future__ import annotations

from pathlib import Path

_DIR = Path(__file__).resolve().parent

SPACECRAFT_MANIFEST = _DIR / "spacecraft.json"
SPACECRAFT_TOKEN_TABLE = _DIR / "spacecraft_tokens.csv"
SPACECRAFT_DSM_TOKENS = _DIR / "spacecraft_dsm_tokens.csv"
SPACECRAFT_DSM_BINARY = _DIR / "spacecraft_dsm_binary.csv"
SPACECRAFT_EXPECTED = _DIR / "spacecraft_expected.json"
MODEL_CATALOG = _DIR / "model_catalog.csv"

