"""The experiment scripts use the package's public names alone."""

import ast
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_scripts_import_only_public_names(script):
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(script.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "horizonflux"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
