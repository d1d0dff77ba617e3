import importlib
import tomllib
from pathlib import Path

from opbar import cli

ROOT = Path(__file__).resolve().parents[1]


def test_verify_prints_every_criterion(capsys):
    assert cli.main(["verify", "--max-arity", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    assert all("[PASS]" in line for line in lines)


def test_project_scripts_import():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
