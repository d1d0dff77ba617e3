import importlib
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from opbar import cli, verify

ROOT = Path(__file__).resolve().parents[1]


def test_verify_prints_every_criterion(capsys):
    assert cli.main(["verify", "--max-arity", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    assert all("[PASS]" in line for line in lines)


def test_verify_runs_one_criterion(capsys):
    assert cli.main(["verify", "--criterion", "6", "--max-arity", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("criterion  6 [PASS]")


def test_verify_json_prints_one_object_per_criterion(capsys):
    assert cli.main(["verify", "--json", "--criterion", "1",
                     "--max-arity", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert set(result) == {"number", "name", "passed", "detail", "seconds"}
    assert result["number"] == 1 and result["passed"] is True
    assert result["seconds"] >= 0


def test_verify_exit_status_follows_the_verdict(monkeypatch, capsys):
    def failing(_ctx):
        return verify.CriterionResult(1, "enumeration", False, "forced")

    monkeypatch.setattr(verify, "CRITERIA", (failing,) + verify.CRITERIA[1:])
    assert cli.main(["verify", "--criterion", "1", "--max-arity", "2"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize("number", ["0", "12"])
def test_verify_rejects_a_criterion_out_of_range(number, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--criterion", number])
    assert exc.value.code == 2
    assert "outside 1..11" in capsys.readouterr().err


def test_project_scripts_import():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))


def test_module_entry_point_runs_verify():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "opbar", "verify", "--criterion", "1",
         "--json"], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["number"] == 1
