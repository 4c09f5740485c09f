"""The documented entry points run: both scripts and the README's command lines.

Each test works in its own temporary directory, so the files the commands
write land there.
"""

import importlib.util
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pivotal.boolfn import Certificate, CertificateError
from pivotal.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _readme_commands() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("pivotal ")]


def test_readme_command_lines_exit_0(tmp_path, monkeypatch, capsys):
    # The lines run in order: later ones read the files that earlier ones write.
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 13
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().err == "", line


@pytest.mark.parametrize("argv", [
    ["build_counterexamples.py", "--k", "3,4"],
    ["tightness_experiment.py", "--n", "5", "--mc-sizes", "9", "--samples", "200"],
], ids=["build-counterexamples", "tightness-experiment"])
def test_script_exits_0(tmp_path, argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout


@pytest.mark.parametrize("which, k, status", [
    ("influence", 3, 0), ("influence", 4, 1), ("effect", 3, 1)])
def test_build_counterexamples_fails_on_an_unexpected_refusal(tmp_path, monkeypatch, capsys,
                                                              which, k, status):
    # Only the influence build's refusal at k=3 is expected.
    spec = importlib.util.spec_from_file_location(
        "build_counterexamples", ROOT / "scripts" / "build_counterexamples.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def refuse(k):
        raise CertificateError("refused", Certificate(which, k, ()), "pair")

    monkeypatch.setattr(script, f"{which}_counterexample", refuse)
    monkeypatch.setattr(sys, "argv", ["build_counterexamples.py", "--k", str(k),
                                      "--out-dir", str(tmp_path)])
    assert script.main() == status
    assert f"{which} k={k}: REFUSED (pair)" in capsys.readouterr().out
