"""The documented entry points run: both scripts and the README's command lines.

Each test works in its own temporary directory, so the files the commands
write land there.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

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
