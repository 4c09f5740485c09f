"""The documented entry points run: both scripts and the README's command lines.

README's size-limit table is checked against the errors the library raises,
and its tightness table against the deviations the library computes.

Each test works in its own temporary directory, so the files the commands
write land there.
"""

import csv
import importlib.util
import io
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pivotal import (
    MajorityFn,
    MajPFn,
    PARTICIPATION,
    ParityFn,
    PivotalError,
    ProductDist,
    effect_counterexample,
    elimination_set,
    hadamard_mu,
    influence_counterexample,
    majp_dist,
    mixture_D,
    monotone_check,
    pivotal_player,
    reduce_to_binary,
    uniform_product,
)
from pivotal.boolfn import (
    _INFLUENCE_K_LIMIT,
    _MONOTONE_CHECK_LIMIT,
    Certificate,
    CertificateError,
)
from pivotal.cli import main
from pivotal.dist import _CLASS_FOLD_LIMIT, _EXPANSION_LIMIT
from pivotal.generators import _HADAMARD_K_LIMIT, _PRODUCT_N_LIMIT
from pivotal.theorems import _ELIMINATION_M_LIMIT, _ELIMINATION_N_LIMIT, _REDUCTION_ARITY_LIMIT

ROOT = Path(__file__).resolve().parents[1]


def _readme_commands() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("pivotal ")]


def test_readme_command_lines_exit_0(tmp_path, monkeypatch, capsys):
    # The lines run in order: later ones read the files that earlier ones write.
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 14
    assert any(line.startswith("pivotal sweep ") and "--p-prime" in line for line in commands)
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
        out, err = capsys.readouterr()
        assert err == "", line
        if line.startswith("pivotal sweep "):  # each example shows a nonzero count
            rows = list(csv.DictReader(io.StringIO(out)))
            assert any(row["count"] != "0" for row in rows), out


@pytest.mark.parametrize("argv", [
    ["build_counterexamples.py", "--k", "3,4"],
    ["tightness_experiment.py", "--n", "5", "--sizes", "9,25"],
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


def _size_limit_rows() -> list:
    """(call cell, example error text) of each row of README's "Size limits" table."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Size limits", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in table.splitlines() if line.startswith("|")][2:]
    return [pytest.param(cells[0], cells[-1].strip("`"), id=cells[0].replace("`", ""))
            for cells in ([c.strip() for c in line.strip("|").split("|")] for line in lines)]


def _tightness_rows() -> list:
    """(n, value) of each row of README's "Tightness" table."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("**Tightness.**", 1)[1].split("\n\n", 2)[1]
    lines = [line for line in table.splitlines() if line.startswith("|")][2:]
    return [pytest.param(int(n.replace(",", "")), value, id=n.replace(",", ""))
            for n, value in ([c.strip() for c in line.strip("|").split("|")] for line in lines)]


@pytest.mark.parametrize("n, value", _tightness_rows())
def test_readme_tightness_table_matches_the_code(n, value):
    # The exact vote-1 deviation of player 0 at p = 1/2, times sqrt(pn), as
    # scripts/tightness_experiment.py prints it.
    _, row = pivotal_player(MajPFn(n), majp_dist(n, HALF), 0, HALF, Fraction(1))
    deviation = next(sd.deviation for sd in row.deviations if sd.symbol == 1)
    assert f"{float(deviation) * math.sqrt(n / 2):.5f}" == value


def test_readme_tightness_table_lists_every_size():
    assert [param.values[0] for param in _tightness_rows()] == [9, 25, 49, 201, 281, 1000, 10000]


HALF = Fraction(1, 2)
_K, _N = _HADAMARD_K_LIMIT + 1, _PRODUCT_N_LIMIT + 1
_GRID = next(n for n in range(1, 64) if 3 ** n > _EXPANSION_LIMIT)  # majp_dist has 3 symbols
_ARITY = _REDUCTION_ARITY_LIMIT + 1
_TERNARY_ARITY = next(k for k in range(1, 64) if 3 ** k > 2 ** _REDUCTION_ARITY_LIMIT)
# MajP's row polynomial has degree 2: k + 1 classes of 2k + 1 coefficients.
_CLASSES = next(k for k in range(1, 1 << 11) if (k + 1) * (2 * k + 1) > _CLASS_FOLD_LIMIT)


def _unequal_votes(n: int) -> ProductDist:
    """n voters on the participation alphabet who never abstain, each with its own row."""
    return ProductDist(PARTICIPATION, n, [(HALF - Fraction(1, 100 + i), HALF + Fraction(1, 100 + i),
                                           Fraction(0)) for i in range(n)])


# Each row's calls at the first value past its limit, from the limit constants.
SIZE_LIMIT_CALLS = {
    "`hadamard_mu(k)`, `mixture_D(k)`, `effect_counterexample(k)`": [
        lambda: hadamard_mu(_K), lambda: mixture_D(_K), lambda: effect_counterexample(_K)],
    "`influence_counterexample(k)`, `counterexample --which influence`": [
        lambda: influence_counterexample(_INFLUENCE_K_LIMIT + 1)],
    "`uniform_product(n)`, `majp_dist(n, p)`": [
        lambda: uniform_product(_N), lambda: majp_dist(_N, HALF)],
    "`ProductDist.to_explicit()`": [lambda: majp_dist(_GRID, HALF).to_explicit()],
    "`monotone_check(f)`": [lambda: monotone_check(ParityFn(_MONOTONE_CHECK_LIMIT + 1))],
    "`elimination_set`, `verify --which thm2`": [
        lambda: elimination_set(MajorityFn(_ELIMINATION_N_LIMIT + 1),
                                uniform_product(_ELIMINATION_N_LIMIT + 1), 1, HALF, HALF)],
    "the same, coalition size": [
        lambda: elimination_set(MajorityFn(8), uniform_product(8), _ELIMINATION_M_LIMIT + 1,
                                HALF, HALF)],
    # Every player is pivotal at a small alpha, so all are selected. An
    # explicit support and a product whose rows differ fold vector by vector.
    "`reduce_to_binary`, `verify --which reduction`": [
        lambda: reduce_to_binary(MajorityFn(_ARITY), hadamard_mu(5).marginal(range(_ARITY)),
                                 Fraction(1, 4), Fraction(1, 1000))],
    "the same, joint symbols": [
        lambda: reduce_to_binary(MajPFn(_TERNARY_ARITY), _unequal_votes(_TERNARY_ARITY),
                                 Fraction(1, 4), Fraction(1, 1000))],
    # Equal rows fold by deviation count.
    "the same, on equal rows": [
        lambda: reduce_to_binary(MajPFn(_CLASSES), majp_dist(_CLASSES, HALF), Fraction(1, 4),
                                 Fraction(1, 1000))],
}


@pytest.mark.parametrize("call, text", _size_limit_rows())
def test_readme_size_limits_match_the_errors(call, text):
    # The table's example text is the error raised just past each limit.
    for make in SIZE_LIMIT_CALLS[call]:
        with pytest.raises(PivotalError) as exc:
            make()
        assert str(exc.value) == text
