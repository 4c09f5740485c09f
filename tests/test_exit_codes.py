"""The exit-code contract of ``pivotal.cli.main`` on random command lines.

0 means success or verified, 1 a failed verdict or certificate, 2 a usage
or input error; argparse reports its usage errors as ``SystemExit(2)``.
Nothing else may escape ``main``, and 1 comes only with a verdict or
certificate on stdout whose "ok" is false. Inputs are arbitrary JSON files,
files holding valid spaces and functions, and builtin specs, well formed or
not, among them spaces where no marginal lies inside (0, 1) and function
files of the wrong arity. Sizes stay tiny: k <= 4, n <= 7.
"""

import contextlib
import io
import itertools
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pivotal import (
    BINARY,
    DenseTable,
    ProductDist,
    UpwardClosure,
    hadamard_mu,
    majp_dist,
    mixture_D,
    uniform_product,
)
from pivotal.cli import COMMANDS, GENERATORS, VERIFIERS, main, parse_argv
from pivotal.serialize import BUILTINS, dist_to_obj, fn_to_obj

F = Fraction

KEYS = ["kind", "alphabet", "n", "support", "x", "w", "marginals", "values",
        "name", "params", "i", "c", "generators"]
WORDS = ["explicit", "product", "table", "builtin", "upward", *BUILTINS, "nosuch",
         "0", "1", "01", "00", "1/2", "1/0", "-1/3", "0.5", "⊥"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats()
    | st.sampled_from(WORDS) | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner,
                                     max_size=5)),
    max_leaves=12)

spaces = st.one_of(
    st.integers(1, 3).map(hadamard_mu),
    st.integers(1, 2).map(mixture_D),
    st.integers(1, 6).map(uniform_product),
    st.builds(majp_dist, st.integers(1, 4), st.sampled_from([F(1, 3), F(1, 2)])),
    # Every player always shows 0: no effect is defined, and no marginal is inside (0, 1).
    st.integers(1, 3).map(lambda n: ProductDist(BINARY, n, [(F(1), F(0))] * n)),
)

RATIONALS = ["1/2", "1/4", "1/5", "1", "0", "-1/4"]
BAD_RATIONALS = ["1/0", "0.5", "x"]
SPECS = [*BUILTINS, "dictator:0", "dictator:1", "constant:1/2", "constant:0"]
BAD_SPECS = ["dictator:9", "dictator:x", "dictator", "constant:3/2", "constant:1/0",
             "parity:7", "majority:x", "majp:", "nosuch"]


# Removed sweep options (the Monte Carlo mode's and its mode flag), which
# argparse now refuses with exit 2.
REMOVED = ("--samples", "--seed", "--majp-tightness")


def _option(good, bad=(), required=False):
    """A value for one option, mostly a good one, or None to leave it out."""
    return st.sampled_from([*good] * 4 + [*bad] + [None] * (1 if required else 2 * len(good)))


def _function(data, d):
    if d.alphabet.symbols == ("0", "1") and data.draw(st.booleans()):
        gens = data.draw(st.lists(st.integers(1, (1 << d.n) - 1), max_size=3))
        return UpwardClosure.from_masks(d.n, gens)
    points = itertools.product(range(len(d.alphabet)), repeat=d.n)
    return DenseTable(d.alphabet, d.n, {x: F(data.draw(st.integers(-2, 2)), 2) for x in points})


def _json_file(data, path: Path, obj: dict) -> str:
    """A file holding obj, obj with one field replaced by arbitrary JSON, or arbitrary JSON."""
    choice = data.draw(st.sampled_from(["valid"] * 4 + ["mutant", "mutant", "json"]))
    if choice == "mutant":
        obj = {**obj, data.draw(st.sampled_from(sorted(obj))): data.draw(json_values)}
    elif choice == "json":
        obj = data.draw(json_values)
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _input_file(data, tmp: Path, name: str, space) -> str:
    """A distribution file, or a path that is missing or names a directory."""
    choice = data.draw(st.sampled_from(["file"] * 5 + ["missing", "directory"]))
    if choice == "file":
        return _json_file(data, tmp / name, dist_to_obj(space))
    return str(tmp / "missing.json" if choice == "missing" else tmp)


def _function_arg(data, tmp: Path, space) -> str:
    choice = data.draw(st.sampled_from(["spec"] * 3 + ["bad spec", "file", "file", "arity"]))
    if choice == "file":
        return _json_file(data, tmp / "fn.json", fn_to_obj(_function(data, space)))
    if choice == "arity":  # a function of one player more than the space has
        return _json_file(data, tmp / "fn.json", fn_to_obj(UpwardClosure(space.n + 1, [])))
    return data.draw(st.sampled_from(SPECS if choice == "spec" else BAD_SPECS))


def _argv(data, tmp: Path) -> list[str]:
    command = data.draw(st.sampled_from(["gen", "analyze", "verify", "counterexample", "sweep"]))
    space = data.draw(spaces)
    out_path = data.draw(st.sampled_from([str(tmp / "out.json"), str(tmp)]))
    rational = _option(RATIONALS, BAD_RATIONALS)
    if command == "gen":
        argv = ["gen", data.draw(st.sampled_from([*GENERATORS, "nosuch"]))]
        options = {"--k": _option(["1", "2", "4"], ["0", "x"]),
                   "--n": _option(["1", "3", "6"], ["0"]),
                   "--p": rational, "--out": _option([out_path])}
    elif command == "analyze":
        argv = ["analyze"]
        options = {"--dist": st.just(_input_file(data, tmp, "dist.json", space)),
                   "--fn": st.just(_function_arg(data, tmp, space)),
                   "--what": _option(["effects", "influences", "pivotal", "counts"],
                                     required=True),
                   "--p": rational, "--alpha": rational,
                   "--format": _option(["json", "csv"], ["xml"])}
    elif command == "verify":
        argv = ["verify"]
        dist2 = _input_file(data, tmp, "dist2.json", data.draw(spaces))
        options = {"--which": _option(VERIFIERS, ["nosuch"], required=True),
                   "--dist": st.just(_input_file(data, tmp, "dist.json", space)),
                   "--dist2": _option([dist2]),
                   "--fn": st.just(_function_arg(data, tmp, space)),
                   "--p": rational, "--alpha": rational, "--q": rational,
                   "--m": _option(["1", "2"], ["0", "-1"]),
                   "--player": _option(["0", "1"], ["9", "-1"]),
                   "--players": _option(["0", "0,1"], ["1,1", "9", "x"])}
    elif command == "counterexample":
        argv = ["counterexample"]
        options = {"--which": _option(["effect", "influence"], ["x"], required=True),
                   "--k": _option(["1", "2", "3", "4"], ["0", "x"], required=True),
                   "--out-fn": _option([out_path]), "--out-dist": _option([str(tmp / "d.json")])}
    else:
        argv = ["sweep"]
        options = {"--n": _option(["1", "2", "5", "6"], ["0"], required=True), "--p": rational,
                   "--alpha-grid": _option(["1/8", "1/8,1/4"], ["0", "1/4,x"]),
                   **{option: st.sampled_from([None] * 4 + ["10"]) for option in REMOVED},
                   "--format": _option(["csv", "json"])}
    for flag, values in options.items():
        value = data.draw(values)
        if value is not None:
            argv.append(f"{flag}={value}")  # "=" keeps a value such as -1/4 from reading as a flag
    # A stray token before the command, which the full tree parses, or after
    # it, which the command's own parser leaves over.
    before = data.draw(st.sampled_from([[]] * 4 + [["--bogus"], ["--"]]))
    after = [] if before else data.draw(st.sampled_from([[]] * 4 + [["--bogus"], ["stray"]]))
    return before + argv + after


def _parses(argv: list[str]) -> bool:
    """Whether main's parse step accepts argv, with its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parse_argv(argv)
        except SystemExit:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exit_codes_follow_the_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = _argv(data, Path(tmp))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                assert exc.code == 2, argv
                event(f"{argv[0]}: usage error")
                if argv[0] in COMMANDS and argv[-1] in ("--bogus", "stray") \
                        and _parses(argv[:-1]):  # left over, so the top-level usage
                    event("stray word after a command line that parses")
                    assert err.getvalue().startswith("usage: pivotal [-h]"), (argv, err.getvalue())
                return
    event(f"{argv[0]}: exit {code}")
    assert not any(a.split("=")[0] in REMOVED for a in argv), argv
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue().startswith("pivotal: error:"), (argv, err.getvalue())
    if code == 1:
        assert json.loads(out.getvalue())["ok"] is False, argv


def test_main_reads_sys_argv_without_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["pivotal", "gen", "majp", "--n", "2", "--p", "1/2"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "product"
    monkeypatch.setattr(sys, "argv", ["pivotal", "nosuch"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err
