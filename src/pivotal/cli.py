"""Command-line interface: generation, analysis, verification, counterexamples.

All rationals on the command line are exact "num/den" strings. Reports go
to stdout (JSON or CSV with paired exact/decimal columns), diagnostics to
stderr. Exit codes: 0 success or verified, 1 verification failed, 2 usage
or input error. Identical invocations produce byte-identical output.

Each subcommand's options are one table of (flag, add_argument keywords)
in ``COMMANDS``. A command line that starts with a subcommand's name and
holds only exact flags with well-formed values is parsed by one scan over
that table (``_scan``), and no parser is built. Every other command line
is parsed by the full argparse tree (``build_parser``), which gives help,
usage errors and their exit codes.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis, boolfn, generators, theorems
from .boolfn import CertificateError, PlayerFunction
from .dist import Distribution, PivotalError
from .serialize import (
    BUILTIN_SPECS,
    canonical_dumps,
    dist_to_obj,
    fn_from_spec,
    jsonable,
    load_dist,
    load_fn,
    parse_rational,
    rational_str,
    save_dist,
    save_fn,
)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        sys.stdout.write(text + "\n")


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except PivotalError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _players_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated player indices, got {text!r}")


def _grid_arg(text: str) -> tuple[Fraction, ...]:
    return tuple(_rational_arg(part) for part in text.split(","))


def _load_function(spec: str, d: Distribution) -> PlayerFunction:
    """A builtin spec like majp / dictator:0 / constant:1/2, or a function file path.

    A spec whose name before ":" is a builtin name always means the builtin,
    even when a file of that name exists; write ./majority for the file.
    """
    f = fn_from_spec(spec, d.n, d.alphabet)
    if f is None:
        if not Path(spec).exists():
            raise PivotalError(f"{spec!r} is neither a file nor a builtin ({BUILTIN_SPECS})")
        f = load_fn(spec)
    if f.alphabet != d.alphabet:
        raise PivotalError(
            f"function alphabet {f.alphabet.symbols} does not match "
            f"distribution alphabet {d.alphabet.symbols}")
    if f.n != d.n:
        raise PivotalError(f"function arity {f.n} does not match distribution arity {d.n}")
    return f


def _exact(name: str, x: Fraction) -> dict:
    """JSON report fields for a rational: exact under name, a float under name_float."""
    return {name: x, f"{name}_float": float(x)}


def _columns(row: dict) -> dict:
    """CSV columns of a report row: a rational gives an exact and a decimal
    column, name and name_dec; _float fields and nested lists are JSON-only."""
    columns = {}
    for name, value in row.items():
        if isinstance(value, Fraction):
            columns[name], columns[f"{name}_dec"] = rational_str(value), float(value)
        elif not (name.endswith("_float") or isinstance(value, list)):
            columns[name] = value
    return columns


def _csv_text(rows: list[dict]) -> str:
    """CSV of report rows: a header of the first row's _columns, then one line per row."""
    columns = [_columns(row) for row in rows]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns[0])
    writer.writerows(c.values() for c in columns)
    return buf.getvalue().rstrip("\n")


# ----------------------------------------------------------------------
# Subcommands


# name -> (the options it needs, how it runs). The runs look up generators.*
# and theorems.* at call time, so a patched module attribute takes effect.
GENERATORS = {
    "hadamard-mu": (("k",), lambda a: generators.hadamard_mu(a.k)),
    "complement-mu": (("k",), lambda a: generators.complement_mu(generators.hadamard_mu(a.k))),
    "mixture-d": (("k",), lambda a: generators.mixture_D(a.k)),
    "uniform-product": (("n",), lambda a: generators.uniform_product(a.n)),
    "majp": (("n", "p"), lambda a: generators.majp_dist(a.n, a.p)),
}

VERIFIERS = {
    "thm1": (("p", "alpha"), lambda f, d, a: theorems.verify_thm1(f, d, a.p, a.alpha)),
    "thm2": (("m", "p", "alpha"),
             lambda f, d, a: theorems.verify_elimination(f, d, a.m, a.p, a.alpha)),
    "warmup": (("alpha",), lambda f, d, a: theorems.verify_warmup(f, d, a.alpha)),
    "sum-bound": (("players",), lambda f, d, a: theorems.verify_sum_bound(f, d, a.players)),
    "binary-bound": (("alpha",),
                     lambda f, d, a: theorems.verify_binary_bound(f, d, a.alpha)),
    "reduction": (("p", "alpha"),
                  lambda f, d, a: theorems.verify_reduction(f, d, a.p, a.alpha)),
    "convex": (("dist2", "q", "player"),
               lambda f, d, a: theorems.convex_decomposition_check(
                   f, d, load_dist(a.dist2), a.q, a.player)),
    "effect-identity": ((), lambda f, d, a: theorems.verify_effect_identity(f, d)),
}


def _require(args: argparse.Namespace, command: str, names: tuple[str, ...]) -> None:
    """Input error naming every option in names that command needs and lacks."""
    missing = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is None]
    if missing:
        raise PivotalError(f"{command} needs {' and '.join(missing)}")


def _cmd_gen(args: argparse.Namespace) -> int:
    needs, make = GENERATORS[args.kind]
    _require(args, f"gen {args.kind}", needs)
    _emit(canonical_dumps(dist_to_obj(make(args))), args.out)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    d = load_dist(args.dist)
    f = _load_function(args.fn, d)
    head = {"what": args.what}
    if args.what == "effects":
        rows = [{"player": r.player, **_exact("signed", r.signed), **_exact("effect", r.effect)}
                for r in analysis.effect_report(f, d).rows]
    elif args.what == "influences":
        rows = [{"player": i, **_exact("influence", analysis.influence(f, d, i))}
                for i in range(d.n)]
    elif args.what == "pivotal":
        _require(args, "analyze --what pivotal", ("p", "alpha"))
        report = analysis.pivotal_report(f, d, args.p, args.alpha)
        head.update(expectation=report.expectation, p=report.p, alpha=report.alpha)
        rows = [{"player": r.player, **_exact("deviating_mass", r.deviating_mass),
                 "pivotal": r.pivotal,
                 "deviations": [{"symbol": d.alphabet.symbols[sd.symbol], "mass": sd.mass,
                                 **_exact("deviation", sd.deviation)} for sd in r.deviations]}
                for r in report.rows]
    else:  # counts: one row, whose fields JSON shows at the top level
        _require(args, "analyze --what counts", ("alpha",))
        if args.p is None:
            rows = [{"alpha": args.alpha, "count_effect": analysis.count_effect(f, d, args.alpha)}]
        else:
            rows = [{"p": args.p, "alpha": args.alpha,
                     "count_pivotal": analysis.count_pivotal(f, d, args.p, args.alpha)}]
    if args.format == "csv":
        _emit(_csv_text(rows), None)
    else:
        payload = {**head, **rows[0]} if args.what == "counts" else {**head, "players": rows}
        _emit(canonical_dumps(jsonable(payload)), None)
    return 0


def _verdict_payload(v: theorems.Verdict) -> dict:
    payload = {
        "theorem": v.which,
        "inputs": v.inputs,
        "computed": v.computed,
        "bound": v.bound,
        "ok": v.ok,
    }
    if v.witness is not None:
        payload["witness"] = v.witness
    return jsonable(payload)


def _cmd_verify(args: argparse.Namespace) -> int:
    needs, run = VERIFIERS[args.which]
    _require(args, f"verify --which {args.which}", needs)
    d = load_dist(args.dist)
    verdict = run(_load_function(args.fn, d), d, args)
    _emit(canonical_dumps(_verdict_payload(verdict)), None)
    return 0 if verdict.ok else 1


def _certificate_payload(cert: boolfn.Certificate, violation=None) -> dict:
    payload = {
        "kind": cert.kind,
        "k": cert.k,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in cert.checks],
        "ok": cert.ok,
    }
    if violation is not None:
        payload["violation"] = jsonable(violation)
    return payload


def _cmd_counterexample(args: argparse.Namespace) -> int:
    build = (boolfn.effect_counterexample if args.which == "effect"
             else boolfn.influence_counterexample)
    try:
        f, d, cert = build(args.k)
    except CertificateError as exc:
        _emit(canonical_dumps(_certificate_payload(exc.certificate, exc.violation)), None)
        return 1
    if args.out_fn:
        save_fn(args.out_fn, f)
    if args.out_dist:
        save_dist(args.out_dist, d)
    _emit(canonical_dumps(_certificate_payload(cert)), None)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, "sweep", ("n", "p", "alpha_grid"))
    rows = [{"alpha": r.alpha, "count": r.count, "bound": r.bound}
            for r in theorems.majp_tightness(args.n, args.p, args.alpha_grid, args.p_prime)]
    _emit(_csv_text(rows) if args.format == "csv" else canonical_dumps(jsonable(rows)), None)
    return 0


# ----------------------------------------------------------------------


# Each command's options as (flag, add_argument keywords): build_parser adds
# them to the full tree, and _scan reads them to parse a well-formed line.
# Every option takes one value; _scan knows type, choices, required, default
# and help, and an option that needs another keyword must be taught to it.
GEN_OPTIONS = (
    ("kind", {"choices": list(GENERATORS)}),
    ("--k", {"type": int}),
    ("--n", {"type": int}),
    ("--p", {"type": _rational_arg}),
    ("--out", {}),
)

ANALYZE_OPTIONS = (
    ("--dist", {"required": True}),
    ("--fn", {"required": True, "help": f"function file or builtin spec ({BUILTIN_SPECS})"}),
    ("--what", {"required": True, "choices": ["effects", "influences", "pivotal", "counts"]}),
    ("--p", {"type": _rational_arg}),
    ("--alpha", {"type": _rational_arg}),
    ("--format", {"choices": ["json", "csv"], "default": "json"}),
)

VERIFY_OPTIONS = (
    ("--which", {"required": True, "choices": list(VERIFIERS)}),
    ("--dist", {"required": True}),
    ("--dist2", {}),
    ("--fn", {"required": True}),
    ("--p", {"type": _rational_arg}),
    ("--alpha", {"type": _rational_arg}),
    ("--q", {"type": _rational_arg}),
    ("--m", {"type": int}),
    ("--player", {"type": int}),
    ("--players", {"type": _players_arg}),
)

COUNTEREXAMPLE_OPTIONS = (
    ("--which", {"required": True, "choices": ["effect", "influence"]}),
    ("--k", {"type": int, "required": True}),
    ("--out-fn", {}),
    ("--out-dist", {}),
)

SWEEP_OPTIONS = (
    ("--n", {"type": int}),
    ("--p", {"type": _rational_arg}),
    ("--p-prime", {"type": _rational_arg, "help": "pivotality threshold p' (default: p)"}),
    ("--alpha-grid", {"type": _grid_arg}),
    ("--format", {"choices": ["csv", "json"], "default": "csv"}),
)


# name -> (its line in the top-level help, its options, how it runs)
COMMANDS = {
    "gen": ("generate a named distribution as JSON", GEN_OPTIONS, _cmd_gen),
    "analyze": ("per-player reports for a function and distribution", ANALYZE_OPTIONS,
                _cmd_analyze),
    "verify": ("check one statement on one instance", VERIFY_OPTIONS, _cmd_verify),
    "counterexample": ("build a certified zero-effect or zero-influence pair",
                       COUNTEREXAMPLE_OPTIONS, _cmd_counterexample),
    "sweep": ("tightness table over an alpha grid", SWEEP_OPTIONS, _cmd_sweep),
}


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser: every subcommand with its help line and options.

    ``parse_argv`` uses it for every command line that ``_scan`` does not
    accept, so help, usage errors and their exit codes come from this tree.
    """
    parser = argparse.ArgumentParser(
        prog="pivotal",
        description="Exact analysis of player effects, influence, and pivotality.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, run) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            command.add_argument(flag, **kwargs)
        command.set_defaults(func=run, command=name)
    return parser


def _dest(flag: str) -> str:
    """The Namespace attribute argparse gives an option of the tables."""
    return flag.lstrip("-").replace("-", "_")


def _scan(name: str, words: list[str]) -> argparse.Namespace | None:
    """The full tree's Namespace for command name and its words, or None.

    One pass over the words accepts only: an exact flag and the next word as
    its value, if that word does not start with "-"; an exact flag joined to
    its value by "="; and a command's positional (gen's kind) once, anywhere.
    A value is not empty or "--", converts by the option's type and is one
    of its choices; a flag given again keeps its last value, and one left
    out takes its default. Anything else (an abbreviated or unknown flag,
    -h, --, a missing or failing value, a second positional, a required
    option left out) gives None, and the full tree parses the line.
    """
    _, options, run = COMMANDS[name]
    table = dict(options)
    positional = next((flag for flag in table if not flag.startswith("-")), None)
    given: dict[str, object] = {}
    words = iter(words)
    for word in words:
        if word.startswith("-"):
            flag, sep, text = word.partition("=")
            if flag not in table:
                return None
            if not sep:
                text = next(words, "-")  # a missing value is refused with "-" ones
                if text.startswith("-"):
                    return None
        elif positional is None or positional in given:
            return None
        else:
            flag, text = positional, word
        kwargs = table[flag]
        if text in ("", "--"):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    if any(flag not in given for flag, kwargs in options
           if kwargs.get("required") or flag == positional):
        return None
    args = argparse.Namespace(func=run, command=name)
    for flag, kwargs in options:
        setattr(args, _dest(flag), given.get(flag, kwargs.get("default")))
    return args


def parse_argv(argv: list[str]) -> argparse.Namespace:
    """The Namespace ``build_parser().parse_args(argv)`` gives, or its SystemExit.

    When argv[0] names a subcommand, the full tree hands every later word to
    that subcommand's parser, so a line that ``_scan`` accepts gets the same
    Namespace from the scan, and no parser is built. Every other line, among
    them help and every usage error, is parsed by the full tree.
    """
    args = _scan(argv[0], argv[1:]) if argv and argv[0] in COMMANDS else None
    return build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_argv(argv)
    # "--" is never a value: argparse reads "--dist --" as a missing one, and
    # stores "--dist=--" as "--" or, on some versions, as the empty list.
    for flag, _ in COMMANDS[args.command][1]:
        if getattr(args, _dest(flag)) in ([], "--"):
            print(f"pivotal: error: argument {flag}: expected one argument", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (PivotalError, OSError) as exc:
        print(f"pivotal: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
