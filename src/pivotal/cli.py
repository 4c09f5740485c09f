"""Command-line interface: generation, analysis, verification, counterexamples.

All rationals on the command line are exact "num/den" strings. Reports go
to stdout (JSON or CSV with paired exact/decimal columns), diagnostics to
stderr. Exit codes: 0 success or verified, 1 verification failed, 2 usage
or input error. Identical invocations produce byte-identical output.

Each call builds one parser. When the first word of the command line names
a subcommand, that parser is the subcommand's alone (``parse_argv``);
any other command line, and one that leaves words the subcommand does not
take, is parsed by the full tree (``build_parser``), which gives the
top-level help and usage errors.
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
            for r in theorems.majp_tightness(args.n, args.p, args.alpha_grid)]
    _emit(_csv_text(rows) if args.format == "csv" else canonical_dumps(jsonable(rows)), None)
    return 0


# ----------------------------------------------------------------------


def _gen_options(add) -> None:
    add("kind", choices=list(GENERATORS))
    add("--k", type=int)
    add("--n", type=int)
    add("--p", type=_rational_arg)
    add("--out")


def _analyze_options(add) -> None:
    add("--dist", required=True)
    add("--fn", required=True, help=f"function file or builtin spec ({BUILTIN_SPECS})")
    add("--what", required=True, choices=["effects", "influences", "pivotal", "counts"])
    add("--p", type=_rational_arg)
    add("--alpha", type=_rational_arg)
    add("--format", choices=["json", "csv"], default="json")


def _verify_options(add) -> None:
    add("--which", required=True, choices=list(VERIFIERS))
    add("--dist", required=True)
    add("--dist2")
    add("--fn", required=True)
    add("--p", type=_rational_arg)
    add("--alpha", type=_rational_arg)
    add("--q", type=_rational_arg)
    add("--m", type=int)
    add("--player", type=int)
    add("--players", type=_players_arg)


def _counterexample_options(add) -> None:
    add("--which", required=True, choices=["effect", "influence"])
    add("--k", type=int, required=True)
    add("--out-fn")
    add("--out-dist")


def _sweep_options(add) -> None:
    add("--majp-tightness", action="store_true",
        help="accepted and ignored: majp tightness is the only sweep")
    add("--n", type=int)
    add("--p", type=_rational_arg)
    add("--alpha-grid", type=_grid_arg)
    add("--format", choices=["csv", "json"], default="csv")


# name -> (its line in the top-level help, how its options are added, how it runs)
COMMANDS = {
    "gen": ("generate a named distribution as JSON", _gen_options, _cmd_gen),
    "analyze": ("per-player reports for a function and distribution", _analyze_options,
                _cmd_analyze),
    "verify": ("check one statement on one instance", _verify_options, _cmd_verify),
    "counterexample": ("build a certified zero-effect or zero-influence pair",
                       _counterexample_options, _cmd_counterexample),
    "sweep": ("tightness table over an alpha grid", _sweep_options, _cmd_sweep),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> None:
    """Give parser the options of command name and the defaults main reads."""
    _, add_options, run = COMMANDS[name]
    add_options(parser.add_argument)
    parser.set_defaults(func=run, command=name)


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser: every subcommand with its help line and options.

    ``parse_argv`` uses it for every command line that does not start with
    a subcommand's name, and for one whose subcommand leaves words over, so
    top-level help and usage errors come from this tree.
    """
    parser = argparse.ArgumentParser(
        prog="pivotal",
        description="Exact analysis of player effects, influence, and pivotality.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def parse_argv(argv: list[str]) -> argparse.Namespace:
    """The Namespace ``build_parser().parse_args(argv)`` gives, or its SystemExit.

    When argv[0] names a subcommand, the full tree would hand every later
    word to that subcommand's parser, so one parser with the same prog,
    options and defaults parses argv[1:] alone. Words it leaves over are a
    top-level "unrecognized arguments" error, which the full tree reports.
    """
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"pivotal {argv[0]}")
        _add_command(parser, argv[0])
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_argv(argv)
    try:
        return args.func(args)
    except (PivotalError, OSError) as exc:
        print(f"pivotal: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
