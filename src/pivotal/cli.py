"""Command-line interface: generation, analysis, verification, counterexamples.

All rationals on the command line are exact "num/den" strings. Reports go
to stdout (JSON or CSV with paired exact/decimal columns), diagnostics to
stderr. Exit codes: 0 success or verified, 1 verification failed, 2 usage
or input error. Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis, boolfn, generators, theorems
from .boolfn import CertificateError, PlayerFunction
from .dist import Distribution, PivotalError
from .serialize import (
    _BUILTIN_NAMES,
    canonical_dumps,
    dist_to_obj,
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
    name, _, param = spec.partition(":")
    if name in _BUILTIN_NAMES:
        f = _BUILTIN_NAMES[name](d.n)
    elif name == "dictator":
        try:
            player = int(param)
        except ValueError:
            raise PivotalError(
                f"dictator needs an integer player index, got {param!r}") from None
        f = boolfn.DictatorFn(d.n, player)
    elif name == "constant":
        f = boolfn.ConstantFn(d.n, parse_rational(param), d.alphabet)
    elif Path(spec).exists():
        f = load_fn(spec)
    else:
        raise PivotalError(
            f"{spec!r} is neither a file nor a builtin "
            "(majp | parity | majority | dictator:I | constant:R)")
    if f.alphabet != d.alphabet:
        raise PivotalError(
            f"function alphabet {f.alphabet.symbols} does not match "
            f"distribution alphabet {d.alphabet.symbols}")
    if f.n != d.n:
        raise PivotalError(f"function arity {f.n} does not match distribution arity {d.n}")
    return f


def _csv_text(header: list[str], rows: list[list[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _pair(x: Fraction) -> list[object]:
    """Exact string plus decimal rendering, the two-column CSV convention."""
    return [rational_str(x), float(x)]


# ----------------------------------------------------------------------
# Subcommands


def _cmd_gen(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "hadamard-mu":
        d = generators.hadamard_mu(_require(args, "k"))
    elif kind == "complement-mu":
        d = generators.complement_mu(generators.hadamard_mu(_require(args, "k")))
    elif kind == "mixture-d":
        d = generators.mixture_D(_require(args, "k"))
    elif kind == "uniform-product":
        d = generators.uniform_product(_require(args, "n"))
    else:  # majp
        if args.p is None:
            raise PivotalError("gen majp needs --p")
        d = generators.majp_dist(_require(args, "n"), args.p)
    _emit(canonical_dumps(dist_to_obj(d)), args.out)
    return 0


def _require(args: argparse.Namespace, name: str) -> int:
    value = getattr(args, name)
    if value is None:
        raise PivotalError(f"gen {args.kind} needs --{name}")
    return value


def _cmd_analyze(args: argparse.Namespace) -> int:
    d = load_dist(args.dist)
    f = _load_function(args.fn, d)
    what = args.what
    if what == "effects":
        report = analysis.effect_report(f, d)
        rows = [{"player": r.player, "signed": r.signed, "signed_float": float(r.signed),
                 "effect": r.effect, "effect_float": float(r.effect)}
                for r in report.rows]
        payload = {"what": "effects", "players": rows}
        csv_rows = [[r.player] + _pair(r.signed) + _pair(r.effect) for r in report.rows]
        header = ["player", "signed", "signed_dec", "effect", "effect_dec"]
    elif what == "influences":
        values = [analysis.influence(f, d, i) for i in range(d.n)]
        payload = {"what": "influences",
                   "players": [{"player": i, "influence": v, "influence_float": float(v)}
                               for i, v in enumerate(values)]}
        csv_rows = [[i] + _pair(v) for i, v in enumerate(values)]
        header = ["player", "influence", "influence_dec"]
    elif what == "pivotal":
        if args.p is None or args.alpha is None:
            raise PivotalError("analyze --what pivotal needs --p and --alpha")
        report = analysis.pivotal_report(f, d, args.p, args.alpha)
        rows = []
        for r in report.rows:
            rows.append({
                "player": r.player,
                "deviating_mass": r.deviating_mass,
                "deviating_mass_float": float(r.deviating_mass),
                "pivotal": r.pivotal,
                "deviations": [{"symbol": d.alphabet.symbols[sd.symbol],
                                "mass": sd.mass,
                                "deviation": sd.deviation,
                                "deviation_float": float(sd.deviation)}
                               for sd in r.deviations],
            })
        payload = {"what": "pivotal", "expectation": report.expectation,
                   "p": report.p, "alpha": report.alpha, "players": rows}
        csv_rows = [[r.player] + _pair(r.deviating_mass) + [r.pivotal] for r in report.rows]
        header = ["player", "deviating_mass", "deviating_mass_dec", "pivotal"]
    else:  # counts
        if args.alpha is None:
            raise PivotalError("analyze --what counts needs --alpha")
        if args.p is None:
            count = analysis.count_effect(f, d, args.alpha)
            payload = {"what": "counts", "alpha": args.alpha, "count_effect": count}
            csv_rows = [[rational_str(args.alpha), float(args.alpha), count]]
            header = ["alpha", "alpha_dec", "count_effect"]
        else:
            count = analysis.count_pivotal(f, d, args.p, args.alpha)
            payload = {"what": "counts", "p": args.p, "alpha": args.alpha,
                       "count_pivotal": count}
            csv_rows = [[rational_str(args.p), float(args.p),
                         rational_str(args.alpha), float(args.alpha), count]]
            header = ["p", "p_dec", "alpha", "alpha_dec", "count_pivotal"]
    if args.format == "csv":
        _emit(_csv_text(header, csv_rows), None)
    else:
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
    which = args.which
    if which == "convex":
        if args.dist2 is None:
            raise PivotalError("verify --which convex needs --dist2")
        d1 = load_dist(args.dist)
        d2 = load_dist(args.dist2)
        f = _load_function(args.fn, d1)
        verdict = theorems.convex_decomposition_check(
            f, d1, d2, _need(args, "q"), _need(args, "player"))
    else:
        d = load_dist(args.dist)
        f = _load_function(args.fn, d)
        if which == "thm1":
            verdict = theorems.verify_thm1(f, d, _need(args, "p"), _need(args, "alpha"))
        elif which == "warmup":
            verdict = theorems.verify_warmup(f, d, _need(args, "alpha"))
        elif which == "sum-bound":
            verdict = theorems.verify_sum_bound(f, d, _need(args, "players"))
        elif which == "binary-bound":
            verdict = theorems.verify_binary_bound(f, d, _need(args, "alpha"))
        elif which == "reduction":
            verdict = theorems.verify_reduction(f, d, _need(args, "p"), _need(args, "alpha"))
        elif which == "thm2":
            verdict = theorems.verify_elimination(
                f, d, _need(args, "m"), _need(args, "p"), _need(args, "alpha"))
        else:  # effect-identity
            verdict = theorems.verify_effect_identity(f, d)
    _emit(canonical_dumps(_verdict_payload(verdict)), None)
    return 0 if verdict.ok else 1


def _need(args: argparse.Namespace, name: str):
    value = getattr(args, name)
    if value is None:
        raise PivotalError(f"verify --which {args.which} needs --{name.replace('_', '-')}")
    return value


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
    if not args.majp_tightness:
        raise PivotalError("sweep currently supports --majp-tightness only")
    if args.p is None or args.n is None or not args.alpha_grid:
        raise PivotalError("sweep needs --n, --p and --alpha-grid")
    rows = theorems.majp_tightness(args.n, args.p, args.alpha_grid,
                                   samples=args.samples, seed=args.seed)
    if args.format == "json":
        payload = [{"alpha": r.alpha, "count_or_estimate": r.count,
                    "bound": r.bound, "mode": r.mode,
                    "ci_halfwidth": r.halfwidth} for r in rows]
        _emit(canonical_dumps(jsonable(payload)), None)
        return 0
    header = ["alpha", "alpha_dec", "count_or_estimate", "count_dec",
              "bound", "bound_dec", "mode", "ci_halfwidth"]
    csv_rows = []
    for r in rows:
        csv_rows.append(_pair(r.alpha) + _pair(r.count) + _pair(r.bound)
                        + [r.mode, "" if r.halfwidth is None else repr(r.halfwidth)])
    _emit(_csv_text(header, csv_rows), None)
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pivotal",
        description="Exact analysis of player effects, influence, and pivotality.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a named distribution as JSON")
    gen.add_argument("kind", choices=["hadamard-mu", "complement-mu", "mixture-d",
                                      "uniform-product", "majp"])
    gen.add_argument("--k", type=int)
    gen.add_argument("--n", type=int)
    gen.add_argument("--p", type=_rational_arg)
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_gen)

    an = sub.add_parser("analyze", help="per-player reports for a function and distribution")
    an.add_argument("--dist", required=True)
    an.add_argument("--fn", required=True,
                    help="function file or builtin spec (majp | parity | majority | dictator:I | constant:R)")
    an.add_argument("--what", required=True,
                    choices=["effects", "influences", "pivotal", "counts"])
    an.add_argument("--p", type=_rational_arg)
    an.add_argument("--alpha", type=_rational_arg)
    an.add_argument("--format", choices=["json", "csv"], default="json")
    an.set_defaults(func=_cmd_analyze)

    ver = sub.add_parser("verify", help="check one statement on one instance")
    ver.add_argument("--which", required=True,
                     choices=["thm1", "thm2", "warmup", "sum-bound", "binary-bound",
                              "reduction", "convex", "effect-identity"])
    ver.add_argument("--dist", required=True)
    ver.add_argument("--dist2")
    ver.add_argument("--fn", required=True)
    ver.add_argument("--p", type=_rational_arg)
    ver.add_argument("--alpha", type=_rational_arg)
    ver.add_argument("--q", type=_rational_arg)
    ver.add_argument("--m", type=int)
    ver.add_argument("--player", type=int)
    ver.add_argument("--players", type=_players_arg)
    ver.set_defaults(func=_cmd_verify)

    cx = sub.add_parser("counterexample",
                        help="build a certified zero-effect or zero-influence pair")
    cx.add_argument("--which", required=True, choices=["effect", "influence"])
    cx.add_argument("--k", type=int, required=True)
    cx.add_argument("--out-fn")
    cx.add_argument("--out-dist")
    cx.set_defaults(func=_cmd_counterexample)

    sw = sub.add_parser("sweep", help="tightness table over an alpha grid")
    sw.add_argument("--majp-tightness", action="store_true")
    sw.add_argument("--n", type=int)
    sw.add_argument("--p", type=_rational_arg)
    sw.add_argument("--alpha-grid", type=_grid_arg)
    sw.add_argument("--samples", type=int)
    sw.add_argument("--seed", type=int)
    sw.add_argument("--format", choices=["csv", "json"], default="csv")
    sw.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PivotalError as exc:
        print(f"pivotal: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"pivotal: error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"pivotal: error: invalid JSON input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
