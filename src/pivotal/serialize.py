"""Canonical JSON formats for distributions, functions, and rationals.

Rationals travel as exact "num/den" strings; decimals are rejected so a
file can never silently lose exactness. Serialization is canonical
(sorted supports, fixed key order), so parse followed by serialize is
byte-identical.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .boolfn import (
    ConstantFn,
    DenseTable,
    DictatorFn,
    MajorityFn,
    MajPFn,
    ParityFn,
    PlayerFunction,
    UpwardClosure,
)
from .dist import (
    Alphabet,
    Distribution,
    DistributionError,
    ExplicitDist,
    PivotalError,
    ProductDist,
)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse an exact "num/den" (or integer) string; decimals are rejected."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        hint = " (decimal notation is rejected)" if "." in str(text) else ""
        raise PivotalError(f"expected an exact rational like \"3/4\", got {text!r}{hint}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:  # a zero denominator, or too many digits
        raise PivotalError(f"invalid rational {text.strip()!r}: {exc}") from None


def _json_int(value: object, what: str) -> int:
    """A JSON integer as it is; floats, booleans and strings raise TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _json_points(rows: Iterable, what: str) -> Callable[[object], tuple]:
    """How to read each row of JSON integers into a tuple.

    One pass over the distinct entry types clears rows of plain ints, which
    are taken as they are. Otherwise, or when a row cannot be read, each
    entry goes through ``_json_int``, which raises the first error.
    """
    try:
        if set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
            return tuple
    except (KeyError, TypeError):
        pass
    return lambda row: tuple(_json_int(s, what) for s in row)


def _json_alphabet(value: object) -> Alphabet:
    """A JSON list of strings; a string such as "01" is not split into symbols."""
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise TypeError(f"alphabet must be a list of strings, got {value!r}")
    return Alphabet(tuple(value))


def rational_str(x: Fraction) -> str:
    return str(Fraction(x))


def canonical_dumps(obj: object) -> str:
    return json.dumps(obj, ensure_ascii=False, indent=2)


def jsonable(value: object) -> object:
    """Recursively convert report values to JSON-safe types."""
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


# ----------------------------------------------------------------------
# Distributions


def dist_to_obj(d: Distribution) -> dict:
    if isinstance(d, ExplicitDist):
        return {
            "kind": "explicit",
            "alphabet": list(d.alphabet.symbols),
            "n": d.n,
            "support": [{"x": list(x), "w": rational_str(w)} for x, w in d.support],
        }
    if isinstance(d, ProductDist):
        return {
            "kind": "product",
            "alphabet": list(d.alphabet.symbols),
            "n": d.n,
            "marginals": [[rational_str(p) for p in row] for row in d.marginals],
        }
    raise PivotalError(f"cannot serialize {type(d).__name__}")


def _parse_once(parsed: dict, text, parse: Callable):
    """parse(text), or the value an equal text already parsed to."""
    try:
        return parsed[text]
    except (KeyError, TypeError):  # a new text, or an unhashable one that cannot parse
        return parsed.setdefault(text, parse(text))


def dist_from_obj(obj: dict) -> Distribution:
    if not isinstance(obj, dict):
        raise DistributionError(
            f"distribution must be a JSON object, got {type(obj).__name__}")
    try:
        kind = obj["kind"]
        alphabet = _json_alphabet(obj["alphabet"])
        n = _json_int(obj["n"], "n")
        if kind == "explicit":
            weights: dict[str, Fraction] = {}  # each distinct weight text is parsed once
            entries = obj["support"]
            point = _json_points(map(itemgetter("x"), entries), "symbol")
            support = [(point(entry["x"]), _parse_once(weights, entry["w"], parse_rational))
                       for entry in entries]
            return ExplicitDist(alphabet, n, support)
        if kind == "product":
            rows: dict[tuple, list[Fraction]] = {}  # equal rows are parsed once, into one list
            marginals = [_parse_once(rows, row, lambda r: [parse_rational(p) for p in r])
                         for row in map(tuple, obj["marginals"])]
            return ProductDist(alphabet, n, marginals)
    except KeyError as exc:
        raise DistributionError(f"distribution object missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DistributionError(f"malformed distribution object: {exc}") from None
    raise DistributionError(f"unknown distribution kind {obj.get('kind')!r}")


# ----------------------------------------------------------------------
# Player functions


def _spec_index(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise PivotalError(f"dictator needs an integer player index, got {text!r}") from None


class Builtin(NamedTuple):
    """A builtin function class and how its one parameter, if any, is read.

    The parameter is the field ``key`` of a file's "params", the attribute
    ``attr`` of an instance and ``placeholder`` in a spec such as
    dictator:I. ``from_text`` turns the text after ":" into the file's
    value, and ``from_json`` a file's value into the constructor argument.
    """

    cls: type[PlayerFunction]
    key: str = ""
    attr: str = ""
    placeholder: str = ""
    from_text: Callable[[str], object] = str
    from_json: Callable[[object], object] | None = None
    takes_alphabet: bool = False


BUILTINS = {
    "majp": Builtin(MajPFn),
    "parity": Builtin(ParityFn),
    "majority": Builtin(MajorityFn),
    "dictator": Builtin(DictatorFn, "i", "player", "I", _spec_index,
                        lambda value: _json_int(value, "i")),
    "constant": Builtin(ConstantFn, "c", "value", "R", from_json=parse_rational,
                        takes_alphabet=True),
}
BUILTIN_SPECS = " | ".join(name + (f":{b.placeholder}" if b.key else "")
                           for name, b in BUILTINS.items())


def fn_to_obj(f: PlayerFunction) -> dict:
    if isinstance(f, DenseTable):
        if any(len(s) != 1 for s in f.alphabet.symbols):
            raise PivotalError("table serialization needs single-character symbols")
        values = {"".join(f.alphabet.symbols[s] for s in x): rational_str(v)
                  for x, v in f.entries}
        return {"kind": "table", "alphabet": list(f.alphabet.symbols),
                "n": f.n, "values": values}
    if isinstance(f, UpwardClosure):
        return {"kind": "upward", "n": f.n,
                "generators": [list(g) for g in f.generator_outcomes()]}
    for name, b in BUILTINS.items():
        if isinstance(f, b.cls):
            params = {"n": f.n}
            if b.key:
                params[b.key] = jsonable(getattr(f, b.attr))
            if f.alphabet != b.cls.alphabet:
                params["alphabet"] = list(f.alphabet.symbols)
            return {"kind": "builtin", "name": name, "params": params}
    raise PivotalError(f"cannot serialize {type(f).__name__}")


def fn_from_spec(spec: str, n: int, alphabet: Alphabet) -> PlayerFunction | None:
    """The builtin that a spec such as majp or dictator:0 names, or None.

    n is the arity; a constant also takes the alphabet given."""
    name, colon, text = spec.partition(":")
    b = BUILTINS.get(name)
    if b is None:
        return None
    params = {"n": n}
    if b.key:
        params[b.key] = b.from_text(text)
    elif colon:
        raise PivotalError(f"builtin {name} takes no parameter, got {spec!r}")
    if b.takes_alphabet:
        params["alphabet"] = list(alphabet.symbols)
    return fn_from_obj({"kind": "builtin", "name": name, "params": params})


def fn_from_obj(obj: dict) -> PlayerFunction:
    if not isinstance(obj, dict):
        raise PivotalError(f"function must be a JSON object, got {type(obj).__name__}")
    try:
        kind = obj.get("kind")
        if kind == "table":
            alphabet = _json_alphabet(obj["alphabet"])
            if any(len(s) != 1 for s in alphabet.symbols):
                raise PivotalError("table parsing needs single-character symbols")
            index = {s: i for i, s in enumerate(alphabet.symbols)}
            values, parsed = {}, {}  # each distinct value text is parsed once
            for key, v in obj["values"].items():
                try:
                    outcome = tuple(map(index.__getitem__, key))
                except KeyError as exc:
                    raise PivotalError(f"unknown symbol {exc} in table key {key!r}") from None
                values[outcome] = _parse_once(parsed, v, parse_rational)
            return DenseTable(alphabet, _json_int(obj["n"], "n"), values)
        if kind == "upward":
            n, gens = _json_int(obj["n"], "n"), obj["generators"]
            return UpwardClosure(n, list(map(_json_points(gens, "generator bit"), gens)))
        if kind == "builtin":
            b = BUILTINS.get(obj.get("name"))
            if b is None:
                raise PivotalError(f"unknown builtin {obj.get('name')!r}")
            params = obj.get("params", {})
            args = [_json_int(params["n"], "n")]
            if b.key:
                args.append(b.from_json(params[b.key]))
            if b.takes_alphabet and "alphabet" in params:
                args.append(_json_alphabet(params["alphabet"]))
            return b.cls(*args)
        raise PivotalError(f"unknown function kind {kind!r}")
    except KeyError as exc:
        raise PivotalError(f"function object missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise PivotalError(f"malformed function object: {exc}") from None


# ----------------------------------------------------------------------
# File helpers


def _read_json(path: str | Path) -> object:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise PivotalError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except (ValueError, RecursionError) as exc:  # bad syntax, deep nesting, huge integers
        raise PivotalError(f"invalid JSON input: {exc}") from None


def save_dist(path: str | Path, d: Distribution) -> None:
    Path(path).write_text(canonical_dumps(dist_to_obj(d)) + "\n", encoding="utf-8")


def load_dist(path: str | Path) -> Distribution:
    return dist_from_obj(_read_json(path))


def save_fn(path: str | Path, f: PlayerFunction) -> None:
    Path(path).write_text(canonical_dumps(fn_to_obj(f)) + "\n", encoding="utf-8")


def load_fn(path: str | Path) -> PlayerFunction:
    return fn_from_obj(_read_json(path))
