"""File formats, canonical round-trips, and the command-line surface."""

import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import os
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pivotal import (
    BINARY,
    PARTICIPATION,
    Alphabet,
    ConstantFn,
    DenseTable,
    DictatorFn,
    MajorityFn,
    MajPFn,
    ParityFn,
    PivotalError,
    PartialTable,
    ProductDist,
    UpwardClosure,
    count_pivotal,
    hadamard_mu,
    majp_dist,
    mixture_D,
    uniform_product,
)
from pivotal import serialize
from pivotal.cli import COMMANDS, GENERATORS, VERIFIERS, build_parser, main, parse_argv
from pivotal.generators import _HADAMARD_K_LIMIT, _PRODUCT_N_LIMIT
from pivotal.serialize import (
    BUILTIN_SPECS,
    canonical_dumps,
    dist_from_obj,
    dist_to_obj,
    fn_from_obj,
    fn_to_obj,
    parse_rational,
    rational_str,
    save_dist,
    save_fn,
)

F = Fraction


class TestRationals:
    def test_parse_fraction_and_integer(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("-2") == F(-2)
        assert parse_rational("0") == 0

    def test_decimals_rejected(self):
        for bad in ("0.5", "1e-3", "1/2.0", "", "a/b"):
            with pytest.raises(PivotalError, match="rejected|rational"):
                parse_rational(bad)

    def test_render(self):
        assert rational_str(F(6, 8)) == "3/4"
        assert rational_str(F(2)) == "2"


class TestDistRoundTrip:
    @pytest.mark.parametrize("d", [
        hadamard_mu(2),
        mixture_D(3),
        uniform_product(4),
        majp_dist(3, F(2, 5)),
        ProductDist(BINARY, 3, [(F(1, 3), F(2, 3)), (F(1, 2), F(1, 2)), (F(1, 3), F(2, 3))]),
    ], ids=["hadamard", "mixture", "uniform", "majp", "repeated-row"])
    def test_byte_identical_round_trip(self, d):
        text = canonical_dumps(dist_to_obj(d))
        parsed = dist_from_obj(json.loads(text))
        assert parsed == d
        assert canonical_dumps(dist_to_obj(parsed)) == text

    def test_equal_rows_are_parsed_once(self, monkeypatch):
        calls = []
        parse = serialize.parse_rational
        monkeypatch.setattr(serialize, "parse_rational", lambda t: calls.append(t) or parse(t))
        d = dist_from_obj(json.loads(canonical_dumps(dist_to_obj(majp_dist(50, F(1, 2))))))
        assert calls == ["1/4", "1/4", "1/2"]
        assert len(d._entries) == 1 and d == majp_dist(50, F(1, 2))

    def test_equal_weights_are_parsed_once(self, monkeypatch):
        calls = []
        parse = serialize.parse_rational
        monkeypatch.setattr(serialize, "parse_rational", lambda t: calls.append(t) or parse(t))
        want = majp_dist(5, F(2, 5)).to_explicit()
        d = dist_from_obj(json.loads(canonical_dumps(dist_to_obj(want))))
        # 243 support points, one call per distinct weight text.
        texts = {rational_str(w) for _, w in want.items()}
        assert sorted(calls) == sorted(texts) and len(texts) == 6
        assert d == want

    def test_unhashable_weight_is_refused(self):
        obj = {"kind": "explicit", "alphabet": ["0", "1"], "n": 1,
               "support": [{"x": [0], "w": "1/2"}, {"x": [1], "w": ["1/2"]}]}
        with pytest.raises(PivotalError, match=r"exact rational.*\['1/2'\]"):
            dist_from_obj(obj)

    def test_integer_symbols_skip_the_per_symbol_check(self, monkeypatch):
        calls = []
        check = serialize._json_int
        monkeypatch.setattr(serialize, "_json_int", lambda v, what: calls.append(what) or check(v, what))
        want = majp_dist(4, F(2, 5)).to_explicit()
        assert dist_from_obj(json.loads(canonical_dumps(dist_to_obj(want)))) == want
        f = UpwardClosure(3, [(1, 1, 0), (0, 1, 1)])
        assert fn_from_obj(json.loads(canonical_dumps(fn_to_obj(f)))) == f
        assert calls == ["n", "n"]

    @pytest.mark.parametrize("support, text", [
        ([{"x": [0], "w": "1/2"}, {"x": [True], "w": "1/2"}],
         "malformed distribution object: symbol must be an integer, got True"),
        ([{"x": [1.0], "w": "1/2"}, {"x": [0], "w": "0.5"}],
         "malformed distribution object: symbol must be an integer, got 1.0"),
        ([{"x": [0], "w": "0.5"}, {"x": [1.0], "w": "1/2"}], "got '0.5'"),
        ([{"x": [0], "w": "0.5"}, {"w": "1/2"}], "got '0.5'"),
        ([{"x": [0], "w": "1/2"}, {"w": "1/2"}], "distribution object missing field 'x'"),
    ], ids=["bool-symbol", "float-symbol-first", "weight-first", "weight-before-missing-x",
            "missing-x"])
    def test_first_bad_entry_is_named(self, support, text):
        obj = {"kind": "explicit", "alphabet": ["0", "1"], "n": 1, "support": support}
        with pytest.raises(PivotalError, match=re.escape(text)):
            dist_from_obj(obj)

    def test_unsorted_input_is_canonicalized(self):
        obj = {
            "kind": "explicit", "alphabet": ["0", "1"], "n": 1,
            "support": [{"x": [1], "w": "1/2"}, {"x": [0], "w": "1/2"}],
        }
        d = dist_from_obj(obj)
        assert [x for x, _ in d.items()] == [(0,), (1,)]

    def test_decimal_weight_rejected(self):
        obj = {"kind": "explicit", "alphabet": ["0", "1"], "n": 1,
               "support": [{"x": [0], "w": "0.5"}, {"x": [1], "w": "1/2"}]}
        with pytest.raises(PivotalError):
            dist_from_obj(obj)

    def test_participation_alphabet_survives(self):
        d = majp_dist(2, F(1, 2))
        obj = dist_to_obj(d)
        assert obj["alphabet"] == ["0", "1", "⊥"]
        assert dist_from_obj(json.loads(canonical_dumps(obj))) == d


class TestFnRoundTrip:
    @pytest.mark.parametrize("f", [
        DenseTable(BINARY, 2, {(0, 0): F(0), (0, 1): F(1, 2),
                               (1, 0): F(-1, 2), (1, 1): F(1)}),
        UpwardClosure(4, [(0, 1, 1, 0), (1, 0, 0, 1)]),
        MajPFn(5),
        ParityFn(3),
        MajorityFn(3),
        DictatorFn(4, 2),
        ConstantFn(3, F(1, 3)),
        ConstantFn(2, F(1), PARTICIPATION),
        # A bool is an int, stored as a plain int, so the file holds 1, not true.
        DictatorFn(4, True),
        MajorityFn(True),
    ], ids=["table", "upward", "majp", "parity", "majority",
            "dictator", "constant", "constant-ternary", "dictator-bool", "majority-bool"])
    def test_round_trip(self, f):
        text = canonical_dumps(fn_to_obj(f))
        parsed = fn_from_obj(json.loads(text))
        assert parsed == f
        assert canonical_dumps(fn_to_obj(parsed)) == text

    def test_table_keys_are_symbol_strings(self):
        f = DenseTable(BINARY, 2, {(0, 0): F(0), (0, 1): F(1),
                                   (1, 0): F(1), (1, 1): F(0)})
        obj = fn_to_obj(f)
        assert set(obj["values"]) == {"00", "01", "10", "11"}

    @pytest.mark.parametrize("key, symbol", [("0x1", "'x'"), ("2", "'2'"), ("01⊥", "'⊥'")])
    def test_unknown_key_symbol_is_named(self, key, symbol):
        values = {"000": "0", key: "1", "111": "1"}
        obj = {"kind": "table", "alphabet": ["0", "1"], "n": 3, "values": values}
        with pytest.raises(PivotalError, match=rf"^unknown symbol {symbol} in table key '{key}'$"):
            fn_from_obj(obj)

    def test_unknown_kind_rejected(self):
        with pytest.raises(PivotalError):
            fn_from_obj({"kind": "mystery"})

    def test_equal_table_values_are_parsed_once(self, monkeypatch):
        calls = []
        parse = serialize.parse_rational
        monkeypatch.setattr(serialize, "parse_rational", lambda t: calls.append(t) or parse(t))
        grid = itertools.product((0, 1), repeat=4)
        want = DenseTable(BINARY, 4, {x: F(sum(x) % 2) for x in grid})
        f = fn_from_obj(json.loads(canonical_dumps(fn_to_obj(want))))
        # 16 entries, one call and one value object per distinct value text.
        assert sorted(calls) == ["0", "1"]
        assert len({id(v) for _, v in f.entries}) == 2
        assert f == want

    @pytest.mark.parametrize("call, message", [
        (lambda: fn_to_obj(DenseTable(Alphabet(("00", "1")), 1, {(0,): F(0), (1,): F(1)})),
         "table serialization needs single-character symbols"),
        (lambda: fn_to_obj(PartialTable(BINARY, 1, {(0,): F(0)})),
         "cannot serialize PartialTable"),
        (lambda: dist_to_obj(object()), "cannot serialize object"),
    ], ids=["table-long-symbols", "function-type", "distribution-type"])
    def test_unsavable_value_names_its_fault(self, call, message):
        with pytest.raises(PivotalError) as info:
            call()
        assert str(info.value) == message


class TestCliGen:
    def test_gen_hadamard_to_file(self, tmp_path, capsys):
        out = tmp_path / "mu.json"
        assert main(["gen", "hadamard-mu", "--k", "2", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["kind"] == "explicit"
        assert obj["n"] == 3
        assert len(obj["support"]) == 4

    def test_gen_majp_stdout(self, capsys):
        assert main(["gen", "majp", "--n", "4", "--p", "1/3"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["kind"] == "product"
        assert obj["marginals"][0] == ["1/6", "1/6", "2/3"]

    def test_gen_missing_param(self, capsys):
        assert main(["gen", "hadamard-mu"]) == 2

    def test_gen_decimal_p_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "majp", "--n", "3", "--p", "0.5"])
        assert exc.value.code == 2

    def test_deterministic_output(self, capsys):
        main(["gen", "mixture-d", "--k", "3"])
        first = capsys.readouterr().out
        main(["gen", "mixture-d", "--k", "3"])
        assert capsys.readouterr().out == first


@pytest.fixture
def mu_file(tmp_path):
    path = tmp_path / "mu.json"
    save_dist(path, hadamard_mu(2))
    return str(path)


@pytest.fixture
def uniform3_file(tmp_path):
    path = tmp_path / "u3.json"
    save_dist(path, uniform_product(3))
    return str(path)


class TestCliAnalyze:
    def test_effects_json(self, mu_file, capsys):
        assert main(["analyze", "--dist", mu_file, "--fn", "majority",
                     "--what", "effects"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [row["effect"] for row in obj["players"]] == ["1/2", "1/2", "1/2"]
        assert obj["players"][0]["effect_float"] == 0.5

    def test_effects_csv(self, mu_file, capsys):
        assert main(["analyze", "--dist", mu_file, "--fn", "majority",
                     "--what", "effects", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "player,signed,signed_dec,effect,effect_dec"
        assert lines[1] == "0,1/2,0.5,1/2,0.5"

    def test_influences(self, uniform3_file, capsys):
        assert main(["analyze", "--dist", uniform3_file, "--fn", "parity",
                     "--what", "influences"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert all(row["influence"] == "1" for row in obj["players"])

    def test_pivotal_requires_thresholds(self, mu_file, capsys):
        assert main(["analyze", "--dist", mu_file, "--fn", "majority",
                     "--what", "pivotal"]) == 2

    def test_pivotal_report(self, uniform3_file, capsys):
        assert main(["analyze", "--dist", uniform3_file, "--fn", "dictator:0",
                     "--what", "pivotal", "--p", "1/4", "--alpha", "1/4"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["players"][0]["pivotal"] is True
        assert obj["players"][1]["pivotal"] is False

    def test_counts(self, uniform3_file, capsys):
        assert main(["analyze", "--dist", uniform3_file, "--fn", "dictator:1",
                     "--what", "counts", "--alpha", "1/2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["count_effect"] == 1

    def test_pivotal_counts(self, uniform3_file, capsys):
        assert main(["analyze", "--dist", uniform3_file, "--fn", "dictator:1",
                     "--what", "counts", "--p", "1/4", "--alpha", "1/4"]) == 0
        obj = json.loads(capsys.readouterr().out)
        want = count_pivotal(DictatorFn(3, 1), uniform_product(3), F(1, 4), F(1, 4))
        assert obj == {"what": "counts", "p": "1/4", "alpha": "1/4", "count_pivotal": want}
        assert want == 1

    def test_function_file_input(self, tmp_path, uniform3_file, capsys):
        fn_path = tmp_path / "f.json"
        save_fn(fn_path, UpwardClosure(3, [(1, 1, 0)]))
        assert main(["analyze", "--dist", uniform3_file, "--fn", str(fn_path),
                     "--what", "effects"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["players"][2]["effect"] == "0"

    def test_builtin_name_wins_over_file_of_that_name(self, tmp_path, uniform3_file,
                                                      monkeypatch, capsys):
        save_fn(tmp_path / "majority", UpwardClosure(3, [(1, 1, 0)]))
        monkeypatch.chdir(tmp_path)
        effects = {}
        for spec in ("majority", "./majority"):
            assert main(["analyze", "--dist", uniform3_file, "--fn", spec,
                         "--what", "effects"]) == 0
            obj = json.loads(capsys.readouterr().out)
            effects[spec] = [row["effect"] for row in obj["players"]]
        assert effects == {"majority": ["1/2", "1/2", "1/2"],
                           "./majority": ["1/2", "1/2", "0"]}

    def test_alphabet_mismatch_rejected(self, mu_file, capsys):
        assert main(["analyze", "--dist", mu_file, "--fn", "majp",
                     "--what", "effects"]) == 2
        assert "alphabet" in capsys.readouterr().err


class TestCliVerify:
    def test_thm1_ok(self, mu_file, capsys):
        # Deviations are exactly +-1/4, so alpha must sit strictly below.
        assert main(["verify", "--which", "thm1", "--dist", mu_file,
                     "--fn", "majority", "--p", "1/4", "--alpha", "1/5"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["theorem"] == "thm1"
        assert obj["ok"] is True
        assert obj["computed"]["count_pivotal"] == 3

    def test_warmup(self, uniform3_file, capsys):
        assert main(["verify", "--which", "warmup", "--dist", uniform3_file,
                     "--fn", "parity", "--alpha", "1/4"]) == 0

    def test_sum_bound(self, mu_file, capsys):
        assert main(["verify", "--which", "sum-bound", "--dist", mu_file,
                     "--fn", "majority", "--players", "0,1,2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["computed"]["sum_effects"] == "3/2"

    def test_reduction(self, uniform3_file, capsys):
        assert main(["verify", "--which", "reduction", "--dist", uniform3_file,
                     "--fn", "dictator:0", "--p", "1/2", "--alpha", "1/4"]) == 0

    def test_reduction_of_twelve_equal_rows(self, tmp_path, capsys):
        # All 12 players are selected, over 3^12 joint symbols; the equal
        # rows are read by deviation count, 13 classes.
        path = tmp_path / "majp12.json"
        assert main(["gen", "majp", "--n", "12", "--p", "1/2", "--out", str(path)]) == 0
        assert main(["verify", "--which", "reduction", "--dist", str(path),
                     "--fn", "majp", "--p", "1/4", "--alpha", "1/1000"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["computed"]["selected"] == list(range(12))

    def test_thm2(self, uniform3_file, capsys):
        assert main(["verify", "--which", "thm2", "--dist", uniform3_file,
                     "--fn", "dictator:0", "--m", "1", "--p", "1/2",
                     "--alpha", "1/4"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["computed"]["union"] == [0]

    def test_convex(self, tmp_path, capsys):
        d1 = tmp_path / "mu.json"
        d2 = tmp_path / "bar.json"
        from pivotal import complement_mu
        save_dist(d1, hadamard_mu(2))
        save_dist(d2, complement_mu(hadamard_mu(2)))
        assert main(["verify", "--which", "convex", "--dist", str(d1),
                     "--dist2", str(d2), "--fn", "majority",
                     "--q", "1/3", "--player", "0"]) == 0

    def test_effect_identity(self, mu_file, capsys):
        assert main(["verify", "--which", "effect-identity", "--dist", mu_file,
                     "--fn", "majority"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["computed"]["ratio"] == "4"
        assert obj["computed"]["expected_ratio"] == "4"

    def test_thm2_past_the_enumeration_limit_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "u17.json"
        save_dist(path, uniform_product(17))
        assert main(["verify", "--which", "thm2", "--dist", str(path), "--fn", "majority",
                     "--m", "1", "--p", "1/2", "--alpha", "1/4"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("pivotal: error:")
        assert "n=17 exceeds the enumeration limit 16" in err

    def test_failing_verdict_prints_its_witness(self, mu_file, monkeypatch, capsys):
        from pivotal import theorems
        failed = theorems.Verdict("thm1", {}, {}, None, False, witness=((0, 1), (1, 0)))
        monkeypatch.setattr(theorems, "verify_thm1", lambda *args: failed)
        assert main(["verify", "--which", "thm1", "--dist", mu_file,
                     "--fn", "majority", "--p", "1/4", "--alpha", "1/5"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert (obj["ok"], obj["witness"]) == (False, [[0, 1], [1, 0]])

    @pytest.mark.parametrize("field, value, witness", [
        ("y_dist", uniform_product(1).to_explicit(), ["1/2"]),
        ("g", DenseTable(BINARY, 1, {(0,): Fraction(0), (1,): Fraction(0)}), "0"),
    ], ids=["marginal", "effects"])
    def test_failed_reduction_prints_its_witness(self, uniform3_file, monkeypatch, capsys,
                                                 field, value, witness):
        # The real reduction with one part swapped fails one of its checks.
        from pivotal import theorems
        real = theorems.reduce_to_binary
        monkeypatch.setattr(theorems, "reduce_to_binary",
                            lambda *args: dataclasses.replace(real(*args), **{field: value}))
        assert main(["verify", "--which", "reduction", "--dist", uniform3_file,
                     "--fn", "dictator:0", "--p", "1/2", "--alpha", "1/4"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert (obj["ok"], obj["witness"]) == (False, witness)

    def test_missing_argument_is_usage_error(self, mu_file, capsys):
        assert main(["verify", "--which", "thm1", "--dist", mu_file,
                     "--fn", "majority", "--p", "1/4"]) == 2

    def test_players_that_are_not_integers_are_usage_error(self, mu_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--which", "sum-bound", "--dist", mu_file, "--fn", "majority",
                  "--players", "0,b"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("expected comma-separated player indices, got '0,b'\n")

    def test_precondition_failure_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "dep.json"
        from pivotal import ExplicitDist
        save_dist(bad, ExplicitDist(BINARY, 2, [((0, 0), F(1, 2)), ((1, 1), F(1, 2))]))
        assert main(["verify", "--which", "thm1", "--dist", str(bad),
                     "--fn", "parity", "--p", "1/4", "--alpha", "1/4"]) == 2


class TestCliCounterexample:
    def test_effect_counterexample_files(self, tmp_path, capsys):
        fn_out = tmp_path / "f.json"
        dist_out = tmp_path / "d.json"
        code = main(["counterexample", "--which", "effect", "--k", "3",
                     "--out-fn", str(fn_out), "--out-dist", str(dist_out)])
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is True
        f = fn_from_obj(json.loads(fn_out.read_text()))
        d = dist_from_obj(json.loads(dist_out.read_text()))
        from pivotal import effect_report
        assert all(e == 0 for e in effect_report(f, d).effects())

    def test_influence_k3_fails_with_exit_1(self, capsys):
        code = main(["counterexample", "--which", "influence", "--k", "3"])
        assert code == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is False
        assert "violation" in verdict

    def test_influence_k4_passes(self, capsys):
        assert main(["counterexample", "--which", "influence", "--k", "4"]) == 0

    def test_effect_refusal_exits_1_with_the_violation(self, monkeypatch, capsys):
        # With the complement space replaced by the base space itself, the
        # closure holds every base point, so the certificate fails.
        from pivotal import boolfn
        monkeypatch.setattr(boolfn, "complement_mu", lambda mu: mu)
        assert main(["counterexample", "--which", "effect", "--k", "3"]) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is False
        assert verdict["violation"] == [[0] * 7, [0] * 7]


class TestCliSweep:
    def test_exact_csv(self, capsys):
        assert main(["sweep", "--majp-tightness", "--n", "5", "--p", "1/2",
                     "--alpha-grid", "7/1024,1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["alpha,alpha_dec,count,bound,bound_dec",
                         "7/1024,0.0068359375,5,16777216/49,342392.1632653061",
                         "1,1.0,0,16,16.0"]

    def test_exact_json(self, capsys):
        assert main(["sweep", "--n", "5", "--p", "1/2", "--alpha-grid", "7/1024,1",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == [
            {"alpha": "7/1024", "count": 5, "bound": "16777216/49"},
            {"alpha": "1", "count": 0, "bound": "16"}]

    @pytest.mark.parametrize("option", ["--samples", "--seed"])
    def test_monte_carlo_options_are_gone(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "5", "--p", "1/2", "--alpha-grid", "1/8", option, "10"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_mode_flag_is_optional(self, capsys):
        argv = ["--n", "5", "--p", "1/2", "--alpha-grid", "1/8,1/4"]
        assert main(["sweep", "--majp-tightness"] + argv) == 0
        with_flag = capsys.readouterr().out
        assert main(["sweep"] + argv) == 0
        assert capsys.readouterr().out == with_flag


DIRECTORY = object()  # the input path names a directory
NOT_UTF8 = b"\xff\xfe"


def _input_path(tmp_path, name, content) -> str:
    """A directory, a raw-bytes file, or a JSON file holding content."""
    path = tmp_path / name
    if content is DIRECTORY:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("dist_obj, fn", [
    (None, "dictator:abc"),
    (None, {"kind": "builtin", "name": "dictator", "params": {"n": 3}}),
    ([1, 2], "majority"),
    ({"kind": "product", "alphabet": ["0", "1"], "n": "x",
      "marginals": [["1/2", "1/2"]]}, "majority"),
    pytest.param(DIRECTORY, "majority", id="dist-directory"),
    pytest.param(NOT_UTF8, "majority", id="dist-not-utf8"),
    pytest.param(None, DIRECTORY, id="fn-directory"),
    pytest.param(None, NOT_UTF8, id="fn-not-utf8"),
    pytest.param(None, {"kind": "builtin", "name": "dictator", "params": {"n": 3, "i": 1.7}},
                 id="dictator-float-index"),
    pytest.param({"kind": "explicit", "alphabet": ["0", "1"], "n": 1.9,
                  "support": [{"x": [0.4], "w": "1/2"}, {"x": [1], "w": "1/2"}]},
                 "majority", id="dist-float-n-and-symbol"),
    pytest.param({"kind": "product", "alphabet": ["0", "1"], "n": True,
                  "marginals": [["1/2", "1/2"]]}, "majority", id="dist-bool-n"),
    pytest.param(None, {"kind": "upward", "n": 3, "generators": [[True, False, 1.0]]},
                 id="upward-non-integer-bits"),
    pytest.param(b"[" * 100_000, "majority", id="dist-deeply-nested"),
    pytest.param(b'{"kind": "product", "alphabet": ["0", "1"], "n": 1' + b"0" * 4999
                 + b', "marginals": []}', "majority", id="dist-n-of-5000-digits"),
    pytest.param({"kind": "product", "alphabet": "01", "n": 3,
                  "marginals": [["1/2", "1/2"]] * 3}, "majority", id="dist-alphabet-string"),
    pytest.param({"kind": "product", "alphabet": [0, 1], "n": 3,
                  "marginals": [["1/2", "1/2"]] * 3}, "majority", id="dist-alphabet-integers"),
    pytest.param(None, {"kind": "table", "alphabet": "01", "n": 3,
                        "values": {format(m, "03b"): "0" for m in range(8)}},
                 id="table-alphabet-string"),
    pytest.param(None, {"kind": "builtin", "name": "constant",
                        "params": {"n": 3, "c": "1/2", "alphabet": "01"}},
                 id="constant-alphabet-string"),
    pytest.param(None, "parity:7", id="parameter-to-parity"),
    pytest.param(None, "majority:x", id="parameter-to-majority"),
    pytest.param(None, "constant:1/0", id="constant-zero-denominator"),
])
def test_malformed_input_is_input_error(tmp_path, mu_file, capsys, dist_obj, fn):
    """Exit 2 with a one-line diagnostic, never a traceback and exit 1."""
    dist = mu_file if dist_obj is None else _input_path(tmp_path, "bad_dist.json", dist_obj)
    if not isinstance(fn, str):
        fn = _input_path(tmp_path, "bad_fn.json", fn)
    assert main(["analyze", "--dist", dist, "--fn", fn, "--what", "effects"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("pivotal: error:")


# Input files named in the argument lists below, by file name.
FILES = {
    "u3.json": dist_to_obj(uniform_product(3)),
    "u2.json": dist_to_obj(uniform_product(2)),
    "majp3.json": dist_to_obj(majp_dist(3, F(1, 2))),
    "degenerate.json": dist_to_obj(ProductDist(BINARY, 2, [(F(1), F(0))] * 2)),
    "edge.json": dist_to_obj(ProductDist(BINARY, 2, [(F(1), F(0)), (F(1, 2), F(1, 2))])),
    "arity2.json": fn_to_obj(UpwardClosure(2, [(1, 0)])),
    "nosuch.json": {"kind": "builtin", "name": "nosuch", "params": {"n": 3}},
    "badkey.json": {"kind": "table", "alphabet": ["0", "1"], "n": 1,
                    "values": {"0": "0", "x": "1"}},
    "long.json": {"kind": "table", "alphabet": ["00", "1"], "n": 1, "values": {}},
    "list.json": [1, 2],
    "mixture.json": {"kind": "mixture", "alphabet": ["0", "1"], "n": 2},
}
CONVEX = ["verify", "--which", "convex", "--player", "0"]


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--dist", "u3.json", "--fn", "no-such-spec", "--what", "effects"],
     f"'no-such-spec' is neither a file nor a builtin ({BUILTIN_SPECS})"),
    (["analyze", "--dist", "u3.json", "--fn", "arity2.json", "--what", "effects"],
     "function arity 2 does not match distribution arity 3"),
    (["analyze", "--dist", "u3.json", "--fn", "nosuch.json", "--what", "effects"],
     "unknown builtin 'nosuch'"),
    (["analyze", "--dist", "u3.json", "--fn", "badkey.json", "--what", "effects"],
     "unknown symbol 'x' in table key 'x'"),
    (["analyze", "--dist", "u3.json", "--fn", "list.json", "--what", "effects"],
     "function must be a JSON object, got list"),
    (["counterexample", "--which", "influence", "--k", "9"], "k must be in 3..8, got 9"),
    (["analyze", "--dist", "u3.json", "--fn", "long.json", "--what", "effects"],
     "table parsing needs single-character symbols"),
    (["analyze", "--dist", "majp3.json", "--fn", "majp", "--what", "effects"],
     "effect is defined for the binary alphabet only"),
    (["analyze", "--dist", "majp3.json", "--fn", "majp", "--what", "influences"],
     "influence is defined for the binary alphabet only"),
    (["verify", "--which", "effect-identity", "--dist", "majp3.json", "--fn", "majp"],
     "Fourier engine needs the binary alphabet"),
    (["verify", "--which", "binary-bound", "--dist", "degenerate.json", "--fn", "majority",
      "--alpha", "1/4"], "degenerate shared marginal Pr[0]=1"),
    (["verify", "--which", "binary-bound", "--dist", "majp3.json", "--fn", "majp",
      "--alpha", "1/4"], "bound applies to the binary alphabet only"),
    (["verify", "--which", "sum-bound", "--dist", "majp3.json", "--fn", "majp",
      "--players", "0,1"], "bound applies to the binary alphabet only"),
    (CONVEX + ["--dist", "u3.json", "--dist2", "u3.json", "--fn", "majority", "--q", "3/2"],
     "mixture weight 3/2 outside [0, 1]"),
    (CONVEX + ["--dist", "majp3.json", "--dist2", "majp3.json", "--fn", "majp", "--q", "1/2"],
     "decomposition applies to the binary alphabet only"),
    (CONVEX + ["--dist", "u3.json", "--dist2", "u2.json", "--fn", "majority", "--q", "1/2"],
     "components have different arities"),
    (CONVEX + ["--dist", "edge.json", "--dist2", "edge.json", "--fn", "majority",
               "--q", "1/2"], "player 0 marginal 0 not inside (0, 1)"),
    (["analyze", "--dist", "mixture.json", "--fn", "majority", "--what", "effects"],
     "unknown distribution kind 'mixture'"),
], ids=["fn-neither-file-nor-builtin", "fn-file-arity", "fn-unknown-builtin",
        "table-unknown-symbol", "fn-file-list", "influence-cx-k-past-8", "table-long-symbols",
        "effects-participation",
        "influences-participation", "effect-identity-participation",
        "binary-bound-degenerate", "binary-bound-participation", "sum-bound-participation",
        "convex-q-outside", "convex-participation",
        "convex-arities", "convex-marginal-at-edge", "dist-unknown-kind"])
def test_refused_input_names_its_fault(tmp_path, monkeypatch, capsys, argv, message):
    """Exit 2 with the refusal's own message on one stderr line."""
    monkeypatch.chdir(tmp_path)
    for name, obj in FILES.items():
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"pivotal: error: {message}\n"


K_PAST = str(_HADAMARD_K_LIMIT + 1)
N_PAST = str(_PRODUCT_N_LIMIT + 1)


@pytest.mark.parametrize("argv", [
    ["verify", "--which", "sum-bound", "--dist", "MU", "--fn", "majority", "--players", "7"],
    ["verify", "--which", "sum-bound", "--dist", "MU", "--fn", "majority", "--players", "-1"],
    ["sweep", "--majp-tightness", "--n", "5", "--p", "1/2", "--alpha-grid", "0"],
    ["sweep", "--majp-tightness", "--n", "5", "--p", "1/2", "--alpha-grid=1/8,-1/4"],
    ["gen", "hadamard-mu", "--k", K_PAST],
    ["gen", "complement-mu", "--k", K_PAST],
    ["gen", "mixture-d", "--k", K_PAST],
    ["counterexample", "--which", "effect", "--k", K_PAST],
    ["counterexample", "--which", "influence", "--k", K_PAST],
    ["sweep", "--majp-tightness", "--n", N_PAST, "--p", "1/2", "--alpha-grid", "1/8"],
    ["gen", "uniform-product", "--n", N_PAST],
    ["gen", "majp", "--n", N_PAST, "--p", "1/2"],
], ids=["players-past-n", "players-negative", "alpha-zero", "alpha-negative",
        "hadamard-k-past-limit", "complement-k-past-limit", "mixture-k-past-limit",
        "effect-cx-k-past-limit", "influence-cx-k-past-limit", "exact-sweep-past-limit",
        "uniform-n-past-limit", "majp-n-past-limit"])
def test_out_of_range_argument_is_input_error(mu_file, capsys, argv):
    assert main([mu_file if a == "MU" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("pivotal: error:")


@pytest.mark.parametrize("dist_obj, fn, hinted", [
    pytest.param(None, "constant:x", False, id="constant-letter"),
    pytest.param({"kind": "explicit", "alphabet": ["0", "1"], "n": 1,
                  "support": [{"x": [0], "w": ""}, {"x": [1], "w": "1/2"}]},
                 "majority", False, id="empty-weight"),
    pytest.param(None, "constant:0.5", True, id="constant-decimal"),
    pytest.param({"kind": "explicit", "alphabet": ["0", "1"], "n": 1,
                  "support": [{"x": [0], "w": "0.5"}, {"x": [1], "w": "1/2"}]},
                 "majority", True, id="decimal-weight"),
])
def test_decimal_hint_only_for_decimal_text(tmp_path, mu_file, capsys, dist_obj, fn, hinted):
    dist = mu_file if dist_obj is None else _input_path(tmp_path, "dist.json", dist_obj)
    assert main(["analyze", "--dist", dist, "--fn", fn, "--what", "effects"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pivotal: error: expected an exact rational")
    assert ("decimal notation" in err) == hinted


@pytest.mark.parametrize("argv", [
    ["gen", "uniform-product", "--n", "3", "--out"],
    ["counterexample", "--which", "effect", "--k", "3", "--out-fn"],
], ids=["gen-out", "counterexample-out-fn"])
def test_unwritable_output_is_input_error(tmp_path, capsys, argv):
    assert main(argv + [str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("pivotal: error:")


def test_readme_names_every_command_line_choice():
    """README lists each generator and verifier with the options it needs, and the builtins."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = []
    for name, (needs, _) in [*GENERATORS.items(), *VERIFIERS.items()]:
        options = ", ".join(f"`--{option.replace('_', '-')}`" for option in needs) or "—"
        rows.append(f"| `{name}` | {options} |")
    assert [row for row in rows if row not in readme] == []
    assert f"(`{BUILTIN_SPECS}`)" in readme


VALID = {
    "gen": ["gen", "majp", "--n", "3", "--p", "1/2", "--out", "mu.json"],
    "analyze": ["analyze", "--dist", "mu.json", "--fn", "majp", "--what", "pivotal",
                "--p", "1/2", "--alpha=-1/4", "--format", "csv"],
    "verify": ["verify", "--which", "sum-bound", "--dist", "mu.json", "--dist2", "nu.json",
               "--fn", "fn.json", "--p", "1/3", "--alpha", "1/4", "--q", "1/2", "--m", "2",
               "--player", "1", "--players", "0,2"],
    "counterexample": ["counterexample", "--which", "influence", "--k", "4",
                       "--out-fn", "f.json", "--out-dist", "d.json"],
    "sweep": ["sweep", "--majp-tightness", "--n", "5", "--p", "1/2", "--alpha-grid", "1/8,1/4",
              "--format", "json"],
}
PARSE_CORPUS = [
    *VALID.values(),
    *(["-h", command] for command in COMMANDS),
    *([command, "-h"] for command in COMMANDS),
    *(["--bogus", *argv] for argv in VALID.values()),
    *([*argv, "--bogus"] for argv in VALID.values()),
    *(["--", *argv] for argv in VALID.values()),
    [], ["nosuch"], ["nosuch", "--k", "3"], ["-h"], ["--", "-h"], ["-1", "gen"],
    # Option values that name another command, which argparse never dispatches to.
    ["gen", "majp", "--n", "3", "--out", "verify"],
    ["analyze", "--dist", "gen", "--fn", "sweep", "--what", "effects"],
    ["analyze", "--dist", "mu.json", "--fn", "majp", "--what", "nosuch"],
    ["gen", "majp", "--n", "x"],
    ["counterexample", "--which", "effect"],
    # Words the invoked command's parser leaves over, and its own parsing rules.
    *([*argv, "stray"] for argv in VALID.values()),
    ["gen", "--n", "3", "--", "majp"],
    ["gen", "majp", "--", "--n", "3"],
    ["verify", "--wh", "thm1", "--dist", "mu.json", "--fn", "majp"],
    ["counterexample", "--which=effect", "--k=3"],
    ["verify", "--which", "thm1", "--dist", "mu.json", "-h"],
    ["analyze", "--dist", "mu.json", "--fn", "majp", "--what"],
    # The sweep's removed Monte Carlo options are leftover words on either path.
    [*VALID["sweep"], "--samples", "10"],
    [*VALID["sweep"], "--seed=3"],
    # Lines the scan leaves to the full tree, whatever argparse makes of them:
    # "--dist=--" reads as an empty list on some versions.
    ["analyze", "--dist=--", "--fn", "majp", "--what", "effects"],
    ["analyze", "--dist=", "--fn", "majp", "--what", "effects"],
    ["analyze", "--dist", "", "--fn", "majp", "--what", "effects"],
    ["verify", "--which", "sum-bound", "--dist", "mu.json", "--fn", "majp", "--players", "-1"],
    ["analyze", "--dist", "mu.json", "--fn", "majp", "--what", "pivotal", "--alpha", "-1/4"],
    ["sweep", "--majp-tightness=x", "--n", "5"],
    ["gen", "--n", "3"], ["gen", "--n", "3", "majp"], ["gen", "majp", "--n", "3", "majp"],
    # The command line shapes the cli-batch benchmark runs.
    *(["analyze", "--dist", "d.json", "--fn", spec, "--what", what, "--format", fmt]
      for spec, what, fmt in [("parity", "effects", "json"), ("f.json", "influences", "csv")]),
    ["analyze", "--dist", "d.json", "--fn", "majp", "--what", "pivotal", "--p", "1/8",
     "--alpha", "1/3", "--format", "json"],
    ["analyze", "--dist", "d.json", "--fn", "dictator:2", "--what", "counts", "--alpha", "1/40"],
    ["analyze", "--dist", "d.json", "--fn", "majority", "--what", "counts", "--alpha", "1/5",
     "--p", "1/2"],
    *(["verify", "--which", which, "--dist", "d.json", "--fn", "parity", *extra]
      for which, extra in [("thm1", ["--p", "1/4", "--alpha", "1/20"]),
                           ("warmup", ["--alpha", "1/8"]), ("sum-bound", ["--players", "0,2,3"]),
                           ("binary-bound", ["--alpha", "1/10"]),
                           ("reduction", ["--p", "1/2", "--alpha", "1/3"]),
                           ("convex", ["--q", "1/7", "--player", "2", "--dist2", "d2.json"]),
                           ("effect-identity", [])]),
    ["gen", "hadamard-mu", "--k", "3"], ["gen", "mixture-d", "--k", "2"],
    ["gen", "uniform-product", "--n", "5"], ["gen", "majp", "--n", "3", "--p", "2/5"],
    ["counterexample", "--which", "effect", "--k", "3", "--out-fn", "f.json",
     "--out-dist", "d.json"],
]


def _outcome(parse):
    """The Namespace parse() returns, or its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse()
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
def test_parse_step_parses_like_the_full_tree(monkeypatch, argv):
    """main's parse step gives the full tree's Namespace, or its exit code and output."""
    monkeypatch.setenv("COLUMNS", "80")
    assert _outcome(lambda: parse_argv(argv)) == _outcome(lambda: build_parser().parse_args(argv))


def test_valid_command_line_builds_no_parser(monkeypatch, capsys):
    """A well-formed command line is scanned; help and a stray word build the full tree."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for name, (help_text, options, _) in COMMANDS.items():  # parse, but run nothing
        monkeypatch.setitem(COMMANDS, name, (help_text, options, lambda args: 0))
    tree = ["pivotal", *(f"pivotal {name}" for name in COMMANDS)]
    for name, argv in VALID.items():
        built.clear()
        assert main(argv) == 0
        assert built == []
        for other in ([name, "-h"], [*argv, "stray"]):
            built.clear()
            with pytest.raises(SystemExit):
                main(other)
            assert built == tree


@pytest.mark.parametrize("name, flag", [(name, flag) for name, (_, options, _) in COMMANDS.items()
                                        for flag, _ in options if flag.startswith("-")])
def test_double_dash_value_is_a_usage_error(tmp_path, monkeypatch, capsys, name, flag):
    """FLAG=-- after a valid line exits 2 with a usage error, whatever argparse stores for it."""
    monkeypatch.chdir(tmp_path)
    try:
        code = main([*VALID[name], f"{flag}=--"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert f"error: argument {flag}: " in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# Option values for the property below: good ones for some type, ones that
# start with "-", and ones that no type or choice takes.
TEXTS = ["3", "1/2", "0,2", "1/8,1/4", "mu.json", "-1", "-1/4", "-x", "x", "0.5", "", "--"]
EXTRAS = ["-h", "--", "stray", "--bogus", "-1"]
FAULTS = ["value", "bare", "abbreviated", "missing", "extra"]


@st.composite
def _command_lines(draw) -> list[str]:
    """A command line of one command, drawn from its option table.

    Each option is given zero to two times (a required one and the
    positional at least once), with a good value in the space or "=" form,
    in any order. Five lines in six then take one fault: a value from
    TEXTS, a flag's value left out, an abbreviated flag, an option left
    out, or a word from EXTRAS.
    """
    name = draw(st.sampled_from(list(COMMANDS)))
    chunks = []  # [flag as spelled, value text, form]
    for flag, kwargs in COMMANDS[name][1]:
        needed = kwargs.get("required") or not flag.startswith("-")
        for _ in range(draw(st.sampled_from([1, 1, 2] if needed else [0, 0, 1, 1, 2]))):
            form = ("bare" if kwargs.get("action") == "store_true" or not flag.startswith("-")
                    else draw(st.sampled_from(["space", "equals"])))
            text = draw(st.sampled_from(kwargs.get("choices", ["3"])))  # "3" fits every type
            chunks.append([flag, text, form])
    chunks = draw(st.permutations(chunks))
    fault = draw(st.sampled_from([None, *FAULTS]))
    if fault in ("value", "bare", "abbreviated", "missing") and chunks:
        i = draw(st.integers(0, len(chunks) - 1))
        flag, _, form = chunks[i]
        if fault == "missing":
            del chunks[i]
        elif fault == "abbreviated" and flag.startswith("-"):
            chunks[i][0] = flag[:-1]
        elif fault == "bare" and form != "bare":
            chunks[i][2] = "bare"
        else:  # a value from TEXTS, after "=" for a store_true flag
            chunks[i][1:] = [draw(st.sampled_from(TEXTS)), "equals" if form == "bare" else form]
    words = [*itertools.chain.from_iterable(
        [text] if not flag.startswith("-") else
        {"space": [flag, text], "equals": [f"{flag}={text}"], "bare": [flag]}[form]
        for flag, text, form in chunks)]
    if fault == "extra":
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(EXTRAS)))
    return [name, *words]


@settings(max_examples=600, deadline=None)
@given(_command_lines())
def test_scan_parses_like_the_full_tree(argv):
    """Forms, repeats, "-"-values, bad values, missing options, stray words: one outcome."""
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        scanned = _outcome(lambda: parse_argv(argv))
        event("scanned" if isinstance(scanned, argparse.Namespace) else "full tree")
        assert scanned == _outcome(lambda: build_parser().parse_args(argv)), argv
