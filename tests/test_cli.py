import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from decobs import campaigns
from decobs.cli import (
    _DISPATCH,
    CampaignConfig,
    _campaign,
    _config_from_args,
    _emit,
    build_parser,
    command,
    main,
    run_holevo,
    run_majorization,
    run_s_theorems,
    write_json,
)
from decobs.povm import counterexample_1, counterexample_2
from decobs.serialize import povm_to_json

LN2 = math.log(2.0)
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)


class TestVerifySTheorems:
    def test_small_campaign_passes(self, capsys):
        code, report = run_json(
            capsys,
            "verify-s-theorems", "--dim", "3", "--trials", "10", "--seed", "1",
            "--entropy", "von-neumann", "--entropy", "renyi:2",
        )
        assert code == 0
        assert report["seed"] == 1
        assert report["summary"]["violations"] == 0
        assert report["summary"]["consistency_ok"] is True
        assert len(report["rows"]) == 10 * 2 * 2
        row = report["rows"][0]
        assert set(row) >= {"trial", "dim", "functional", "side", "lhs", "rhs", "margin", "trivial", "violation"}

    def test_phase_only_probing_is_trivial(self, capsys):
        code, report = run_json(
            capsys,
            "verify-s-theorems", "--dim", "3", "--trials", "10", "--seed", "2",
            "--response-dim", "1",
        )
        assert code == 0
        for row in report["rows"]:
            assert row["trivial"] is True
            assert abs(row["margin"]) <= 1e-9

    def test_rerun_is_byte_identical_modulo_timestamp(self, capsys):
        argv = ("verify-s-theorems", "--dim", "2", "--trials", "8", "--seed", "5")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert strip_timestamp(first) == strip_timestamp(second)

    def test_csv_table_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify-s-theorems", "--dim", "2", "--trials", "4", "--seed", "3", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial,dim,functional,side,lhs,rhs,margin,trivial"
        assert len(lines) == 1 + 4 * 2
        assert lines[1].split(",")[3] in ("observation", "decoherence")

    def test_csv_rerun_is_byte_identical(self, capsys):
        argv = ("verify-s-theorems", "--dim", "2", "--trials", "4", "--seed", "3", "--format", "csv")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_bits_units_scale_display(self, capsys):
        argv = ["verify-s-theorems", "--dim", "2", "--trials", "3", "--seed", "4"]
        _, nats = run_json(capsys, *argv)
        _, bits = run_json(capsys, *argv, "--units", "bits")
        for row_n, row_b in zip(nats["rows"], bits["rows"]):
            assert row_b["margin"] == pytest.approx(row_n["margin"] / LN2)

    def test_rejects_bad_functional(self, capsys):
        code, out, err = run_cli(capsys, "verify-s-theorems", "--entropy", "boltzmann")
        assert code == 2
        assert "error" in err


class TestMajorizationCommand:
    def test_campaign_passes(self, capsys):
        code, report = run_json(capsys, "majorization", "--dim", "5", "--trials", "20", "--seed", "0")
        assert code == 0
        assert report["summary"]["violations"] == 0
        sides = {row["side"] for row in report["rows"]}
        assert sides == {"schur", "pinching-upper", "pinching-lower", "fan"}


class TestCounterexampleCommand:
    def test_first(self, capsys):
        code, report = run_json(capsys, "counterexample", "--which", "1")
        assert code == 0
        assert report["probabilities"] == pytest.approx([0.5, 0.5, 0.0, 0.0], abs=1e-12)
        assert report["purity_preserving"] is False
        assert report["violated_side"] == "observation"
        assert all(check["pass"] for check in report["checks"])
        assert report["entropy"]["expected_after_observation"] == pytest.approx(LN2, abs=1e-12)

    def test_second(self, capsys):
        code, report = run_json(capsys, "counterexample", "--which", "2")
        assert code == 0
        assert report["probabilities"] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert report["purity_preserving"] is True
        assert report["violated_side"] == "decoherence"
        assert report["entropy"]["before"] == pytest.approx(LN2, abs=1e-12)
        assert report["entropy"]["of_average"] == pytest.approx(0.0, abs=1e-12)

    def test_second_with_renyi(self, capsys):
        code, report = run_json(capsys, "counterexample", "--which", "2", "--entropy", "renyi:2")
        assert code == 0
        assert report["entropy"]["before"] == pytest.approx(-0.5)
        assert report["entropy"]["of_average"] == pytest.approx(-1.0)

    def test_rows_use_the_selected_order_not_its_rounded_label(self, capsys):
        # the label is the full order, which its 6-digit :g form would round away;
        # the rows and the entropy block use that order too
        code, report = run_json(capsys, "counterexample", "--which", "2", "--entropy", "renyi:0.1234567891")
        assert code == 0
        renyi_rows = {row["side"]: row for row in report["rows"] if row["functional"] == "renyi:0.1234567891"}
        assert renyi_rows["decoherence"]["lhs"] == report["entropy"]["before"]
        assert renyi_rows["observation"]["lhs"] == report["entropy"]["expected_after_observation"]
        assert renyi_rows["decoherence"]["rhs"] == report["entropy"]["of_average"]

    # the seven functionals of scripts/report_digests.py
    @pytest.mark.parametrize(
        "functional", ["von-neumann", "linear", "renyi:0.5", "renyi:2", "log-det", "renyi:0.1", "renyi:3"]
    )
    @pytest.mark.parametrize("which", ["1", "2"])
    def test_the_entropy_block_is_read_back_from_the_rows(self, capsys, which, functional):
        code, report = run_json(capsys, "counterexample", "--which", which, "--entropy", functional)
        assert code == 0
        rows = {row["side"]: row for row in report["rows"] if row["functional"] == report["entropy"]["functional"]}
        entropy = report["entropy"]
        # one chain: expected after <= before <= of average
        assert rows["observation"]["rhs"] == rows["decoherence"]["lhs"] == entropy["before"]
        assert rows["observation"]["lhs"] == entropy["expected_after_observation"]
        assert rows["decoherence"]["rhs"] == entropy["of_average"]

    def test_rejects_more_than_one_entropy(self, capsys):
        code, out, err = run_cli(capsys, "counterexample", "--which", "1", "--entropy", "linear", "--entropy", "renyi:2")
        assert code == 2
        assert out == ""
        assert err.strip() == "error: counterexample takes at most one --entropy"

    def test_rejects_no_entropy(self):
        # the CLI always passes one (von-neumann by default); a library caller can pass none,
        # and the config refuses it when it is built, before any campaign runs
        with pytest.raises(ValueError) as err:
            CampaignConfig("counterexample", which=1, functionals=())
        assert str(err.value) == "counterexample needs one entropy functional, and none was given"

    def test_a_config_with_two_entropies_is_refused_when_built(self):
        with pytest.raises(ValueError) as err:
            CampaignConfig("counterexample", which=1, functionals=("linear", "renyi:2"))
        assert str(err.value) == "counterexample takes at most one --entropy"
        # the checks every campaign shares come first, in the CLI's order
        with pytest.raises(ValueError, match="^--units must be nats or bits$"):
            CampaignConfig("counterexample", which=1, functionals=("linear", "renyi:2"), units="hartley")

    def test_bits_display(self, capsys):
        code, report = run_json(capsys, "counterexample", "--which", "1", "--units", "bits")
        assert code == 0
        assert report["entropy"]["expected_after_observation"] == pytest.approx(1.0, abs=1e-12)

    def test_flags_echo_the_tolerance_that_decides_the_exit_code(self, capsys):
        default_code, default = run_json(capsys, "counterexample", "--which", "2")
        loose_code, loose = run_json(capsys, "counterexample", "--which", "2", "--tol", "1")
        assert (default_code, loose_code) == (0, 1)
        assert list(default["flags"]) == ["which", "entropy", "tol", "units"]
        assert default["flags"]["tol"] == 1e-9
        assert loose["flags"] == {**default["flags"], "tol": 1.0}


class TestHolevoCommand:
    def test_campaign_passes(self, capsys):
        code, report = run_json(
            capsys,
            "holevo", "--dim", "4", "--trials", "15", "--seed", "6",
            "--entropy", "von-neumann", "--entropy", "log-det",
        )
        assert code == 0
        assert report["summary"]["violations"] == 0

    def test_fixed_ensemble_size(self, capsys):
        code, report = run_json(
            capsys, "holevo", "--dim", "2", "--trials", "5", "--seed", "7", "--ensemble-size", "3"
        )
        assert code == 0
        assert report["flags"]["ensemble_size"] == 3


SUBCOMMANDS = ["verify-s-theorems", "majorization", "counterexample", "holevo", "povm-classify"]


class TestSubcommands:
    def test_help_lists_the_five_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--help"])
        assert exited.value.code == 0
        # the subcommand lines sit under "positional arguments:", each indented by four spaces
        listed = re.findall(r"^    (\S+) ", capsys.readouterr().out, flags=re.MULTILINE)
        assert listed == SUBCOMMANDS
        assert list(_DISPATCH) == SUBCOMMANDS
        assert list(campaigns.CAMPAIGN_MODULES) == SUBCOMMANDS

    def test_luders_equiv_is_an_invalid_choice(self, capsys):
        # its pinching identity is checked by test_processes.py's TestLuders and acceptance criterion 06
        with pytest.raises(SystemExit) as exited:
            main(["luders-equiv", "--dim", "2"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'luders-equiv'" in captured.err


class TestPovmClassify:
    def test_general_measurement(self, capsys, tmp_path):
        measurement, _ = counterexample_1()
        path = tmp_path / "ce1.json"
        path.write_text(json.dumps(povm_to_json(measurement)))
        code, report = run_json(capsys, "povm-classify", str(path))
        assert code == 0
        assert report["classification"] == "general"
        assert "ancilla_basis" not in report

    def test_purity_preserving_measurement(self, capsys, tmp_path):
        measurement, _ = counterexample_2()
        path = tmp_path / "ce2.json"
        path.write_text(json.dumps(povm_to_json(measurement)))
        code, report = run_json(capsys, "povm-classify", str(path))
        assert code == 0
        assert report["classification"] == "purity-preserving"
        assert report["probing_realizable"] == "unknown"
        assert len(report["ancilla_basis"]) == 2

    def test_probing_export_classifies_purity_preserving(self, capsys, tmp_path, cnot_probing):
        path = tmp_path / "probing.json"
        path.write_text(json.dumps(povm_to_json(cnot_probing)))
        code, report = run_json(capsys, "povm-classify", str(path))
        assert code == 0
        assert report["classification"] == "purity-preserving"

    def test_parse_error_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        code, out, err = run_cli(capsys, "povm-classify", str(path))
        assert code == 2
        assert "line" in err

    def test_nesting_too_deep_for_json_is_an_input_error(self, capsys, tmp_path):
        # json's decoder recurses per bracket and raises RecursionError long before 3,000
        path = tmp_path / "deep.json"
        path.write_text("[" * 3000 + "]" * 3000)
        code, out, err = run_cli(capsys, "povm-classify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: json-parse")

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "povm-classify", str(tmp_path / "missing.json"))
        assert code == 2
        assert err

    @pytest.mark.parametrize(
        "field, value, invariant",
        [
            ("object_dim", [2], "json-povm-dims"),
            ("object_dim", None, "json-povm-dims"),
            ("object_dim", 2.7, "json-povm-dims"),
            ("object_dim", "2", "json-povm-dims"),
            ("ancilla_dim", True, "json-povm-dims"),
            ("entry", [[1], 0], "json-matrix-entry"),
            ("entry", ["1.5", 0], "json-matrix-entry"),
            ("entry", [False, 0], "json-matrix-entry"),
            ("entry", [10**400, 0], "json-matrix-entry"),
        ],
    )
    def test_malformed_numbers_are_input_errors(self, capsys, tmp_path, field, value, invariant):
        obj = povm_to_json(counterexample_1()[0])
        if field == "entry":
            obj["unitary"]["data"][0] = value
        else:
            obj[field] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "povm-classify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {invariant}")


class TestFlagValidation:
    def test_rejects_bad_dim(self, capsys):
        code, out, err = run_cli(capsys, "verify-s-theorems", "--dim", "0")
        assert code == 2

    def test_rejects_bad_tol(self, capsys):
        code, out, err = run_cli(capsys, "majorization", "--tol", "-1")
        assert code == 2

    @pytest.mark.parametrize("command", ["verify-s-theorems", "holevo"])
    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_renyi_order(self, capsys, command, alpha):
        code, out, err = run_cli(capsys, command, "--trials", "2", "--entropy", f"renyi:{alpha}")
        assert code == 2
        assert out == ""
        assert err.strip() == "error: renyi requires a finite alpha > 0"

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_rejects_non_finite_tol(self, capsys, tol):
        code, out, err = run_cli(capsys, "verify-s-theorems", "--trials", "2", "--tol", tol)
        assert code == 2
        assert out == ""
        assert err.strip() == "error: --tol must be positive and finite"


def _reject_constant(name):
    raise AssertionError(f"bare {name} in a JSON report")


class TestNonFiniteValues:
    """log-det of the pure input of counterexample 1 is the -inf sentinel."""

    def test_json_spells_them_as_strings(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--which", "1", "--entropy", "log-det")
        assert code == 0
        report = json.loads(out, parse_constant=_reject_constant)
        assert report["entropy"]["before"] == "-inf"
        rows = {row["side"]: row for row in report["rows"] if row["functional"] == "log-det"}
        assert (rows["observation"]["rhs"], rows["observation"]["margin"]) == ("-inf", "-inf")
        assert (rows["decoherence"]["lhs"], rows["decoherence"]["margin"]) == ("-inf", "inf")

    def test_csv_spells_them_as_python_does(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--which", "1", "--entropy", "log-det", "--format", "csv")
        assert code == 0
        rows = {row["side"]: row for row in csv.DictReader(io.StringIO(out)) if row["functional"] == "log-det"}
        assert (rows["observation"]["rhs"], rows["observation"]["margin"]) == ("-inf", "-inf")
        assert (rows["decoherence"]["lhs"], rows["decoherence"]["margin"]) == ("-inf", "inf")


EVERY_FUNCTIONAL = ("von-neumann", "linear", "renyi:0.5", "renyi:2", "log-det", "renyi:0.1", "renyi:3")
ENTROPY_FLAGS = [flag for name in EVERY_FUNCTIONAL for flag in ("--entropy", name)]
ROW_CAMPAIGNS = [
    ["verify-s-theorems", *ENTROPY_FLAGS],
    ["majorization"],
    ["holevo", *ENTROPY_FLAGS],
]


def _run_line(argv):
    """The format and result of one command line, run without emitting."""
    args = build_parser().parse_args(argv)
    return args.fmt, _DISPATCH[args.command](_config_from_args(args))


class TestJsonWriter:
    """The JSON report is ``json.dumps(report, indent=2, allow_nan=False)`` and a newline."""

    @staticmethod
    def assert_emits_dumps(capsys, argv):
        fmt, result = _run_line(argv)
        _emit(result, fmt)
        assert capsys.readouterr().out == json.dumps(result.report, indent=2, allow_nan=False) + "\n"
        # what the writer relies on: rows come last and are flat
        assert list(result.report)[-1] == "rows"
        for row in result.report["rows"]:
            assert {type(value) for value in row.values()} <= {str, int, float, bool, type(None)}
        return result.report

    @pytest.mark.parametrize("dim", [1, 4, 16])
    @pytest.mark.parametrize("argv", ROW_CAMPAIGNS, ids=lambda argv: argv[0])
    def test_row_campaigns(self, capsys, argv, dim):
        report = self.assert_emits_dumps(capsys, [*argv, "--dim", str(dim), "--trials", "3"])
        assert report["rows"]

    @pytest.mark.parametrize("which", ["1", "2"])
    def test_counterexample_with_spelled_infinities(self, capsys, which):
        report = self.assert_emits_dumps(capsys, ["counterexample", "--which", which, "--entropy", "log-det"])
        assert "-inf" in [value for row in report["rows"] for value in row.values()]

    def test_povm_classify_with_no_rows(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(povm_to_json(counterexample_1()[0])))
        report = self.assert_emits_dumps(capsys, ["povm-classify", str(path)])
        assert report["rows"] == []

    def test_strings_that_need_escapes(self):
        awkward = ['say "hi"', "back\\slash", "line\nbreak", "},\n      {", "Rényi α→∞ 量子", "\u2028\x00\t"]
        rows = [
            {"trial": i, "functional": text, "side": text[::-1], "lhs": 0.1 * i, "rhs": -0.0, "margin": 1e-300,
             "trivial": None, "violation": bool(i % 2), "strict": 10**20}
            for i, text in enumerate(awkward)
        ]
        report = {"command": "synthetic", "flags": {"file": awkward[4]}, "summary": {"rows": len(rows)}, "rows": rows}
        out = io.StringIO()
        write_json(report, out)
        assert out.getvalue() == json.dumps(report, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_row_value_raises(self, value):
        report = {"command": "synthetic", "rows": [{"trial": 0, "lhs": 1.0}, {"trial": 1, "lhs": value}]}
        with pytest.raises(ValueError):
            write_json(report, io.StringIO())

    def test_emitting_probe_small_keeps_memory_flat(self, monkeypatch):
        # the benchmark's probe-small call: its 2,000-row report is 567 KB, so
        # one string of it alone would break the bound
        functionals = [flag for name in EVERY_FUNCTIONAL[:5] for flag in ("--entropy", name)]
        fmt, result = _run_line(["verify-s-theorems", "--dim", "4", "--trials", "200", *functionals])
        assert len(result.report["rows"]) == 2000
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                _emit(result, fmt)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 256 * 1024


class WriteLog(io.StringIO):
    """A text stream that records the length of each ``write`` call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def write(self, text):
        self.calls.append(len(text))
        return super().write(text)


class TestBlockWrites:
    """Both writers hand their stream blocks of 256 rows, one ``write`` a block, with the bytes unchanged."""

    @pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 513])
    def test_json_blocks_across_the_seams(self, count):
        rows = [{"trial": i, "functional": "linear", "margin": 0.5 * i, "strict": None} for i in range(count)]
        report = {"command": "synthetic", "summary": {"rows": count}, "rows": rows}
        out = WriteLog()
        write_json(report, out)
        assert out.getvalue() == json.dumps(report, indent=2, allow_nan=False) + "\n"
        # the head, one write a block, and the closing brackets
        assert len(out.calls) == 2 + math.ceil(count / 256)

    @pytest.mark.parametrize("trials", [1, 51, 52, 120])
    def test_csv_blocks_are_the_row_by_row_bytes(self, monkeypatch, trials):
        # five functionals make five rows a trial: 5, 255, 260 and 600 rows
        fmt, result = _run_line(["holevo", "--dim", "2", "--trials", str(trials), "--format", "csv"])
        rows = result.report["rows"]
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(campaigns.ROW_KEYS[:-1])
        trivial = {None: "", True: "true", False: "false"}
        for row in rows:
            writer.writerow([*(row[key] for key in campaigns.ROW_KEYS[:-2]), trivial[row["trivial"]]])
        out = WriteLog()
        monkeypatch.setattr(sys, "stdout", out)
        _emit(result, fmt)
        assert out.getvalue() == expected.getvalue()
        assert len(out.calls) == math.ceil(len(rows) / 256)

    def test_csv_of_no_rows_is_its_header(self, monkeypatch):
        out = WriteLog()
        monkeypatch.setattr(sys, "stdout", out)
        _emit(SimpleNamespace(report={"rows": []}), "csv")
        assert out.getvalue() == ",".join(campaigns.ROW_KEYS[:-1]) + "\n"
        assert len(out.calls) == 1


class TestDuplicateFunctionals:
    @pytest.mark.parametrize("command", ["verify-s-theorems", "holevo"])
    @pytest.mark.parametrize(
        "selectors, label",
        [(("renyi:0.5", "renyi:0.50"), "renyi:0.5"), (("log-det", "log-det"), "log-det")],
    )
    def test_selectors_sharing_a_label_exit_2(self, capsys, command, selectors, label):
        entropy_flags = [flag for name in selectors for flag in ("--entropy", name)]
        code, out, err = run_cli(capsys, command, "--trials", "1", *entropy_flags, "--format", "csv")
        assert code == 2
        assert out == ""
        assert err.strip() == f"error: duplicate entropy functional '{label}'"

    def test_library_config_rejects_them(self):
        with pytest.raises(ValueError, match="^duplicate entropy functional 'linear'$"):
            CampaignConfig("holevo", functionals=("linear", "von-neumann", " linear"))

    def test_distinct_labels_pass(self, capsys):
        code, report = run_json(capsys, "holevo", "--trials", "1", "--entropy", "renyi:0.5", "--entropy", "renyi:0.50001")
        assert code == 0
        assert report["flags"]["entropy"] == ["renyi:0.5", "renyi:0.50001"]

    @pytest.mark.parametrize(
        "selectors", [("renyi:0.5", "renyi:0.5000001"), ("renyi:0.1234567", "renyi:0.1234568")]
    )
    def test_orders_apart_past_the_sixth_digit_are_distinct(self, capsys, selectors):
        entropy_flags = [flag for name in selectors for flag in ("--entropy", name)]
        code, report = run_json(capsys, "verify-s-theorems", "--dim", "2", "--trials", "1", *entropy_flags)
        assert code == 0
        assert report["flags"]["entropy"] == list(selectors)
        assert sorted({row["functional"] for row in report["rows"]}) == sorted(selectors)

    def test_a_report_replays_from_its_labels(self, capsys):
        # renyi:1.0000001 was labelled renyi:1, an order the CLI refuses
        argv = ["verify-s-theorems", "--dim", "2", "--trials", "1", "--entropy", "renyi:1.0000001"]
        code, out, _ = run_cli(capsys, *argv)
        report = json.loads(out)
        assert code == 0
        assert report["flags"]["entropy"] == ["renyi:1.0000001"]
        assert {row["functional"] for row in report["rows"]} == {"renyi:1.0000001"}
        replayed = [flag for label in report["flags"]["entropy"] for flag in ("--entropy", label)]
        again, replay, _ = run_cli(capsys, *argv[:-2], *replayed)
        assert (again, strip_timestamp(replay)) == (code, strip_timestamp(out))


class TestCampaignConfigValidatesItself:
    @pytest.mark.parametrize(
        "command, fields, message",
        [
            ("verify-s-theorems", {"tol": math.inf}, "--tol must be positive and finite"),
            ("verify-s-theorems", {"tol": math.nan}, "--tol must be positive and finite"),
            ("majorization", {"tol": 0.0}, "--tol must be positive and finite"),
            ("verify-s-theorems", {"seed": -1}, "--seed must be >= 0"),
            ("verify-s-theorems", {"dim": 0}, "--dim must be >= 1"),
            ("majorization", {"trials": 0}, "--trials must be >= 1"),
            ("verify-s-theorems", {"response_dim": 0}, "--response-dim must be >= 1"),
            ("holevo", {"ensemble_size": 0}, "--ensemble-size must be >= 1"),
            ("counterexample", {"which": 3}, "--which must be 1 or 2"),
            ("counterexample", {}, "--which must be 1 or 2"),
            ("holevo", {"units": "furlongs"}, "--units must be nats or bits"),
            ("verify-s-theorems", {"functionals": ("renyi:1",)}, "renyi alpha = 1 is excluded; use von-neumann"),
            (
                "bogus",
                {},
                "command must be one of verify-s-theorems, majorization, counterexample, holevo, povm-classify,"
                " got 'bogus'",
            ),
        ],
    )
    def test_library_callers_get_the_cli_message(self, command, fields, message):
        with pytest.raises(ValueError) as err:
            CampaignConfig(command, **fields)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify-s-theorems", "--seed", "-1"), "--seed must be >= 0"),
            (("holevo", "--seed", "-3"), "--seed must be >= 0"),
            (("verify-s-theorems", "--dim", "0"), "--dim must be >= 1"),
            (("majorization", "--trials", "0"), "--trials must be >= 1"),
            (("verify-s-theorems", "--response-dim", "0"), "--response-dim must be >= 1"),
            (("holevo", "--ensemble-size", "0"), "--ensemble-size must be >= 1"),
            (("holevo", "--tol", "0"), "--tol must be positive and finite"),
        ],
    )
    def test_the_cli_prints_the_same_message(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.strip() == f"error: {message}"

    def test_checks_run_in_the_cli_order(self):
        order = [
            ({"functionals": ("bogus",)}, "unknown entropy functional 'bogus'"),
            ({"dim": 0}, "--dim must be >= 1"),
            ({"trials": 0}, "--trials must be >= 1"),
            ({"response_dim": 0}, "--response-dim must be >= 1"),
            ({"ensemble_size": 0}, "--ensemble-size must be >= 1"),
            ({"tol": -1.0}, "--tol must be positive and finite"),
            ({"units": "furlongs"}, "--units must be nats or bits"),
        ]
        for first in range(len(order)):
            fields = {key: value for bad, _ in order[first:] for key, value in bad.items()}
            with pytest.raises(ValueError) as err:
                CampaignConfig("holevo", **fields)
            assert str(err.value) == order[first][1]

    def test_campaigns_are_not_reached(self):
        with pytest.raises(ValueError):
            run_s_theorems(CampaignConfig("verify-s-theorems", tol=math.inf))

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_a_run_entry_refuses_a_config_of_another_subcommand(self, capsys, monkeypatch, command):
        # the report would carry the config's command over another campaign's rows
        other = CampaignConfig("verify-s-theorems" if command != "verify-s-theorems" else "holevo", dim=2, trials=2)
        message = f"the {command} campaign cannot run a {other.command} config"
        with pytest.raises(ValueError, match=f"^{message}$"):
            _DISPATCH[command](other)
        # main maps the refusal to exit 2, as it does every config error
        monkeypatch.setattr(sys.modules["decobs.cli"], "_config_from_args", lambda args: other)
        argv = {"counterexample": ["--which", "1"], "povm-classify": ["m.json"]}.get(command, [])
        code, out, err = run_cli(capsys, command, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, fields",
        [
            (("verify-s-theorems",), {}),
            (("majorization",), {}),
            (("counterexample", "--which", "2"), {"which": 2}),
            (("holevo",), {}),
            (("povm-classify", "m.json"), {"povm_file": "m.json"}),
        ],
    )
    def test_cli_defaults_are_the_config_defaults(self, argv, fields):
        cfg = _config_from_args(build_parser().parse_args(list(argv)))
        assert cfg == CampaignConfig(argv[0], **fields)


class TestEarlyClosedStdout:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_reader_taking_one_line_is_not_an_error(self, fmt):
        # the report is larger than a pipe holds, so the writer is still
        # writing when the reader closes its end
        functionals = ("von-neumann", "linear", "renyi:0.5", "renyi:2", "log-det")
        argv = ["verify-s-theorems", "--dim", "4", "--trials", "200", "--format", fmt]
        argv += [flag for name in functionals for flag in ("--entropy", name)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with subprocess.Popen(
            [sys.executable, "-m", "decobs", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            try:
                first = proc.stdout.readline()
                proc.stdout.close()
                err = proc.stderr.read()
                code = proc.wait(timeout=120)
            finally:
                if proc.poll() is None:
                    proc.kill()
        assert first
        assert err == b""
        assert code == 0


def test_counterexample_solves_at_most_five_matrices(capsys, solved):
    for which in ("1", "2"):
        solved[0] = 0
        assert main(["counterexample", "--which", which]) == 0
        assert solved[0] <= 5
    capsys.readouterr()


class TestFreezeWindow:
    """``main`` runs the campaign with the import heap frozen, and unfreezes it on every way out."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """Wrap every dispatched campaign to log the freeze count it sees in ``seen.counts``.

        A campaign raises ``seen.raises`` instead of running when that is set.
        """
        seen = SimpleNamespace(counts=[], raises=None)

        def watching(run):
            def campaign(cfg):
                seen.counts.append(gc.get_freeze_count())
                if seen.raises is not None:
                    raise seen.raises
                return run(cfg)

            return campaign

        for command, run in list(_DISPATCH.items()):
            monkeypatch.setitem(_DISPATCH, command, watching(run))
        assert gc.get_freeze_count() == 0
        return seen

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["verify-s-theorems", "--dim", "2", "--trials", "3"], 0),
            (["counterexample", "--which", "2", "--format", "csv"], 0),
            (["majorization", "--dim", "2", "--trials", "4", "--tol", "1e-30"], 1),
            (["povm-classify", "no-such-file.json"], 2),
        ],
    )
    def test_the_campaign_runs_frozen_and_main_unfreezes(self, capsys, seen, argv, code):
        assert main(argv) == code
        capsys.readouterr()
        assert len(seen.counts) == 1 and seen.counts[0] > 0
        assert gc.get_freeze_count() == 0

    def test_an_input_error_before_the_campaign_unfreezes(self, capsys, seen):
        assert main(["verify-s-theorems", "--dim", "0"]) == 2
        assert "--dim must be >= 1" in capsys.readouterr().err
        assert seen.counts == []
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("error", [RuntimeError("campaign broke"), KeyboardInterrupt()])
    def test_a_campaign_that_raises_unfreezes(self, seen, error):
        seen.raises = error
        with pytest.raises(type(error)):
            main(["holevo", "--dim", "2", "--trials", "2"])
        assert seen.counts[0] > 0
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize(
        "run,command",
        [
            (run_s_theorems, "verify-s-theorems"),
            (run_majorization, "majorization"),
            (run_holevo, "holevo"),
        ],
    )
    def test_a_library_call_never_freezes(self, monkeypatch, run, command):
        freezes, counts = [], []
        monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
        module = _campaign(command)
        plan = module.plan_chunks
        # the chunk planner runs inside every seeded campaign
        monkeypatch.setattr(module, "plan_chunks", lambda *args: counts.append(gc.get_freeze_count()) or plan(*args))
        run(CampaignConfig(command, dim=2, trials=3))
        assert freezes == [] and counts == [0]


class TestProcessEntry:
    """``command`` runs ``main`` as the module names it, then freezes the heap for teardown, whatever ``main`` does."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        return calls

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_main_then_the_freeze_then_main_s_code(self, monkeypatch, calls, code):
        # looked up in the module at call time, so the benchmark's wrapper of main is the one that runs
        monkeypatch.setattr(sys.modules["decobs.cli"], "main", lambda: calls.append("main") or code)
        assert command() == code
        assert calls == ["main", "freeze"]

    def test_a_usage_error_still_freezes(self, monkeypatch, capsys, calls):
        monkeypatch.setattr(sys, "argv", ["decobs", "no-such-command"])
        with pytest.raises(SystemExit) as exit_:
            command()
        assert exit_.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert calls == ["freeze"]
