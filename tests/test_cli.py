import json
import math
import re

import pytest

from decobs.cli import main
from decobs.povm import counterexample_1, counterexample_2, probing_as_povm
from decobs.serialize import povm_to_json
from decobs.states import basis_state

LN2 = math.log(2.0)


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
        # the label keeps 6 significant digits; the rows and the entropy block use the full order
        code, report = run_json(capsys, "counterexample", "--which", "2", "--entropy", "renyi:0.1234567891")
        assert code == 0
        renyi_rows = {row["side"]: row for row in report["rows"] if row["functional"] == "renyi:0.123457"}
        assert renyi_rows["decoherence"]["lhs"] == report["entropy"]["before"]
        assert renyi_rows["observation"]["lhs"] == report["entropy"]["expected_after_observation"]
        assert renyi_rows["decoherence"]["rhs"] == report["entropy"]["of_average"]

    def test_rejects_more_than_one_entropy(self, capsys):
        code, out, err = run_cli(capsys, "counterexample", "--which", "1", "--entropy", "linear", "--entropy", "renyi:2")
        assert code == 2
        assert out == ""
        assert err.strip() == "error: counterexample takes at most one --entropy"

    def test_bits_display(self, capsys):
        code, report = run_json(capsys, "counterexample", "--which", "1", "--units", "bits")
        assert code == 0
        assert report["entropy"]["expected_after_observation"] == pytest.approx(1.0, abs=1e-12)


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


class TestLudersCommand:
    def test_campaign_passes(self, capsys):
        code, report = run_json(capsys, "luders-equiv", "--dim", "6", "--trials", "20", "--seed", "8")
        assert code == 0
        assert report["summary"]["violations"] == 0
        for row in report["rows"]:
            assert row["lhs"] <= 1e-12


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

    def test_probing_export_classifies_purity_preserving(self, capsys, tmp_path):
        measurement = probing_as_povm([basis_state(2, 0), basis_state(2, 1)])
        path = tmp_path / "probing.json"
        path.write_text(json.dumps(povm_to_json(measurement)))
        code, report = run_json(capsys, "povm-classify", str(path))
        assert code == 0
        assert report["classification"] == "purity-preserving"

    def test_parse_error_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        code, out, err = run_cli(capsys, "povm-classify", str(path))
        assert code == 2
        assert "line" in err

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
