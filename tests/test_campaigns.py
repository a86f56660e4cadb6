"""The samplers of the seeded campaigns: the only readers of the trial streams.

A sampler draws a chunk of trials, each from its own stream (seed, t).  So
drawing a chunk must give, bit for bit, the one-trial draws of its trials
stacked in order, wherever the chunk starts and however long it is.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from decobs import campaigns
from decobs.cli import CampaignConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "decobs"
SAMPLERS = ("sample_holevo", "sample_luders", "sample_majorization", "sample_s_theorems")
DIMS = (1, 2, 5, 8)


def _cases():
    cases = []
    for dim in DIMS:
        for response_dim in (1, dim + 3):
            cases.append(("verify-s-theorems", {"dim": dim, "response_dim": response_dim}))
            cases.append(("majorization", {"dim": dim, "response_dim": response_dim}))
        for ensemble_size in (None, 3):
            cases.append(("holevo", {"dim": dim, "ensemble_size": ensemble_size}))
        cases.append(("luders-equiv", {"dim": dim}))
    return [pytest.param(command, fields, id="-".join([command, *map(str, fields.values())])) for command, fields in cases]


SAMPLER_OF = {
    "verify-s-theorems": "sample_s_theorems",
    "majorization": "sample_majorization",
    "holevo": "sample_holevo",
    "luders-equiv": "sample_luders",
}


@pytest.mark.parametrize("command,fields", _cases())
def test_a_chunk_draws_its_trials_one_at_a_time(command, fields):
    sample = getattr(campaigns, SAMPLER_OF[command])
    cfg = CampaignConfig(command, seed=7 * fields["dim"], **fields)
    chunk = range(3, 10)
    drawn = sample(cfg, chunk)
    alone = [sample(cfg, range(t, t + 1)) for t in chunk]
    assert len(drawn) == len(alone[0])
    for value, parts in zip(drawn, zip(*alone)):
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, np.concatenate(parts))
        else:
            # block sizes: one tuple per trial
            assert value == sum(parts, [])


def readers_of(target: str) -> set[tuple[str, str | None]]:
    """(module file, enclosing top-level function or None) for every read of ``target`` in the package."""
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
                if name == target and not isinstance(node, ast.FunctionDef):
                    readers.add((path.name, owner))
    return readers


def test_only_the_samplers_read_the_trial_streams():
    readers = readers_of("trial_streams")
    assert sorted((path, owner) for path, owner in readers if not (owner or "").startswith("sample_")) == []
    assert {owner for _, owner in readers} == set(SAMPLERS)
    # numpy's one-stream construction is the seeder's oracle, read by tests only
    assert readers_of("trial_stream") == set()


def _row_columns(with_entropy_columns: bool) -> dict:
    """Six rows of columns as the evaluators return them; the entropy ones carry trivial and strict."""
    columns = {
        "trial": np.array([0, 0, 1, 1, 2, 2]),
        "functional": np.array(["von-neumann", "renyi:2"] * 3),
        "side": np.array(["observation", "decoherence"] * 3),
        "lhs": np.array([0.5, 0.25, np.inf, 1.0, 0.0, 2.0]),
        "rhs": np.array([0.75, 0.25, 1.0, np.nan, 0.0, 1.0]),
        "margin": np.array([0.25, 0.0, -np.inf, np.nan, 0.0, -1.0]),
        "violation": np.array([False, False, True, False, False, True]),
    }
    if with_entropy_columns:
        columns["trivial"] = np.array([False, True, False, False, True, False])
        columns["strict"] = np.array([True, None, None, False, None, None], dtype=object)
    return columns


@pytest.mark.parametrize("dim", [None, 2])
@pytest.mark.parametrize("entropy_columns", [True, False], ids=["strict", "plain"])
def test_rows_have_the_row_keys_in_order_and_python_values(dim, entropy_columns):
    cfg = CampaignConfig("holevo", dim=5)
    columns = _row_columns(entropy_columns)
    rows = campaigns._campaign_result(cfg, {"units": "nats"}, columns, dim=dim).report["rows"]
    assert len(rows) == 6
    strict = columns["strict"].tolist() if entropy_columns else [None] * 6
    for row, trial, expected_strict in zip(rows, columns["trial"].tolist(), strict):
        if expected_strict is None:
            assert tuple(row) == campaigns.ROW_KEYS
        else:
            assert tuple(row) == (*campaigns.ROW_KEYS, "strict")
            assert row["strict"] is expected_strict
        assert row["trial"] == trial and row["dim"] == (5 if dim is None else dim)
        # exact types: numpy's float64 and str_ subclass float and str
        assert {type(value) for value in row.values()} <= {int, float, str, bool, type(None)}
        assert (row["trivial"] is None) != entropy_columns
    # a non-finite value is spelled as a string
    assert [rows[2]["lhs"], rows[3]["rhs"], rows[2]["margin"]] == ["inf", "nan", "-inf"]
