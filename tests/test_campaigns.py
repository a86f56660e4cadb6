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


def test_only_the_samplers_read_the_trial_streams():
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
                if name == "trial_stream" and not isinstance(node, ast.FunctionDef):
                    readers.add((path.name, owner))
    assert sorted((path, owner) for path, owner in readers if not (owner or "").startswith("sample_")) == []
    assert {owner for _, owner in readers} == set(SAMPLERS)
