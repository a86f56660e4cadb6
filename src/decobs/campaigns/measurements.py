"""The measurement commands: ``counterexample`` and ``povm-classify``.

Both run on the value layer (:mod:`decobs.povm` and :mod:`decobs.states`),
which this module loads and no seeded campaign does.  ``counterexample``
gets its measurement's branches as stacks
(:func:`~decobs.povm.apply_povm`), and averages and evaluates them with the
seeded campaigns' kernels: its rows are the two-link chain of
:func:`~decobs.campaigns._chain_rows`, and it reads its entropies back from
them.  ``povm-classify`` loads :mod:`decobs.serialize`, its file reader,
when it reads the file.
"""

from __future__ import annotations

import math

import numpy as np

from .. import matcore
from ..entropy import von_neumann
from ..povm import ancilla_factors, apply_povm, counterexample_1, counterexample_2, is_purity_preserving
from ..stacks import average_stack, validate_stack
from ..tolerances import CONSISTENCY_TOL
from . import CampaignConfig, CampaignResult, _base_report, _campaign_result, _chain_rows, _shown


def _exact_check(name: str, residual: float) -> dict:
    """A counterexample check: it passes when the residual is within CONSISTENCY_TOL."""
    return {"name": name, "pass": residual <= CONSISTENCY_TOL, "residual": residual}


def run_counterexample(cfg: CampaignConfig) -> CampaignResult:
    """Reproduce one fixed inequality-breaking measurement exactly.

    Hard checks (all to CONSISTENCY_TOL): branch probabilities, live branch
    states, and the von Neumann entropy jump; plus the purity-preservation
    classification and the identity of the violated side.  The selected
    functional's entropies are reported alongside; the config holds exactly
    one, since the report's entropy fields name one.  The measurement's branch
    stacks are averaged and evaluated by the seeded campaigns' kernels.
    """
    (functional,) = cfg.functionals
    vn = von_neumann()
    if cfg.which == 1:
        measurement, initial = counterexample_1()
        expected_probs = [0.5, 0.5, 0.0, 0.0]
        expected_state = np.eye(2, dtype=complex) / 2.0
        expected_purity_preserving = False
        violated_side = "observation"
        expected_before_vn, expected_jump_vn = 0.0, math.log(2.0)
    else:
        measurement, initial = counterexample_2()
        expected_probs = [0.5, 0.5]
        expected_state = np.zeros((2, 2), dtype=complex)
        expected_state[0, 0] = 1.0
        expected_purity_preserving = True
        violated_side = "decoherence"
        expected_before_vn, expected_jump_vn = math.log(2.0), 0.0

    probs, states, spectra = apply_povm(initial, measurement)
    live = probs > 0.0
    lam_avg = validate_stack(average_stack(probs[live], states[live]), "density")
    probabilities = probs.tolist()
    prob_residual = max(abs(p - e) for p, e in zip(probabilities, expected_probs))
    outcome_residual = matcore.max_abs(states[live] - expected_state)
    purity_preserving = is_purity_preserving(measurement)

    # von Neumann first, then the selected functional unless it is von Neumann
    used = [vn] if functional == vn else [vn, functional]
    sides = ("observation", "decoherence")
    columns = _chain_rows(used, range(1), probs[None], spectra, (initial.spectrum[None], lam_avg[None]), sides, cfg.tol)
    # per functional: observation (expected after <= before), then decoherence (before <= of average)
    lhs, rhs = columns["lhs"].tolist(), columns["rhs"].tolist()
    after, before, of_average = lhs[::2], rhs[::2], rhs[1::2]

    # the measured quantity on the violated side, against the initial entropy
    jump_value = after[0] if cfg.which == 1 else of_average[0]
    observed_violation = next((side for side, bad in zip(sides, columns["violation"][:2]) if bad), None)
    checks = [
        _exact_check("probabilities", prob_residual),
        _exact_check("outcome-states", outcome_residual),
        _exact_check("entropy-before", abs(before[0] - expected_before_vn)),
        _exact_check("entropy-jump", abs(jump_value - expected_jump_vn)),
        _exact_check("purity-preserving-classification", float(purity_preserving != expected_purity_preserving)),
        _exact_check("violated-side", float(observed_violation != violated_side)),
    ]

    flags = {"which": cfg.which, "entropy": functional.label, "tol": cfg.tol, "units": cfg.units}
    shown = _shown(flags, (before[-1], after[-1], of_average[-1]))
    fields = {
        "probabilities": probabilities,
        "expected_probabilities": expected_probs,
        "purity_preserving": purity_preserving,
        "expected_purity_preserving": expected_purity_preserving,
        "violated_side": violated_side,
        "entropy": {
            "functional": functional.label,
            **dict(zip(("before", "expected_after_observation", "of_average"), shown)),
        },
        "checks": checks,
    }
    checks_failed = sum(not c["pass"] for c in checks)
    return _campaign_result(cfg, flags, columns, fields, {"checks_failed": checks_failed}, checks_failed > 0, dim=2)


def run_povm_classify(cfg: CampaignConfig) -> CampaignResult:
    """Classify a measurement file as general or purity-preserving."""
    # the file reader loads json, which counterexample never needs
    from .. import serialize

    measurement = serialize.load_povm(cfg.povm_file)
    factors = ancilla_factors(measurement)
    report = _base_report(cfg, {"file": cfg.povm_file})
    if factors is None:
        report["classification"] = "general"
    else:
        report["classification"] = "purity-preserving"
        report["probing_realizable"] = "unknown"
        report["ancilla_basis"] = [serialize.matrix_to_json(v.reshape(-1, 1)) for v in factors]
    report["object_dim"] = measurement.object_dim
    report["ancilla_dim"] = measurement.ancilla_dim
    report["summary"] = {"rows": 0, "violations": 0}
    report["rows"] = []
    return CampaignResult(report, 0)
