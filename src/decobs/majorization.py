"""Vector majorization and spectral-dominance checks.

``lam majorizes mu`` means both sequences have the same total and every
prefix sum of lam (sorted descending) dominates the corresponding prefix sum
of mu.  For any concave h this forces sum h(lam) <= sum h(mu), which is the
engine behind every entropy inequality verified here.

Every dominance check sorts and prefix-sums each pair once, in
:func:`dominance`.  Checks return a :class:`CheckReport` carrying the spectra
involved, the prefix-sum margins, the :class:`Dominance` results behind them,
and a pass flag; the ``majorization`` campaign builds its rows from those
results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .entropy import EntropyFunctional, entropy, expected_entropy
from .errors import ShapeMismatchError
from .processes import ensemble_average
from .states import DensityMatrix, GramMatrix, OutcomeEnsemble, ProjectorSet

DEFAULT_MAJORIZATION_TOL = 1e-9


def _padded_descending(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Sort both sequences descending, zero-padding the shorter one (and empty ones to [0])."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    size = max(a.size, b.size, 1)
    a = np.concatenate((a, np.zeros(size - a.size)))
    b = np.concatenate((b, np.zeros(size - b.size)))
    return -np.sort(-a), -np.sort(-b)


@dataclass(frozen=True)
class Dominance:
    """cumsum(lam) - cumsum(mu) of one pair sorted descending, read at its smallest margin."""

    margins: np.ndarray
    worst_margin: float
    dominator_prefix: float  # the prefix sums of lam and mu at the smallest margin
    dominated_prefix: float
    sum_residual: float  # |sum lam - sum mu|, from the last prefix sums

    def holds(self, tol: float) -> bool:
        """True when the totals agree within tol and every prefix margin is >= -tol."""
        return self.worst_margin >= -tol and self.sum_residual <= tol


def dominance(lam, mu) -> Dominance:
    """Sort, pad and prefix-sum one pair once; every dominance check reads its result."""
    lam, mu = _padded_descending(lam, mu)
    prefix_lam = np.cumsum(lam)
    prefix_mu = np.cumsum(mu)
    margins = prefix_lam - prefix_mu
    worst = int(np.argmin(margins))
    return Dominance(
        margins=margins,
        worst_margin=float(margins[worst]),
        dominator_prefix=float(prefix_lam[worst]),
        dominated_prefix=float(prefix_mu[worst]),
        sum_residual=abs(float(prefix_lam[-1] - prefix_mu[-1])),
    )


def prefix_margins(lam, mu) -> np.ndarray:
    """Prefix-sum differences cumsum(lam) - cumsum(mu), both sorted descending."""
    return dominance(lam, mu).margins


def majorizes(lam, mu, tol: float = DEFAULT_MAJORIZATION_TOL) -> bool:
    """True when the sums agree within tol and every prefix margin is >= -tol."""
    return dominance(lam, mu).holds(tol)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one dominance or inequality check."""

    passed: bool
    margins: tuple[float, ...]
    spectra: dict = field(default_factory=dict)
    trial: int | None = None
    note: str = ""
    #: The prefix-sum comparisons behind ``margins``, one per dominance checked.
    dominance: tuple[Dominance, ...] = ()

    def to_dict(self) -> dict:
        out = {
            "pass": self.passed,
            "margins": list(self.margins),
            "spectra": {key: list(seq) for key, seq in self.spectra.items()},
        }
        if self.trial is not None:
            out["trial"] = self.trial
        if self.note:
            out["note"] = self.note
        return out


def _dominance_report(pairs, tol: float, spectra: dict, trial: int | None) -> CheckReport:
    """Check that each (dominator, dominated) pair majorizes; margins run pair by pair."""
    checks = tuple(dominance(lam, mu) for lam, mu in pairs)
    return CheckReport(
        passed=all(check.holds(tol) for check in checks),
        margins=tuple(float(m) for check in checks for m in check.margins),
        spectra=spectra,
        trial=trial,
        dominance=checks,
    )


def check_schur_majorization(
    rho: DensityMatrix,
    env_overlap: GramMatrix,
    tol: float = DEFAULT_MAJORIZATION_TOL,
    trial: int | None = None,
) -> CheckReport:
    """Verify that the spectrum of rho dominates the spectrum of rho o E."""
    lam_rho = rho.spectrum
    lam_schur = matcore.hermitian_spectrum(matcore.schur_product(rho.mat, env_overlap.mat))
    spectra = {"rho": tuple(lam_rho), "schur_product": tuple(lam_schur)}
    return _dominance_report([(lam_rho, lam_schur)], tol, spectra, trial)


def check_pinching_double(
    hermitian: np.ndarray,
    projectors: ProjectorSet,
    tol: float = DEFAULT_MAJORIZATION_TOL,
    trial: int | None = None,
) -> CheckReport:
    """Verify the two-sided dominance around a pinching.

    The componentwise sum of the (descending, zero-padded) spectra of the
    pinched blocks P_i H P_i dominates the spectrum of H, which in turn
    dominates the spectrum of the pinched matrix sum_i P_i H P_i.

    The lower dominance holds for any Hermitian input; the upper one needs a
    positive-semidefinite input (with zero diagonal blocks, the pinched parts
    of an indefinite matrix can all vanish while the input spectrum does not).
    """
    hermitian = matcore.require_square(hermitian)
    lam = matcore.hermitian_spectrum(hermitian)
    parts = np.zeros_like(lam)
    pinched = np.zeros_like(hermitian)
    for p in projectors:
        piece = p @ hermitian @ p
        parts = parts + matcore.hermitian_spectrum(piece)
        pinched = pinched + piece
    lam_pinched = matcore.hermitian_spectrum(pinched)
    spectra = {"pinched_parts_sum": tuple(parts), "matrix": tuple(lam), "pinched": tuple(lam_pinched)}
    return _dominance_report([(parts, lam), (lam, lam_pinched)], tol, spectra, trial)


def check_fan(
    a: np.ndarray,
    b: np.ndarray,
    tol: float = DEFAULT_MAJORIZATION_TOL,
    trial: int | None = None,
) -> CheckReport:
    """Verify that lambda(A) + lambda(B) dominates lambda(A + B)."""
    a = matcore.require_square(a)
    b = matcore.require_square(b)
    if a.shape != b.shape:
        raise ShapeMismatchError("fan-same-dim", detail=f"{a.shape} vs {b.shape}")
    combined = matcore.hermitian_spectrum(a) + matcore.hermitian_spectrum(b)
    lam_sum = matcore.hermitian_spectrum(a + b)
    spectra = {"sum_of_spectra": tuple(combined), "spectrum_of_sum": tuple(lam_sum)}
    return _dominance_report([(combined, lam_sum)], tol, spectra, trial)


def entropy_gap(rhs: float, lhs: float) -> float:
    """rhs - lhs with equal infinities treated as a zero gap."""
    if rhs == lhs:
        return 0.0
    return rhs - lhs


def inequality_verdict(lhs: float, rhs: float, tol: float) -> tuple[float, bool]:
    """The margin ``entropy_gap(rhs, lhs)`` of lhs <= rhs + tol, and whether it holds."""
    return entropy_gap(rhs, lhs), bool(lhs <= rhs + tol)


def check_holevo(
    ensemble: OutcomeEnsemble,
    functional: EntropyFunctional,
    tol: float = DEFAULT_MAJORIZATION_TOL,
    trial: int | None = None,
) -> CheckReport:
    """Verify that the average branch entropy never exceeds the entropy of the
    average state."""
    average = ensemble_average(ensemble)
    margin, passed = inequality_verdict(expected_entropy(ensemble, functional), entropy(average, functional), tol)
    return CheckReport(
        passed=passed,
        margins=(margin,),
        spectra={"average": tuple(average.spectrum)},
        trial=trial,
        note=functional.label,
    )


def entropy_from_majorization_consistency(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    functional: EntropyFunctional,
    tol: float = DEFAULT_MAJORIZATION_TOL,
    trial: int | None = None,
) -> CheckReport:
    """When lambda(rho1) dominates lambda(rho2), the entropies must order the
    other way; incomparable spectra produce a no-claim report."""
    spectra = {"rho1": tuple(rho1.spectrum), "rho2": tuple(rho2.spectrum)}
    if not majorizes(rho1.spectrum, rho2.spectrum, tol):
        return CheckReport(passed=True, margins=(), spectra=spectra, trial=trial, note="not comparable")
    margin, passed = inequality_verdict(entropy(rho1, functional), entropy(rho2, functional), tol)
    return CheckReport(
        passed=passed,
        margins=(margin,),
        spectra=spectra,
        trial=trial,
        note=functional.label,
    )
