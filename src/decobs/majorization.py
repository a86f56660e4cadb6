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

from . import matcore, processes
from .errors import ShapeMismatchError
from .states import DensityMatrix, GramMatrix, ProjectorSet

DEFAULT_MAJORIZATION_TOL = 1e-9


def _padded_descending(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Sort both stacks descending along the last axis, zero-padding the shorter one (and empty ones to [0])."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    size = max(a.shape[-1], b.shape[-1], 1)
    a = np.concatenate((a, np.zeros(a.shape[:-1] + (size - a.shape[-1],))), axis=-1)
    b = np.concatenate((b, np.zeros(b.shape[:-1] + (size - b.shape[-1],))), axis=-1)
    return -np.sort(-a, axis=-1), -np.sort(-b, axis=-1)


@dataclass(frozen=True)
class Dominance:
    """cumsum(lam) - cumsum(mu) of pairs sorted descending, read at each pair's smallest margin.

    For one pair the fields other than ``margins`` are floats; for stacks
    of pairs they are arrays of the stacks' leading shape.
    """

    margins: np.ndarray
    worst_margin: float
    dominator_prefix: float  # the prefix sums of lam and mu at the smallest margin
    dominated_prefix: float
    sum_residual: float  # |sum lam - sum mu|, from the last prefix sums

    def holds(self, tol: float):
        """True when the totals agree within tol and every prefix margin is >= -tol (per pair)."""
        return (self.worst_margin >= -tol) & (self.sum_residual <= tol)


def dominance(lam, mu) -> Dominance:
    """Sort, pad and prefix-sum pairs once; every dominance check reads its result.

    ``lam`` and ``mu`` are sequences, or (..., n) and (..., m) stacks whose
    pairs run along the last axis; each pair is sorted, padded and summed
    as it would be alone.
    """
    lam, mu = _padded_descending(lam, mu)
    prefix_lam = np.cumsum(lam, axis=-1)
    prefix_mu = np.cumsum(mu, axis=-1)
    margins = prefix_lam - prefix_mu
    worst = np.argmin(margins, axis=-1)[..., None]
    fields = [
        np.take_along_axis(values, worst, axis=-1)[..., 0] for values in (margins, prefix_lam, prefix_mu)
    ]
    fields.append(abs(prefix_lam[..., -1] - prefix_mu[..., -1]))
    if margins.ndim == 1:
        fields = [float(value) for value in fields]
    return Dominance(margins, *fields)


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
    #: The prefix-sum comparisons behind ``margins``, one per dominance checked.
    dominance: tuple[Dominance, ...] = ()


def _dominance_report(checks, tol: float, spectra: dict, trial: int | None) -> CheckReport:
    """The report of single-pair dominance checks; margins run check by check."""
    return CheckReport(
        passed=all(check.holds(tol) for check in checks),
        margins=tuple(float(m) for check in checks for m in check.margins),
        spectra=spectra,
        trial=trial,
        dominance=tuple(checks),
    )


def schur_dominance(lam_rho, schur) -> tuple[np.ndarray, Dominance]:
    """The spectra of Schur products rho o E and the dominance of the spectra of rho over them.

    ``lam_rho`` holds the spectra of the states, (..., d), and ``schur``
    the products, (..., d, d).
    """
    lam_schur = matcore.hermitian_spectrum(schur)
    return lam_schur, dominance(lam_rho, lam_schur)


def pinching_dominance(lam, hermitian, projectors) -> tuple[np.ndarray, np.ndarray, Dominance, Dominance]:
    """Both dominances around the pinchings of (..., d, d) matrices with spectra ``lam``.

    ``projectors`` is a (..., k, d, d) stack of families whose dead slots are
    all-zero matrices.  Returns the componentwise sums of the spectra of the
    pinched pieces P_k H P_k (added left to right over the live slots), the
    spectra of the pinched matrices, and the dominances parts >= lam (upper)
    and lam >= pinched (lower).
    """
    pieces, pinched = processes.pinch(projectors, hermitian)
    live = np.asarray(projectors).any(axis=(-2, -1))
    piece_spectra = np.zeros(pieces.shape[:-1])
    piece_spectra[live] = matcore.hermitian_spectrum(pieces[live])
    del pieces
    parts = matcore.sequential_sum(piece_spectra.swapaxes(-1, -2))
    lam_pinched = matcore.hermitian_spectrum(pinched)
    return parts, lam_pinched, dominance(parts, lam), dominance(lam, lam_pinched)


def fan_dominance(a, b) -> tuple[np.ndarray, np.ndarray, Dominance]:
    """lambda(A) + lambda(B), lambda(A + B) and the dominance of the first over the second.

    ``a`` and ``b`` are Hermitian (..., d, d) stacks of the same shape; the
    three spectra of each pair come from one solve, in the order A, B, A + B.
    """
    spectra = matcore.hermitian_spectrum(np.stack((a, b, a + b), axis=-3))
    combined = spectra[..., 0, :] + spectra[..., 1, :]
    lam_sum = spectra[..., 2, :]
    return combined, lam_sum, dominance(combined, lam_sum)


def check_schur_majorization(
    rho: DensityMatrix,
    env_overlap: GramMatrix,
    tol: float = DEFAULT_MAJORIZATION_TOL,
    trial: int | None = None,
) -> CheckReport:
    """Verify that the spectrum of rho dominates the spectrum of rho o E."""
    lam_schur, check = schur_dominance(rho.spectrum, matcore.schur_product(rho.mat, env_overlap.mat))
    spectra = {"rho": tuple(rho.spectrum), "schur_product": tuple(lam_schur)}
    return _dominance_report([check], tol, spectra, trial)


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
    parts, lam_pinched, upper, lower = pinching_dominance(lam, hermitian, np.array(projectors.projectors))
    spectra = {"pinched_parts_sum": tuple(parts), "matrix": tuple(lam), "pinched": tuple(lam_pinched)}
    return _dominance_report([upper, lower], tol, spectra, trial)


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
    combined, lam_sum, check = fan_dominance(a, b)
    spectra = {"sum_of_spectra": tuple(combined), "spectrum_of_sum": tuple(lam_sum)}
    return _dominance_report([check], tol, spectra, trial)


def entropy_gap(rhs, lhs):
    """rhs - lhs, elementwise, with equal infinities treated as a zero gap.

    Floats give a float; arrays give an array.
    """
    rhs, lhs = np.asarray(rhs, dtype=float), np.asarray(lhs, dtype=float)
    # -inf - -inf is nan, and warns, before the mask replaces it
    with np.errstate(invalid="ignore"):
        gap = np.where(rhs == lhs, 0.0, rhs - lhs)
    return gap if gap.ndim else float(gap)


def inequality_verdict(lhs, rhs, tol: float):
    """The margin ``entropy_gap(rhs, lhs)`` of lhs <= rhs + tol, and whether it holds, elementwise."""
    holds = np.asarray(lhs, dtype=float) <= np.asarray(rhs, dtype=float) + tol
    return entropy_gap(rhs, lhs), (holds if holds.ndim else bool(holds))
