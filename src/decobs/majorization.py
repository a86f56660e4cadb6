"""Vector majorization and spectral-dominance checks.

``lam majorizes mu`` means both sequences have the same total and every
prefix sum of lam (sorted descending) dominates the corresponding prefix sum
of mu.  For any concave h this forces sum h(lam) <= sum h(mu), which is the
engine behind every entropy inequality verified here.

Every dominance check sorts and prefix-sums each pair once, in
:func:`dominance`; the ``majorization`` campaign builds its rows from the
:class:`Dominance` results of the three stack kernels.
"""

from __future__ import annotations

import numpy as np

from . import matcore
from .records import FrozenRecord
from .stacks import pinch


def _padded_descending(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Sort both stacks descending along the last axis, zero-padding the shorter one (and empty ones to [0])."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    size = max(a.shape[-1], b.shape[-1], 1)
    a = np.concatenate((a, np.zeros(a.shape[:-1] + (size - a.shape[-1],))), axis=-1)
    b = np.concatenate((b, np.zeros(b.shape[:-1] + (size - b.shape[-1],))), axis=-1)
    return -np.sort(-a, axis=-1), -np.sort(-b, axis=-1)


class Dominance(FrozenRecord):
    """cumsum(lam) - cumsum(mu) of pairs sorted descending, read at each pair's smallest margin.

    For one pair the fields other than ``margins`` are floats; for stacks
    of pairs they are arrays of the stacks' leading shape.
    """

    __slots__ = ("margins", "worst_margin", "dominator_prefix", "dominated_prefix", "sum_residual")

    def __init__(
        self,
        margins: np.ndarray,
        worst_margin: float,
        dominator_prefix: float,  # the prefix sums of lam and mu at the smallest margin
        dominated_prefix: float,
        sum_residual: float,  # |sum lam - sum mu|, from the last prefix sums
    ):
        self._set(margins, worst_margin, dominator_prefix, dominated_prefix, sum_residual)

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
    pieces, pinched = pinch(projectors, hermitian)
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
