"""Concave entropy functionals S(rho) = sum_i h(lambda_i) over spectra.

Built-ins, selected by string:

* ``"von-neumann"`` -- h(x) = -x ln x, with 0 ln 0 = 0 (values in nats);
* ``"linear"`` -- h(x) = x - x^2, i.e. S = 1 - tr(rho^2).  The alternative
  normalization h(x) = 1 - x^2 differs by the constant dim - 1 on unit-trace
  spectra and satisfies the same inequalities; the conventional form is used;
* ``"renyi:<alpha>"`` -- h(x) = x^alpha for 0 < alpha < 1 and h(x) = -x^alpha
  for alpha > 1, the sign chosen so h is concave (alpha = 1 is rejected: the
  von Neumann functional covers that limit);
* ``"log-det"`` -- h(x) = ln x, returning the -inf sentinel on (numerically)
  singular spectra.

The verdict of an entropy inequality, lhs <= rhs + tol with its margin
(:func:`inequality_verdict`), is here too, beside the entropies it judges,
so that the entropy campaigns, which judge every row with it through
``campaigns._chain_rows``, load no :mod:`decobs.majorization`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import matcore
from .errors import ValidationError
from .records import FrozenRecord
from .tolerances import SINGULAR_EIGENVALUE, SPECTRUM_RANGE_TOL, SPECTRUM_SUM_TOL, ZERO_PROBABILITY

if TYPE_CHECKING:
    # annotations only: the campaigns evaluate spectra and load no value type
    from .states import DensityMatrix

#: Sentinel returned by the log-det functional on singular spectra.  Any
#: finite entropy exceeds it; comparisons with it on the smaller side of an
#: inequality pass vacuously.
NEG_INFINITY = float("-inf")

_KINDS = ("von-neumann", "linear", "renyi", "log-det")


class EntropyFunctional(FrozenRecord):
    """A concave scalar function h evaluated entrywise over a spectrum."""

    __slots__ = ("kind", "alpha")

    def __init__(self, kind: str, alpha: float | None = None):
        self._set(kind, alpha)
        if kind not in _KINDS:
            raise ValueError(f"unknown entropy kind {kind!r}")
        if kind == "renyi":
            # nan would fail every check and inf would zero every entropy
            if alpha is None or not (0.0 < alpha < math.inf):
                raise ValueError("renyi requires a finite alpha > 0")
            if alpha == 1.0:
                raise ValueError("renyi alpha = 1 is excluded; use von-neumann")
        elif alpha is not None:
            raise ValueError(f"alpha is only meaningful for renyi, not {kind!r}")

    @property
    def label(self) -> str:
        """The selector that :func:`parse_functional` reads back to this functional.

        A Rényi order is shown in ``:g`` form when that reads back to it,
        and as its ``repr`` otherwise: ``renyi:2``, but ``renyi:0.5000001``.
        """
        if self.kind == "renyi":
            short = f"{self.alpha:g}"
            return f"renyi:{short if float(short) == self.alpha else repr(self.alpha)}"
        return self.kind


def von_neumann() -> EntropyFunctional:
    return EntropyFunctional("von-neumann")


def linear() -> EntropyFunctional:
    return EntropyFunctional("linear")


def renyi(alpha: float) -> EntropyFunctional:
    return EntropyFunctional("renyi", alpha=float(alpha))


def log_det() -> EntropyFunctional:
    return EntropyFunctional("log-det")


def parse_functional(text: str | EntropyFunctional) -> EntropyFunctional:
    """Parse a selector string: von-neumann | linear | renyi:<alpha> | log-det.

    A functional is returned as it is, so a config built again from its
    parsed fields (by pickle or copy) parses them to themselves.
    """
    if isinstance(text, EntropyFunctional):
        return text
    name = text.strip()
    if name == "von-neumann":
        return von_neumann()
    if name == "linear":
        return linear()
    if name == "log-det":
        return log_det()
    if name.startswith("renyi:"):
        try:
            alpha = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad renyi parameter in {text!r}") from exc
        return renyi(alpha)
    raise ValueError(f"unknown entropy functional {text!r}")


def builtin_functionals() -> tuple[EntropyFunctional, ...]:
    """The functional set used by default in full verification campaigns."""
    return (von_neumann(), linear(), renyi(0.5), renyi(2.0), log_det())


def _check_spectra(lam: np.ndarray) -> None:
    """Raise the first failing row's ValidationError, in the scalar order."""
    if lam.shape[-1] == 0:
        raise ValidationError("spectrum-nonempty")
    finite = np.isfinite(lam).all(axis=-1)
    low = lam.min(axis=-1)
    high = lam.max(axis=-1)
    sum_residual = abs(lam.sum(axis=-1) - 1.0)
    with np.errstate(invalid="ignore"):
        failed = ~finite | (low < -SPECTRUM_RANGE_TOL) | (high > 1.0 + SPECTRUM_RANGE_TOL)
        failed |= sum_residual > SPECTRUM_SUM_TOL
    if not failed.any():
        return
    first = matcore.first_failure(failed)
    if not finite[first]:
        raise ValidationError("spectrum-finite")
    low, high = float(low[first]), float(high[first])
    if low < -SPECTRUM_RANGE_TOL or high > 1.0 + SPECTRUM_RANGE_TOL:
        residual = max(-low - SPECTRUM_RANGE_TOL, high - 1.0 - SPECTRUM_RANGE_TOL)
        raise ValidationError("spectrum-in-unit-interval", residual=residual)
    raise ValidationError("spectrum-sums-to-one", residual=float(sum_residual[first]))


def _von_neumann_rows(lam: np.ndarray) -> np.ndarray:
    """-sum x ln x over the positive entries of each row of a clamped (n, d) array.

    Each row's positive entries are summed on their own, in order, as a
    length-r array, so that numpy's pairwise summation groups them exactly as
    it does for the one-row case.  Zeros left in place would regroup the
    sum, so rows are gathered by their count r of positive entries.
    """
    positive = lam > 0.0
    rank = positive.sum(axis=-1)
    out = np.empty(lam.shape[0])
    for r in set(rank.tolist()):
        rows = rank == r
        values = lam[rows][positive[rows]].reshape(np.count_nonzero(rows), r)
        # + 0.0 normalizes the -0.0 produced by pure spectra
        out[rows] = -(values * np.log(values)).sum(axis=-1) + 0.0
    return out


def entropies_of_spectra(values, functionals) -> np.ndarray:
    """Every functional's entropy of every row of a (..., d) stack of spectra.

    Returns an array of shape (len(functionals), ...).  Row by row this is
    :func:`entropy_of_spectrum`, bit for bit: the checks and the clamping are
    the same, and each row is summed in its given order as its own 1-D
    reduction.  The checks run once for all functionals; a failing stack
    raises the error of its first failing row.
    """
    lam = np.ascontiguousarray(values, dtype=float)
    if lam.ndim == 0:
        raise ValidationError("spectrum-nonempty", detail="expected a (..., d) array")
    batch = lam.shape[:-1]
    # not reshape(-1, d), which cannot infer the row count of empty spectra
    lam = lam.reshape(math.prod(batch), lam.shape[-1])
    _check_spectra(lam)
    lam = np.clip(lam, 0.0, 1.0)
    lam = np.where(lam <= SINGULAR_EIGENVALUE, 0.0, lam)

    out = np.empty((len(functionals), lam.shape[0]))
    for row, functional in zip(out, functionals):
        if functional.kind == "von-neumann":
            row[:] = _von_neumann_rows(lam)
        elif functional.kind == "linear":
            row[:] = (lam - lam**2).sum(axis=-1)
        elif functional.kind == "renyi":
            total = (lam**functional.alpha).sum(axis=-1)
            # + 0.0 normalizes the -0.0 of alpha > 1 power sums that underflow to zero
            row[:] = total if functional.alpha < 1.0 else -total + 0.0
        else:
            singular = lam.min(axis=-1) <= SINGULAR_EIGENVALUE
            logs = np.log(np.where(singular[:, None], 1.0, lam)).sum(axis=-1)
            row[:] = np.where(singular, NEG_INFINITY, logs)
    return out.reshape((len(functionals),) + batch)


def entropy_of_spectrum(values, functional: EntropyFunctional) -> float:
    """Sum of h over a probability spectrum.

    Entries must lie in [0, 1] within SPECTRUM_RANGE_TOL (they are clamped
    to [0, 1]) and sum to 1 within SPECTRUM_SUM_TOL; otherwise
    a ValidationError is raised.  Eigenvalues at or below
    SINGULAR_EIGENVALUE (all three in :mod:`decobs.tolerances`) are exact
    zeros for every functional: steep h (the alpha < 1 power sums) would
    otherwise amplify eigensolver noise on structurally zero eigenvalues far
    beyond the working tolerances.  The log-det functional returns the -inf
    sentinel whenever such a zero is present.

    This is the one-row, one-functional case of :func:`entropies_of_spectra`.
    """
    return float(entropies_of_spectra(np.ravel(np.asarray(values, dtype=float)), (functional,))[0])


def expected_entropy_stack(probs, entropies) -> np.ndarray:
    """sum_k p_k S_k over the last axis of (..., m) probability and entropy stacks.

    Dead branches (p_k at or below the zero threshold) contribute exactly 0,
    whatever their entropy slot holds (the -inf sentinel, or nothing
    meaningful).  The terms are added in k order, one branch at a time.
    This is the expected entropy of every campaign, ``counterexample``
    included, through ``campaigns._chain_rows``.
    """
    probs = np.asarray(probs, dtype=float)
    with np.errstate(invalid="ignore"):
        terms = np.where(probs > ZERO_PROBABILITY, probs * np.asarray(entropies, dtype=float), 0.0)
    return matcore.sequential_sum(terms)


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


def entropy(rho: DensityMatrix, functional: EntropyFunctional) -> float:
    """S(rho) = sum_i h(lambda_i) over the eigenvalues of rho."""
    return entropy_of_spectrum(rho.spectrum, functional)


def to_bits(value):
    """Convert nats to bits for display, elementwise; infinities and nan pass through."""
    return value * (1.0 / math.log(2.0))
