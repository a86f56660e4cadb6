"""The exception type for structural validation failures.

Every failure is one ``ValidationError``, named by the invariant it violates
(``"hermitian"``, ``"projectors-same-dim"``, ...) and, where it makes sense,
carrying the measured residual, so randomized campaigns can report what failed
and by how much, and callers tell failures apart by ``invariant``.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """An input violates a structural invariant."""

    def __init__(self, invariant: str, residual: float | None = None, detail: str = ""):
        self.invariant = invariant
        self.residual = residual
        msg = invariant
        if residual is not None:
            msg = f"{msg} (residual {residual:.3e})"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)
