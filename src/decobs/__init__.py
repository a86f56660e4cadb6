"""Numerical verification of entropy inequalities for decoherence and observation.

Decoherence multiplies a density matrix entrywise by an environment-response
overlap matrix and never decreases any concave entropy; observation (the
Bayes-style conditioning on a perceived outcome) never increases it on
average.  This package implements the maps, the entropy functionals, the
spectral-dominance machinery that proves the inequalities, the generalized
ancilla-dilated measurements for which they fail, and a seeded CLI harness
that verifies everything numerically.  The two maps live in
:mod:`decobs.stacks`, as kernels on stacks of states and probings
(``observe_stack``, and the Schur product with ``response_gram_stack``),
which is where the campaigns run them; they are not exported here.

The names below are loaded on first use (PEP 562), so ``import decobs``
loads no submodule and ``import decobs.cli`` loads only what a campaign
runs: the kernel modules, not the value types of :mod:`decobs.states`.
"""

from __future__ import annotations

import importlib
import sys
import types

__version__ = "0.1.0"

#: The home module of each name the package exports.
_EXPORTS = {
    "entropy": (
        "EntropyFunctional", "builtin_functionals", "entropy", "entropy_of_spectrum", "linear", "log_det",
        "parse_functional", "renyi", "to_bits", "von_neumann",
    ),
    "errors": ("ValidationError",),
    "matcore": ("hermitian_spectrum", "is_unitary", "partial_trace", "tensor_product"),
    "povm": (
        "Povm", "ancilla_factors", "apply_povm", "counterexample_1", "counterexample_2",
        "is_purity_preserving", "purify_ancilla",
    ),
    "states": ("DensityMatrix", "ProjectorSet", "PureState", "basis_state", "density_from_pure", "maximally_mixed"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOMES.keys())


class _Package(types.ModuleType):
    """The package module, whose exported names win over its submodules' names.

    Loading a submodule binds it on the package under its own name, and the
    function ``entropy`` shares its name with its module.  That binding is
    refused for exported names, so ``decobs.entropy`` is the function
    whichever module loads first.
    """

    def __setattr__(self, name: str, value) -> None:
        if not (name in _HOMES and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
