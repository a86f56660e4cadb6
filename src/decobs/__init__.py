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
which is where the campaigns run them.

The package root defines only ``__version__`` and exports no other name:
import each name from its module (``from decobs.entropy import entropy``).
So ``import decobs`` loads no submodule, and ``import decobs.cli`` loads
only what a campaign runs: the kernel modules, not the value types of
:mod:`decobs.states`.
"""

__version__ = "0.1.0"
