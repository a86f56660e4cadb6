"""Every numerical tolerance of the package, each defined once.

All are absolute.  Each entry names the residual it bounds and the checks
that read it; the modules import what they read, and no call can set one.
"""

#: Max-norm of M - M^dagger: the density, Gram and projector Hermitian checks and
#: the ``"hermitian"`` kind of ``stacks.validate_stack``; and of U^dagger U - I in
#: ``povm.Povm``.
HERMITIAN_TOL = 1e-10
#: Negative of the smallest eigenvalue: the density and Gram PSD checks.
PSD_TOL = 1e-10
#: |tr(rho) - 1|: the density unit-trace check.
TRACE_TOL = 1e-10
#: |norm - 1|: the PureState unit-norm check and the probing unit-row check.
UNIT_NORM_TOL = 1e-10
#: Max |E_ii - 1|: the Gram unit-diagonal check.
UNIT_DIAGONAL_TOL = 1e-10
#: Max-norm of P^2 - P: the projector idempotent check.
IDEMPOTENT_TOL = 1e-9
#: Max-norm of P_i P_j, i < j: the projector orthogonality check.
ORTHOGONALITY_TOL = 1e-9
#: Max-norm of sum_k P_k - I: the projector completeness check.
COMPLETENESS_TOL = 1e-9
#: |sum_k p_k - 1|: the probability-sum check of ``stacks.clean_probabilities``.
PROBABILITY_SUM_TOL = 1e-10
#: -p_k: the non-negative probability check of ``stacks.clean_probabilities``.
NEGATIVE_PROBABILITY_TOL = 1e-12
#: Branch probabilities at or below this are dead: zeroed by ``stacks.clean_probabilities``
#: and by ``stacks.normalize_branches`` (the Bayes update of ``stacks.observe_stack`` and
#: ``povm.apply_povm``), and skipped by ``entropy.expected_entropy_stack``.
ZERO_PROBABILITY = 1e-12
#: Eigenvalues at or below this are exact zeros in ``entropies_of_spectra``; log-det is -inf.
SINGULAR_EIGENVALUE = 1e-14
#: verify-s-theorems skips the log-det rows of a state whose smallest eigenvalue is below
#: this.  Being above SINGULAR_EIGENVALUE, it skips every state whose log-det is -inf;
#: merging the two would change which rows are skipped.
SINGULAR_SKIP = 1e-12
#: Distance of a spectrum entry outside [0, 1]: the entropy spectrum-range check.
SPECTRUM_RANGE_TOL = 1e-10
#: |sum lambda - 1|: the entropy spectrum-sum check.
SPECTRUM_SUM_TOL = 1e-9
#: Max |lambda_i - mu_i|: ``stacks.spectra_unchanged``, the campaigns' triviality flags.
TRIVIALITY_TOL = 1e-9
#: Slack of inequality and dominance verdicts: the ``--tol`` default and ``CampaignConfig.tol``.
INEQUALITY_TOL = 1e-9
#: Max-norm residuals in ``povm.ancilla_factors`` (purity preservation); loose: they compare products.
PPPOVM_TOL = 1e-8
#: Max-norm of an exact identity: the averaging and counterexample checks.
CONSISTENCY_TOL = 1e-12
#: Largest margin of a nontrivial entropy row that still counts as near-trivial.
NEAR_TRIVIAL_MARGIN = 1e-7
