"""The samplers and evaluators of the seeded campaigns.

A sampler draws a chunk of trials, each from its own stream (seed, t).  So
drawing a chunk must give, bit for bit, the one-trial draws of its trials
stacked in order, wherever the chunk starts and however long it is.  The
samplers are the only readers of the trial streams.  An evaluator takes the
stacks it checks as an argument, so hard inputs built by hand (pure states,
trivial probings, one-state mixtures) go through the campaign's own checks.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decobs import campaigns, sampling
from decobs.cli import CampaignConfig
from decobs.entropy import parse_functional
from decobs.errors import ValidationError
from decobs.stacks import block_projectors
from decobs.tolerances import CONSISTENCY_TOL

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "decobs"
SAMPLERS = ("sample_holevo", "sample_majorization", "sample_s_theorems")
EVALUATORS = ("evaluate_holevo", "evaluate_majorization", "evaluate_s_theorems")
#: The config fields that size a campaign's draws; an evaluator reads its shapes from its stacks instead.
DRAW_FIELDS = {"dim", "response_dim", "ensemble_size", "trials", "seed"}
FUNCTIONALS = ("von-neumann", "linear", "renyi:0.5", "renyi:2", "log-det")
DIMS = (1, 2, 5, 8)


def _cases():
    cases = []
    for dim in DIMS:
        for response_dim in (1, dim + 3):
            cases.append(("verify-s-theorems", {"dim": dim, "response_dim": response_dim}))
            cases.append(("majorization", {"dim": dim, "response_dim": response_dim}))
        for ensemble_size in (None, 3):
            cases.append(("holevo", {"dim": dim, "ensemble_size": ensemble_size}))
    return [pytest.param(command, fields, id="-".join([command, *map(str, fields.values())])) for command, fields in cases]


SAMPLER_OF = {
    "verify-s-theorems": "sample_s_theorems",
    "majorization": "sample_majorization",
    "holevo": "sample_holevo",
}
COMMAND_OF = {
    "evaluate_s_theorems": "verify-s-theorems", "evaluate_majorization": "majorization", "evaluate_holevo": "holevo",
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


def readers_of(target: str) -> set[tuple[str, str | None]]:
    """(module file, enclosing top-level function or None) for every read of ``target`` in the package."""
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
                if name == target and not isinstance(node, ast.FunctionDef):
                    readers.add((path.name, owner))
    return readers


def test_only_the_samplers_read_the_trial_streams():
    readers = readers_of("trial_streams")
    assert sorted((path, owner) for path, owner in readers if not (owner or "").startswith("sample_")) == []
    assert {owner for _, owner in readers} == set(SAMPLERS)
    # numpy's one-stream construction is the seeder's oracle, read by tests only
    assert readers_of("trial_stream") == set()


@pytest.mark.parametrize("kernel", ["entropies_of_spectra", "expected_entropy_stack", "inequality_verdict"])
def test_only_the_chain_kernel_computes_and_judges_entropy_rows(kernel):
    # every entropy row is a link of one chain, so expected entropy and the verdict have one implementation
    owners = {owner for path, owner in readers_of(kernel) if path == "campaigns.py"}
    # None is the module's import of the kernel
    assert owners == {None, "_chain_rows"}


def test_each_evaluator_is_a_module_function_that_reads_only_its_stacks():
    tops = {
        top.name: top for top in ast.parse((PACKAGE / "campaigns.py").read_text()).body
        if isinstance(top, ast.FunctionDef)
    }
    assert set(EVALUATORS) <= set(tops)
    for name, top in tops.items():
        nested = [node.name for node in ast.walk(top) if isinstance(node, ast.FunctionDef) and node is not top]
        assert nested == [], name
    for name in EVALUATORS:
        nodes = list(ast.walk(tops[name]))
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        assert "trial_streams" not in names | attributes, name
        assert [read for read in names | attributes if read.startswith("sample_")] == [], name
        assert attributes & DRAW_FIELDS == set(), name


def _normals(seed: int, *shape: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(shape)


def test_pure_states_skip_log_det_and_keep_their_spectrum_when_observed():
    psi = sampling.pure_from_normals(_normals(1, 3, 2 * 4), 4)
    rho = psi[:, :, None] * psi[:, None, :].conj()
    probe = sampling.probing_from_normals(_normals(2, 3, 2 * 4 * 4), 4, 4)
    cfg = CampaignConfig("verify-s-theorems", functionals=FUNCTIONALS)
    # the evaluator's rows come judged: margin, violation and strict
    columns, skipped, residual = campaigns.evaluate_s_theorems(cfg, range(3), (rho, probe))
    # every state is singular, so each trial's log-det rows are skipped
    assert skipped == 3
    assert parse_functional("log-det").label not in columns["functional"]
    assert len(columns["trial"]) == 3 * (len(FUNCTIONALS) - 1) * 2
    # a pure state's branches are pure, so its observation rows are trivial and carry no strictness
    observation = columns["side"] == "observation"
    assert columns["trivial"][observation].all()
    assert set(columns["strict"][observation].tolist()) == {None}
    assert not columns["violation"].any()
    assert (columns["margin"] >= -cfg.tol).all()
    assert residual <= CONSISTENCY_TOL


def test_a_one_column_probing_leaves_every_state_as_it_was():
    trials, dim = 4, 5
    rho = sampling.density_from_normals(_normals(3, trials, 2 * dim * dim), dim)
    # the config's sizes are not the stacks'; the evaluator reads the stacks'
    cfg = CampaignConfig("verify-s-theorems", dim=2, response_dim=3, functionals=FUNCTIONALS)
    columns, skipped, residual = campaigns.evaluate_s_theorems(cfg, range(trials), (rho, np.ones((trials, dim, 1))))
    assert skipped == 0
    assert len(columns["trial"]) == trials * len(FUNCTIONALS) * 2
    assert columns["trivial"].all()
    assert set(columns["strict"].tolist()) == {None}
    assert not columns["violation"].any()
    # the Gram matrix is all ones, and rho times 1 is rho bit for bit
    decoherence = columns["side"] == "decoherence"
    assert np.array_equal(columns["lhs"][decoherence], columns["rhs"][decoherence])
    assert (columns["margin"][decoherence] == 0.0).all()
    assert residual <= CONSISTENCY_TOL


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16])
def test_luders_measurements_pass_the_s_theorems_rows(dim, seed):
    """A Lüders measurement by a diagonal partition is the probing whose rows are block indicators.

    Its observation rows are the Groenewold-Lindblad inequality
    S(rho) >= sum_k p_k S(P_k rho P_k / p_k), and its decoherence rows say that
    pinching does not lower entropy.  No campaign draws these 0/1 probings,
    so they go through the s-theorems evaluator here.  Each probing has dim
    columns, so a partition into fewer blocks leaves dead branches.
    """
    trials = 12 if dim < 16 else 6
    rng = np.random.default_rng(seed)
    rho = sampling.density_from_normals(_normals(seed + 100, trials, 2 * dim * dim), dim)
    partitions = [sampling.random_block_sizes(dim, rng) for _ in range(trials)]
    probe = block_projectors(partitions, dim, dim).diagonal(axis1=-2, axis2=-1).swapaxes(-1, -2)
    cfg = CampaignConfig("verify-s-theorems", functionals=FUNCTIONALS)
    columns, skipped, residual = campaigns.evaluate_s_theorems(cfg, range(trials), (rho, probe))
    assert skipped == 0
    assert len(columns["trial"]) == trials * len(FUNCTIONALS) * 2
    assert not columns["violation"].any()
    # the branch average is the pinching, and the Schur form masks rho with the same 0/1 pattern
    assert residual <= CONSISTENCY_TOL
    # a partition into one block is the trivial probing: both of its trial's rows keep the spectrum
    one_block = [t for t, sizes in enumerate(partitions) if len(sizes) == 1]
    assert columns["trivial"][np.isin(columns["trial"], one_block)].all()
    # and the draws hold partitions into several blocks wherever the dim has them
    assert dim == 1 or len(one_block) < trials


def test_a_one_state_mixture_has_no_holevo_gap():
    trials, dim = range(40, 44), 3
    states = sampling.density_from_normals(_normals(4, len(trials), 2 * dim * dim), dim)
    sizes = np.ones(len(trials), dtype=int)
    probs = np.zeros((len(trials), 3))
    probs[:, 0] = 1.0
    cfg = CampaignConfig("holevo", dim=7, ensemble_size=2, functionals=FUNCTIONALS)
    columns = campaigns.evaluate_holevo(cfg, trials, (sizes, probs, states))
    assert np.array_equal(columns["lhs"], columns["rhs"])
    assert columns["trial"].tolist() == [t for t in trials for _ in FUNCTIONALS]
    assert (columns["margin"] == 0.0).all()
    assert not columns["violation"].any()
    # holevo rows have no triviality, so no strictness either
    assert "trivial" not in columns and "strict" not in columns


#: The functionals whose rows have closed forms in the matrix entries: linear (h = x - x^2)
#: and renyi:alpha for alpha = 2, 3, 4 (h = -x^alpha).
POWER_SUMS = ("linear", "renyi:2", "renyi:3", "renyi:4")
#: The unit roundoff of float64.
U = 2.0**-53


def _closed_form_bound(functional: str, dim: int, outcomes: int, formed: float, summed: float, reference: float):
    """The bound on a row's distance from its closed form, as derived in the s-theorems test below."""
    def entropy(a):
        if functional == "linear":
            return 3 * a + 2 * dim + 3
        return parse_functional(functional).alpha * (a + 1) + dim + 1

    return U * (entropy(0) + entropy(formed) + summed + 1 + reference + 2 * (outcomes + 2))


def _trace_power(mats: np.ndarray, alpha: int) -> np.ndarray:
    """tr M^alpha of each matrix of a (..., d, d) stack, from alpha - 1 matrix products."""
    power = mats
    for _ in range(alpha - 1):
        power = power @ mats
    return power.trace(axis1=-2, axis2=-1).real


def _trace_power_error(dim: int, alpha: int) -> float:
    """The rounding, in units of u, of one ``_trace_power`` of a d x d density matrix (derived below)."""
    return (alpha - 1) * math.sqrt(2.0) * (dim + 2) + dim - 1


def _fsums(terms: np.ndarray) -> np.ndarray:
    """The correctly rounded sum of each trial's terms (the first axis is the trial)."""
    return np.array([math.fsum(trial.ravel().tolist()) for trial in terms])


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("response", ["1", "2", "d"])
def test_power_sum_s_theorems_rows_equal_their_closed_forms(dim, response):
    """The linear and renyi:alpha margins equal formulas in the entries of rho and S, with no eigensolve.

    With W_ik = |S_ik|^2, p_k = sum_i rho_ii W_ik, the branches
    rho_k = rho_ij S_ik S_jk^* / p_k and the Gram matrix G = S S^dagger:
    - decoherence: S(rho o G) - S(rho) = sum_ij |rho_ij|^2 (1 - |G_ij|^2);
    - observation: S(rho) - sum_k p_k S(rho_k) = sum_ij |rho_ij|^2 (sum_k W_ik W_jk / p_k - 1).
    The linear forms also need sum_k W_ik = 1, which the draws hold to rounding.
    For alpha = 3 and 4 the margins are tr rho^alpha - tr (rho o G)^alpha and
    sum_k p_k tr rho_k^alpha - tr rho^alpha, each trace taken from alpha - 1
    matrix products.

    The bound, in units of u = 2^-53, to first order in u.  Every matrix a row
    solves is a density matrix M, so ||M||_2 <= ||M||_F <= 1 and tr M = 1, and
    every entropy here lies in [-1, 1].  No drawn matrix has an eigenvalue near
    the entropy kernel's 1e-14 clamp, whose jump the bound leaves out.
    - Forming M.  Each entry is off by at most a u |M_ij|: a = 0 for the drawn
      state; a = d + 7 for a branch (p_k is a d-term dot, plus two complex
      products, each sqrt(2) gamma_2 by Higham's complex lemma, and a division); a =
      sqrt(2) (m + 4) for rho o G (G_ij is an m-term complex dot of unit rows).
      So ||dM||_F <= a u, and |tr dM| <= a u.
    - Solving M.  LAPACK's Hermitian solvers return the eigenvalues of M + E
      with ||E||_2 <= p(d) u ||M||_2, and its Users' Guide (section 4.7) takes
      p(d) = 1.  By Weyl's inequality each eigenvalue moves by delta <= (a + 1) u.
    - Through h'.  The sum of h(x) = -x^2 moves by at most sum_i |h'(xi_i)| delta
      = 2 sum_i xi_i delta ~ 2 (a + 1) u.  The x part of linear entropy sums to
      the trace, which moves by |tr dM| + |tr E| <= (a + d) u, so linear entropy
      moves by at most (3 a + d + 2) u.  For h(x) = -x^alpha, h'(x) = -alpha
      x^(alpha - 1) and x^(alpha - 1) <= x on [0, 1], so the sum moves by at
      most alpha sum_i xi_i delta ~ alpha (a + 1) u: 3 (a + 1) u for alpha = 3
      and 4 (a + 1) u for alpha = 4.
    - Summing.  Higham's |fl(sum x_i) - sum x_i| <= gamma_{n-1} sum |x_i|
      gives (d + 1) u for an entropy with its h evaluations (x^2 is rounded
      once, and libm's pow, which x^3 and x^4 go through, to within one ulp,
      2 u); m + d for the expected entropy, whose weights p_k are d-term dots;
      1 for the margin.
    - The reference, alpha = 2 and linear.  Its terms carry (m + d + 20) u
      (observation) and (3 m + 14) u (decoherence) of rounding in all, as
      sum_ij |rho_ij|^2 sum_k W_ik W_jk / p_k = sum_k p_k tr rho_k^2 <= 1 and
      sum_ij |rho_ij|^2 <= 1; ``math.fsum`` rounds their sum once, adding 1.
    - The reference, alpha = 3 and 4.  One trace tr M^alpha of a density
      matrix M carries c = (alpha - 1) sqrt(2) (d + 2) + d - 1: each product
      fl(P M) = P M + F has |F| <= sqrt(2) gamma_{d+2} |P| |M| (complex
      d-term dots), so |tr(F M^r)| <= ||F||_F ||M^r||_F <= sqrt(2) (d + 2) u,
      as ||P||_F, ||M||_F <= 1; the d diagonal entries, which sum to about
      tr M^alpha <= 1, add d - 1.  An error dM in forming M moves the trace by
      alpha |tr(M^(alpha - 1) dM)| <= alpha ||dM||_F.  The test forms rho o G
      as the campaign does, to sqrt(2) (m + 4), and each branch to d + 10
      (W_ik is |S_ik| squared, 3; p_k a d-term dot of them, d + 3; two
      complex products, 4 sqrt(2); a division, 1).  So decoherence carries
      2 c + alpha sqrt(2) (m + 4) + 1 (the subtraction), and observation
      2 c + alpha (d + 10) + d + 4 (each weight p_k times its trace, d + 4,
      and ``math.fsum``, 1).  Here 2 c is 4 sqrt(2) (d + 2) + 2 d - 2 for
      alpha = 3 and 6 sqrt(2) (d + 2) + 2 d - 2 for alpha = 4.
    - The normalizations.  A probing row, divided by its computed norm, has
      squared norm 1 within 2 (m + 2) u, and the linear forms inherit that;
      the alpha = 3 and 4 references use no such identity, so for them this
      term is slack.
    So an entropy is off by at most (3 a + 2 d + 3) u (linear) or
    (alpha (a + 1) + d + 1) u (renyi:alpha), and a row by the sum of its two
    entropies and the rest.  Higham is *Accuracy and Stability of Numerical
    Algorithms*, chapters 3 and 4.
    """
    m = {"1": 1, "2": 2, "d": dim}[response]
    cfg = CampaignConfig("verify-s-theorems", seed=100 * dim + m, dim=dim, response_dim=m, functionals=POWER_SUMS)
    trials = range(8 if dim <= 16 else 3)
    rho, probe = campaigns.sample_s_theorems(cfg, trials)
    columns, _, _ = campaigns.evaluate_s_theorems(cfg, trials, (rho, probe))

    weights = np.abs(probe) ** 2
    probs = np.einsum("nii,nik->nk", rho, weights).real
    gram = probe @ probe.conj().swapaxes(-1, -2)
    squares = np.abs(rho) ** 2
    quadratic = {
        "decoherence": _fsums(squares * (1.0 - np.abs(gram) ** 2)),
        "observation": _fsums(squares * (np.einsum("nik,njk,nk->nij", weights, weights, 1.0 / probs) - 1.0)),
    }
    closed, references = {}, {}
    for label in ("linear", "renyi:2"):
        for side, reference in (("decoherence", 3 * m + 15), ("observation", m + dim + 21)):
            closed[label, side], references[label, side] = quadratic[side], reference
    masks = probe.swapaxes(-1, -2)[:, :, :, None] * probe.swapaxes(-1, -2).conj()[:, :, None, :]
    branches = rho[:, None] * masks / probs[:, :, None, None]
    for alpha in (3, 4):
        label, c = f"renyi:{alpha}", _trace_power_error(dim, alpha)
        own = _trace_power(rho, alpha)
        closed[label, "decoherence"] = own - _trace_power(rho * gram, alpha)
        closed[label, "observation"] = _fsums(np.concatenate([probs * _trace_power(branches, alpha), -own[:, None]], 1))
        references[label, "decoherence"] = 2 * c + alpha * math.sqrt(2.0) * (m + 4) + 1
        references[label, "observation"] = 2 * c + alpha * (dim + 10) + dim + 4
    terms = {"decoherence": (math.sqrt(2.0) * (m + 4), 0), "observation": (dim + 7, m + dim)}
    assert len(columns["trial"]) == len(trials) * len(POWER_SUMS) * 2
    for trial, label, side, margin in zip(*(columns[name].tolist() for name in ("trial", "functional", "side", "margin"))):
        bound = _closed_form_bound(label, dim, m, *terms[side], references[label, side])
        assert abs(margin - closed[label, side][trial]) <= bound, (trial, label, side)


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("ensemble_size", [None, 1, 7])
def test_power_sum_holevo_rows_equal_their_closed_form(dim, ensemble_size):
    """The linear and renyi:alpha Holevo gaps equal formulas in the states' entries, with no eigensolve.

    For linear and renyi:2 the gap is 1/2 sum_kl p_k p_l ||rho_k - rho_l||_F^2;
    for alpha = 3 and 4 it is sum_k p_k tr rho_k^alpha - tr rho^alpha, with
    rho = sum_k p_k rho_k, each trace taken from alpha - 1 matrix products.

    The bound is the s-theorems test's, for these rows: the drawn states are
    solved as drawn (a = 0), and the average sum_k p_k rho_k, an m-term sum of
    density matrices, is formed to a = m + 1.  The expected entropy's weights
    are the drawn ones, so it sums to m u.  The alpha = 2 reference's terms are
    each formed to 6 u of their sum, which is at most 2, and ``math.fsum`` adds
    1.  An alpha = 3 or 4 reference carries c = (alpha - 1) sqrt(2) (d + 2) +
    d - 1 for each trace, as derived there: c + 1 for the weighted traces of
    the drawn states (one product each), c + alpha (m + 1) for the trace of
    the average the test forms, and 1 for ``math.fsum``, so 2 c + alpha (m + 1)
    + 2 in all.  A mixture's weights sum to 1 within (m + 1) u, which the
    normalization term covers.
    """
    seed = dim + 10 * (ensemble_size or 0)
    cfg = CampaignConfig("holevo", seed=seed, dim=dim, ensemble_size=ensemble_size, functionals=POWER_SUMS)
    trials = range(8)
    sizes, probs, drawn = campaigns.sample_holevo(cfg, trials)
    columns = campaigns.evaluate_holevo(cfg, trials, (sizes, probs, drawn))

    m = probs.shape[-1]
    states = np.zeros(probs.shape + (dim, dim), dtype=complex)
    states[np.arange(m) < sizes[:, None]] = drawn
    gaps = np.abs(states[:, :, None] - states[:, None, :]) ** 2
    quadratic = _fsums(0.5 * probs[:, :, None, None, None] * probs[:, None, :, None, None] * gaps)
    closed = {"linear": quadratic, "renyi:2": quadratic}
    references = {"linear": 13, "renyi:2": 13}
    average = (probs[:, :, None, None] * states).sum(axis=1)
    for alpha in (3, 4):
        label = f"renyi:{alpha}"
        weighted = probs * _trace_power(states, alpha)
        closed[label] = _fsums(np.concatenate([weighted, -_trace_power(average, alpha)[:, None]], 1))
        references[label] = 2 * _trace_power_error(dim, alpha) + alpha * (m + 1) + 2
    assert len(columns["trial"]) == len(trials) * len(POWER_SUMS)
    for trial, label, margin in zip(*(columns[name].tolist() for name in ("trial", "functional", "margin"))):
        bound = _closed_form_bound(label, dim, m, m + 1, m, references[label])
        assert abs(margin - closed[label][trial]) <= bound, (trial, label)


def _row_columns(with_entropy_columns: bool) -> dict:
    """Six rows of columns as the evaluators return them; the entropy ones carry trivial and strict."""
    columns = {
        "trial": np.array([0, 0, 1, 1, 2, 2]),
        "functional": np.array(["von-neumann", "renyi:2"] * 3),
        "side": np.array(["observation", "decoherence"] * 3),
        "lhs": np.array([0.5, 0.25, np.inf, 1.0, 0.0, 2.0]),
        "rhs": np.array([0.75, 0.25, 1.0, np.nan, 0.0, 1.0]),
        "margin": np.array([0.25, 0.0, -np.inf, np.nan, 0.0, -1.0]),
        "violation": np.array([False, False, True, False, False, True]),
    }
    if with_entropy_columns:
        columns["trivial"] = np.array([False, True, False, False, True, False])
        columns["strict"] = np.array([True, None, None, False, None, None], dtype=object)
    return columns


@pytest.mark.parametrize("dim", [None, 2])
@pytest.mark.parametrize("entropy_columns", [True, False], ids=["strict", "plain"])
def test_rows_have_the_row_keys_in_order_and_python_values(dim, entropy_columns):
    cfg = CampaignConfig("holevo", dim=5)
    columns = _row_columns(entropy_columns)
    rows = campaigns._campaign_result(cfg, {"units": "nats"}, columns, dim=dim).report["rows"]
    assert len(rows) == 6
    strict = columns["strict"].tolist() if entropy_columns else [None] * 6
    for row, trial, expected_strict in zip(rows, columns["trial"].tolist(), strict):
        if expected_strict is None:
            assert tuple(row) == campaigns.ROW_KEYS
        else:
            assert tuple(row) == (*campaigns.ROW_KEYS, "strict")
            assert row["strict"] is expected_strict
        assert row["trial"] == trial and row["dim"] == (5 if dim is None else dim)
        # exact types: numpy's float64 and str_ subclass float and str
        assert {type(value) for value in row.values()} <= {int, float, str, bool, type(None)}
        assert (row["trivial"] is None) != entropy_columns
    # a non-finite value is spelled as a string
    assert [rows[2]["lhs"], rows[3]["rhs"], rows[2]["margin"]] == ["inf", "nan", "-inf"]


def _bitwise_equal(a: dict, b: dict) -> bool:
    """Two row-column dicts hold the same keys, and each column the same values bit for bit."""
    def bits(column):
        column = np.asarray(column)
        return column.view(np.uint64) if column.dtype == float else column

    return a.keys() == b.keys() and all(np.array_equal(bits(a[key]), bits(b[key])) for key in a)


@pytest.mark.parametrize("command,run", [("verify-s-theorems", "run_s_theorems"), ("holevo", "run_holevo")])
def test_no_functionals_give_an_empty_report(command, run):
    cfg = CampaignConfig(command, dim=3, trials=5, functionals=())
    result = getattr(campaigns, run)(cfg)
    assert result.exit_code == 0
    assert result.report["rows"] == []
    assert result.report["summary"]["rows"] == 0


@pytest.mark.parametrize("command", ["verify-s-theorems", "holevo"])
def test_an_evaluator_with_no_functionals_returns_empty_columns(command):
    sampler, evaluator = {
        "verify-s-theorems": ("sample_s_theorems", "evaluate_s_theorems"),
        "holevo": ("sample_holevo", "evaluate_holevo"),
    }[command]
    cfg = CampaignConfig(command, dim=3, functionals=())
    evaluated = getattr(campaigns, evaluator)(cfg, range(4), getattr(campaigns, sampler)(cfg, range(4)))
    columns = evaluated[0] if command == "verify-s-theorems" else evaluated
    assert {"trial", "functional", "side", "lhs", "rhs"} <= columns.keys()
    assert all(column.shape == (0,) for column in columns.values())


def test_a_real_state_stack_gives_the_rows_of_its_complex_cast():
    trials, dim = 3, 3
    rho = np.broadcast_to(np.eye(dim) / dim, (trials, dim, dim)).copy()
    assert rho.dtype == np.float64
    probe = sampling.probing_from_normals(_normals(5, trials, 2 * dim * 4), dim, 4)
    cfg = CampaignConfig("verify-s-theorems", functionals=FUNCTIONALS)
    real = campaigns.evaluate_s_theorems(cfg, range(trials), (rho, probe))
    cast = campaigns.evaluate_s_theorems(cfg, range(trials), (rho.astype(complex), probe))
    assert _bitwise_equal(real[0], cast[0])
    assert real[1:] == cast[1:]
    assert len(real[0]["trial"]) == trials * len(FUNCTIONALS) * 2


@pytest.mark.parametrize("evaluator", EVALUATORS)
@pytest.mark.parametrize("trials", [range(5, 6), range(5, 9)], ids=["fewer", "more"])
def test_trials_must_match_the_stacks(evaluator, trials):
    command = COMMAND_OF[evaluator]
    cfg = CampaignConfig(command, dim=3)
    drawn = getattr(campaigns, SAMPLER_OF[command])(cfg, range(3))
    with pytest.raises(ValidationError) as err:
        getattr(campaigns, evaluator)(cfg, trials, drawn)
    assert err.value.invariant == "stacks-same-trials"
    # the three trials they were drawn for label them
    evaluated = getattr(campaigns, evaluator)(cfg, range(5, 8), drawn)
    columns = evaluated[0] if command == "verify-s-theorems" else evaluated
    assert sorted(set(columns["trial"].tolist())) == [5, 6, 7]


@pytest.mark.parametrize("evaluator", EVALUATORS)
def test_an_empty_chunk_gives_empty_columns(evaluator):
    command = COMMAND_OF[evaluator]
    cfg = CampaignConfig(command, dim=3)
    sample, evaluate = getattr(campaigns, SAMPLER_OF[command]), getattr(campaigns, evaluator)
    empty, full = evaluate(cfg, range(0), sample(cfg, range(0))), evaluate(cfg, range(2), sample(cfg, range(2)))
    if command == "verify-s-theorems":
        assert empty[1:] == (0, 0.0)
        empty, full = empty[0], full[0]
    # the columns of two trials, with no rows and the same dtypes
    assert {name: column.dtype for name, column in empty.items()} == {
        name: column.dtype for name, column in full.items()
    }
    assert all(column.shape == (0,) for column in empty.values())


def _stacks_error(evaluator: str, cfg: CampaignConfig, trials: range, stacks: tuple) -> ValidationError:
    with pytest.raises(ValidationError) as err:
        getattr(campaigns, evaluator)(cfg, trials, stacks)
    return err.value


def test_states_and_probings_of_different_dims_are_refused():
    cfg = CampaignConfig("verify-s-theorems", dim=3)
    rho, _ = campaigns.sample_s_theorems(cfg, range(3))
    _, probe = campaigns.sample_s_theorems(CampaignConfig("verify-s-theorems", dim=2, response_dim=3), range(3))
    assert probe.shape == (3, 2, 3)
    assert _stacks_error("evaluate_s_theorems", cfg, range(3), (rho, probe)).invariant == "stacks-same-dim"


def test_one_state_is_not_a_stack_of_trials():
    cfg = CampaignConfig("verify-s-theorems", dim=3)
    rho, probe = campaigns.sample_s_theorems(cfg, range(3))
    # a (3, 3) state holds 3 entries, one per trial, but has the wrong rank
    assert _stacks_error("evaluate_s_theorems", cfg, range(3), (rho[0], probe)).invariant == "stacks-same-dim"


def test_a_partition_of_another_dim_is_refused():
    cfg = CampaignConfig("majorization", dim=3)
    drawn = list(campaigns.sample_majorization(cfg, range(3)))
    drawn[3] = [(1, 2), (1, 1), (3,)]
    assert _stacks_error("evaluate_majorization", cfg, range(3), tuple(drawn)).invariant == "stacks-same-dim"


def test_mixtures_need_one_drawn_state_per_live_slot():
    cfg = CampaignConfig("holevo", dim=3)
    sizes, probs, drawn = campaigns.sample_holevo(cfg, range(3))
    assert len(drawn) == sizes.sum()
    error = _stacks_error("evaluate_holevo", cfg, range(3), (sizes, probs, drawn[:-1]))
    assert error.invariant == "stacks-same-trials"


@pytest.mark.parametrize("sizes", [[2.5, 3.0], [9, 3], [0, 3]], ids=["fraction", "past-the-slots", "zero"])
def test_a_mixture_size_is_an_integer_within_the_slots(sizes):
    cfg = CampaignConfig("holevo", dim=2, ensemble_size=3)
    _, probs, drawn = campaigns.sample_holevo(cfg, range(2))
    error = _stacks_error("evaluate_holevo", cfg, range(2), (np.array(sizes), probs, drawn))
    assert (error.invariant, str(error)) == ("mixture-sizes", f"mixture-sizes: {sizes} in 3 slots")


@pytest.mark.parametrize(
    "sizes", [(0, 0, 0, 3), (1.5, 1.5), (-1, 4), (), 3], ids=["zeros", "halves", "negative", "empty", "unnested"]
)
def test_a_partition_needs_positive_integer_sizes(sizes):
    # each sums to the dim 3, or is empty, or is a bare size, and none is a partition of it
    cfg = CampaignConfig("majorization", dim=3)
    drawn = list(campaigns.sample_majorization(cfg, range(2)))
    drawn[3] = [drawn[3][0], sizes]
    error = _stacks_error("evaluate_majorization", cfg, range(2), tuple(drawn))
    assert (error.invariant, str(error)) == ("positive-block-sizes", f"positive-block-sizes: {sizes}")


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_hermitian_pair_is_refused_before_its_spectral_radius(value):
    cfg = CampaignConfig("majorization", dim=3)
    drawn = list(campaigns.sample_majorization(cfg, range(2)))
    drawn[5][1, 0, 2, 1] = value
    assert _stacks_error("evaluate_majorization", cfg, range(2), tuple(drawn)).invariant == "finite-entries"


def test_a_non_hermitian_pair_is_refused_at_its_spectral_radius_with_its_own_residual():
    # the rescale solves the pair with the one symmetrized eigvalsh, so it checks it there
    cfg = CampaignConfig("majorization", dim=3)
    drawn = list(campaigns.sample_majorization(cfg, range(2)))
    drawn[5][1, 0, 2, 1] += 0.5
    error = _stacks_error("evaluate_majorization", cfg, range(2), tuple(drawn))
    broken = drawn[5][1, 0]
    assert (error.invariant, error.residual) == ("hermitian", abs(broken - broken.conj().T).max())


def test_a_bad_hermitian_stack_raises_the_error_of_its_first_failing_matrix():
    # the radius solve is the pairs' one scan, so an earlier non-Hermitian pair wins over a later NaN
    cfg = CampaignConfig("majorization", dim=3)
    drawn = list(campaigns.sample_majorization(cfg, range(2)))
    drawn[5][0, 1, 2, 1] += 0.5
    drawn[5][1, 0, 0, 0] = np.nan
    assert _stacks_error("evaluate_majorization", cfg, range(2), tuple(drawn)).invariant == "hermitian"


@pytest.mark.parametrize("value", [0.0, np.nan, np.inf])
def test_a_singular_or_non_finite_ginibre_matrix_is_refused_before_its_phases(value):
    cfg = CampaignConfig("majorization", dim=3)
    drawn = list(campaigns.sample_majorization(cfg, range(2)))
    drawn[4][1] = value
    expected = "ginibre-full-rank" if value == 0.0 else "finite-entries"
    assert _stacks_error("evaluate_majorization", cfg, range(2), tuple(drawn)).invariant == expected




def _evaluated(evaluator: str, cfg: CampaignConfig, trials: range, stacks: list):
    """The row columns an evaluator returns for the stacks, or the invariant of the error it raises."""
    try:
        evaluated = getattr(campaigns, evaluator)(cfg, trials, tuple(stacks))
    except ValidationError as error:
        return error.invariant
    columns = evaluated[0] if evaluator == "evaluate_s_theorems" else evaluated
    assert {"trial", "functional", "side", "lhs", "rhs"} <= columns.keys()
    assert len({column.shape for column in columns.values()}) == 1
    return columns


def _sometimes(strategy):
    """``strategy``'s value in about one draw in four, and None otherwise, so that most draws reach the maps."""
    return st.tuples(st.integers(0, 3), strategy).map(lambda drawn: drawn[1] if drawn[0] == 1 else None)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    evaluator=st.sampled_from(EVALUATORS),
    trials=st.integers(0, 3),
    dim=st.integers(1, 4),
    width=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
    poison=_sometimes(st.tuples(st.integers(0, 5), st.integers(0, 2**16), st.sampled_from([np.nan, np.inf, -np.inf]))),
    zeroed=_sometimes(st.integers(0, 5)),
    partition=_sometimes(st.lists(st.sampled_from([-1, 0, 1, 2, 3, 1.5]), max_size=4).map(tuple)),
    size=_sometimes(st.sampled_from([-1, 0, 0.5, 2.5, 5, 9])),
)
@example("evaluate_majorization", 1, 3, 1, 0, False, None, None, (0, 0, 0, 3), None)
@example("evaluate_majorization", 1, 3, 1, 0, False, None, None, (1.5, 1.5), None)
@example("evaluate_majorization", 1, 3, 1, 0, False, None, None, (-1, 4), None)
@example("evaluate_majorization", 1, 3, 1, 0, False, (5, 0, np.nan), None, None, None)
@example("evaluate_majorization", 2, 3, 2, 0, True, None, 4, None, None)
@example("evaluate_holevo", 2, 2, 3, 0, False, None, None, None, 2.5)
@example("evaluate_holevo", 2, 2, 3, 0, True, None, None, None, 0)
@example("evaluate_holevo", 2, 2, 3, 0, False, None, None, None, -1)
@example("evaluate_holevo", 2, 2, 3, 0, False, None, None, None, 9)
def test_every_drawn_stack_gives_columns_or_a_validation_error(
    evaluator, trials, dim, width, seed, real, poison, zeroed, partition, size
):
    """Stacks of a sampler's form, of any size, real or complex, zeroed or holding NaN or Inf.

    ``width`` is the response dim, or the mixture size of holevo.  Stacks
    are picked by their position in the sampler's tuple: ``poison`` puts a
    non-finite value at a flat position of one, and ``zeroed`` zeroes one,
    when it holds floats.  ``partition`` replaces the first trial's block
    sizes, and ``size`` the first trial's holevo mixture size: not an
    integer, below one, or past the slots (at most 4).  A real stack (the
    real parts, with unit rows renormalized) gives what its complex cast
    gives: the same columns bit for bit, or the same error.
    """
    command = COMMAND_OF[evaluator]
    # where the unit rows (probings, responses) and the block sizes sit in each evaluator's stacks
    unit_rows = {"evaluate_s_theorems": 1, "evaluate_majorization": 1}.get(evaluator)
    partitions = 3 if evaluator == "evaluate_majorization" else None
    fields = {"ensemble_size": width} if command == "holevo" else {"response_dim": width}
    cfg = CampaignConfig(command, seed=seed, dim=dim, functionals=FUNCTIONALS, **fields)
    stacks = list(getattr(campaigns, SAMPLER_OF[command])(cfg, range(trials)))
    complex_at = [at for at, stack in enumerate(stacks) if isinstance(stack, np.ndarray) and np.iscomplexobj(stack)]
    if real:
        for at in complex_at:
            stacks[at] = stacks[at].real.copy()
        if unit_rows is not None:
            rows = stacks[unit_rows]
            stacks[unit_rows] = rows / np.linalg.norm(rows, axis=-1, keepdims=True)
    floats = {at for at, stack in enumerate(stacks) if isinstance(stack, np.ndarray) and stack.dtype != int}
    if poison is not None and poison[0] % len(stacks) in floats:
        stack = stacks[poison[0] % len(stacks)]
        if stack.size:
            stack.flat[poison[1] % stack.size] = poison[2]
    if zeroed is not None and zeroed % len(stacks) in floats:
        stacks[zeroed % len(stacks)][...] = 0.0
    if partition is not None and trials and partitions is not None:
        stacks[partitions] = [partition] + stacks[partitions][1:]
    if size is not None and trials and evaluator == "evaluate_holevo":
        stacks[0] = np.array([size, *stacks[0][1:].tolist()])

    got = _evaluated(evaluator, cfg, range(trials), stacks)
    if size is not None and trials and evaluator == "evaluate_holevo":
        assert got == "mixture-sizes"
    if real:
        cast = [stack.astype(complex) if at in complex_at else stack for at, stack in enumerate(stacks)]
        from_cast = _evaluated(evaluator, cfg, range(trials), cast)
        assert got == from_cast if isinstance(got, str) else _bitwise_equal(got, from_cast)
