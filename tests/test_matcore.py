import functools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from decobs import majorization, matcore, sampling, stacks, states
from decobs.errors import ValidationError
from decobs.tolerances import HERMITIAN_TOL

dims = st.integers(min_value=2, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _gaussian(rng, rows, cols):
    """A complex Gaussian matrix from one draw: real parts first, then imaginary."""
    return sampling.complex_from_normals(rng.standard_normal(2 * rows * cols), (rows, cols))


class TestHermitianSpectrum:
    def test_diagonal(self):
        lam = stacks.validate_stack(np.diag([0.5, 0.5]).astype(complex), "hermitian")
        assert np.allclose(lam, [0.5, 0.5])

    def test_rank_one_projector(self, plus_density):
        lam = stacks.validate_stack(plus_density, "hermitian")
        assert np.allclose(lam, [1.0, 0.0], atol=1e-14)

    @given(seed=seeds)
    def test_2x2_matches_quadratic_formula(self, seed):
        rng = np.random.default_rng(seed)
        g = _gaussian(rng, 2, 2)
        h = (g + g.conj().T) / 2.0
        # closed-form roots of the characteristic polynomial
        tr = np.trace(h).real
        det = np.linalg.det(h).real
        disc = np.sqrt(tr**2 - 4.0 * det)
        expected = np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])
        assert np.allclose(stacks.validate_stack(h, "hermitian"), expected, atol=1e-10)

    def test_descending_order(self):
        lam = stacks.validate_stack(np.diag([0.1, 0.7, 0.2]).astype(complex), "hermitian")
        assert np.all(np.diff(lam) <= 0)

    @given(dim=dims, seed=seeds)
    def test_eigenvalue_sum_equals_trace(self, dim, seed):
        rng = np.random.default_rng(seed)
        g = _gaussian(rng, dim, dim)
        h = (g + g.conj().T) / 2.0
        lam = stacks.validate_stack(h, "hermitian")
        assert abs(lam.sum() - np.trace(h).real) <= 1e-10 * dim

    @given(dim=dims, seed=seeds)
    def test_invariance_under_unitary_conjugation(self, dim, seed):
        rng = np.random.default_rng(seed)
        g = _gaussian(rng, dim, dim)
        h = (g + g.conj().T) / 2.0
        u = states.haar_unitary(dim, rng)
        before = stacks.validate_stack(h, "hermitian")
        after = stacks.validate_stack(u @ h @ u.conj().T, "hermitian")
        assert matcore.max_abs(after - before) <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError) as err:
            stacks.validate_stack(np.array([[0.0, 1.0], [0.0, 0.0]]), "hermitian")
        assert err.value.invariant == "hermitian"

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError) as err:
            stacks.validate_stack(np.zeros((2, 3)), "hermitian")
        assert err.value.invariant == "square"

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            stacks.validate_stack(np.array([[np.nan, 0.0], [0.0, 0.0]]), "hermitian")


def _density_stacks():
    """Density stacks, by name: rank-deficient, diagonal, with -0.0 entries, and of dims 1, 32 and 40."""
    rng = np.random.default_rng(11)
    g = _gaussian(rng, 6, 2 * 6)
    deficient = []
    for rank in (1, 2, 3, 5):
        mat = g[:, :rank] @ g[:, :rank].conj().T
        deficient.append(mat / np.trace(mat).real)
    diagonal = np.array([np.diag(p / p.sum()) for p in rng.random((3, 4))]).astype(complex)
    signed_zero = np.diag([0.25, 0.75]).astype(complex)
    signed_zero[0, 1] = signed_zero[1, 0] = complex(-0.0, -0.0)
    signed_zero[1, 1] = complex(0.75, -0.0)
    return {
        "rank-deficient": np.array(deficient),
        "diagonal": diagonal,
        "negative-zero": signed_zero[None],
        "dim-1": np.ones((2, 1, 1), dtype=complex),
        "dim-32": sampling.density_from_normals(rng.standard_normal((3, 2 * 32 * 32)), 32),
        # seven 40 x 40 matrices are past a validation block's seam
        "dim-40": sampling.density_from_normals(rng.standard_normal((7, 2 * 40 * 40)), 40),
    }


class TestHermitianSpectrumIsTheValidatedSolve:
    """The ``"hermitian"`` kind is validate_stack's one symmetrized solve, without the unit and PSD checks."""

    @pytest.mark.parametrize("name", list(_density_stacks()))
    def test_bit_for_bit_the_density_spectra(self, name):
        stack = _density_stacks()[name]
        spectra = stacks.validate_stack(stack, "hermitian")
        assert spectra.view(np.uint64).tolist() == stacks.validate_stack(stack, "density").view(np.uint64).tolist()
        # the written-out solve: symmetrize, solve, reverse
        written = np.linalg.eigvalsh((stack + stack.conj().swapaxes(-1, -2)) / 2.0)[..., ::-1]
        assert spectra.view(np.uint64).tolist() == written.view(np.uint64).tolist()

    def test_the_first_failing_matrix_names_the_error(self):
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        nan = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError) as err:
            stacks.validate_stack(np.array([np.eye(2), skew, nan]), "hermitian")
        assert (err.value.invariant, err.value.residual) == ("hermitian", 1.0)
        with pytest.raises(ValidationError) as err:
            stacks.validate_stack(np.array([np.eye(2), nan, skew]), "hermitian")
        assert (err.value.invariant, err.value.residual) == ("finite-entries", None)

    @pytest.mark.parametrize("shape, expected", [((0, 3, 3), (0, 3)), ((2, 0, 0), (2, 0))])
    def test_empty_stacks(self, shape, expected):
        assert stacks.validate_stack(np.zeros(shape, dtype=complex), "hermitian").shape == expected

    @pytest.mark.parametrize("kind", ["unitary", "Density", ""])
    def test_an_unknown_kind_is_a_value_error(self, kind):
        with pytest.raises(ValueError, match=f"kind must be 'density', 'gram' or 'hermitian', got '{kind}'"):
            stacks.validate_stack(np.eye(2), kind)


class TestSchurProduct:
    """The Schur (entrywise) product is numpy's ``*``, as the campaigns form it."""

    def test_all_ones_is_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(a * np.ones((2, 2)), a)

    def test_mask(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(a * mask, [[0.0, 2.0], [3.0, 0.0]])

    def test_with_identity_keeps_diagonal(self, plus_density):
        out = plus_density * np.eye(2)
        assert np.array_equal(out, np.diag([0.5, 0.5]))

    @given(dim=dims, seed=seeds)
    def test_trace_is_diagonal_product_sum(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = _gaussian(rng, dim, dim)
        b = _gaussian(rng, dim, dim)
        product = a * b
        assert np.trace(product) == (a.diagonal() * b.diagonal()).sum()


class TestTensorProduct:
    def test_scalar_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matcore.tensor_product(a, np.array([[1.0]])), a)

    def test_diagonal(self):
        out = matcore.tensor_product(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        assert np.array_equal(out, np.diag([1.0, 0.0, 0.0, 0.0]))

    def test_projector_with_mixed(self):
        ket0 = np.diag([1.0, 0.0])
        out = matcore.tensor_product(ket0, np.eye(2) / 2.0)
        assert np.allclose(out, np.diag([0.5, 0.5, 0.0, 0.0]))

    @given(seed=seeds)
    def test_matches_index_expansion(self, seed):
        rng = np.random.default_rng(seed)
        a = _gaussian(rng, 2, 3)
        b = _gaussian(rng, 3, 2)
        out = matcore.tensor_product(a, b)
        expected = np.empty((6, 6), dtype=complex)
        for i in range(2):
            for j in range(3):
                for k in range(3):
                    for ell in range(2):
                        expected[i * 3 + k, j * 2 + ell] = a[i, j] * b[k, ell]
        assert matcore.max_abs(out - expected) <= 1e-12


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(7)
        a = _gaussian(rng, 3, 3)
        b = _gaussian(rng, 2, 2)
        joint = matcore.tensor_product(a, b)
        reduced = matcore.partial_trace(joint, 3, 2, keep="first")
        assert matcore.max_abs(reduced - a * np.trace(b)) <= 1e-12

    def test_maximally_entangled_reduces_to_mixed(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        joint = np.outer(psi, psi.conj())
        reduced = matcore.partial_trace(joint, 2, 2, keep="first")
        assert np.allclose(reduced, np.eye(2) / 2.0)

    @given(seed=seeds)
    def test_keep_second_matches_block_sum(self, seed):
        rng = np.random.default_rng(seed)
        g = _gaussian(rng, 4, 4)
        h = (g + g.conj().T) / 2.0
        reduced = matcore.partial_trace(h, 2, 2, keep="second")
        expected = h[:2, :2] + h[2:, 2:]
        assert matcore.max_abs(reduced - expected) <= 1e-12

    @given(seed=seeds)
    def test_trace_preserved(self, seed):
        rng = np.random.default_rng(seed)
        m = _gaussian(rng, 6, 6)
        for keep in ("first", "second"):
            assert abs(np.trace(matcore.partial_trace(m, 2, 3, keep)) - np.trace(m)) <= 1e-12

    def test_rejects_bad_factorization(self):
        with pytest.raises(ValidationError) as err:
            matcore.partial_trace(np.eye(6), 4, 2)
        assert err.value.invariant == "factor-dimensions"

    def test_rejects_bad_keep(self):
        with pytest.raises(ValueError):
            matcore.partial_trace(np.eye(4), 2, 2, keep="third")


class TestPredicates:
    def test_identity(self):
        eye = np.eye(3)
        assert matcore.unitary_residual(eye) <= HERMITIAN_TOL
        # Hermitian: the spectrum solves without raising; PSD: its smallest eigenvalue is >= 0
        assert stacks.validate_stack(eye, "hermitian")[-1] >= 0.0

    def test_flip(self):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert matcore.unitary_residual(flip) <= HERMITIAN_TOL
        # Hermitian, and not PSD: its smallest eigenvalue is -1
        assert stacks.validate_stack(flip, "hermitian")[-1] == -1.0

    @given(dim=dims, seed=seeds)
    def test_haar_sample_is_unitary(self, dim, seed):
        u = states.haar_unitary(dim, np.random.default_rng(seed))
        assert matcore.unitary_residual(u) <= HERMITIAN_TOL

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError) as err:
            matcore.require_square(np.zeros((2, 3)))
        assert err.value.invariant == "square"

    @pytest.mark.parametrize(
        "check, values",
        [
            (matcore.require_square, np.eye(2)[None]),
            (functools.partial(stacks.validate_stack, kind="hermitian"), np.ones(2)),
            (stacks.validate_probing_stack, np.ones(2)),
            (majorization.validate_projector_stack, np.eye(2)),
        ],
        ids=["matrix", "stack", "probing-stack", "projector-stack"],
    )
    def test_rejects_wrong_rank(self, check, values):
        with pytest.raises(ValidationError) as err:
            check(values)
        assert err.value.invariant == "matrix-rank"
        assert f"ndim={values.ndim}" in str(err.value)
