import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from decobs import campaigns, matcore, povm, sampling, stacks, states
from decobs.cli import _DISPATCH, CampaignConfig
from decobs.errors import ValidationError
from decobs.povm import is_purity_preserving

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=8)


class TestStreams:
    def test_same_seed_is_bit_identical(self):
        a = states.random_density(4, np.random.default_rng(123))
        b = states.random_density(4, np.random.default_rng(123))
        assert np.array_equal(a.mat, b.mat)

    def test_trial_streams_do_not_depend_on_order(self):
        forward = [sampling.trial_stream(9, t).standard_normal(4) for t in range(5)]
        backward = [sampling.trial_stream(9, t).standard_normal(4) for t in reversed(range(5))]
        for t in range(5):
            assert np.array_equal(forward[t], backward[4 - t])

    def test_different_trials_differ(self):
        a = sampling.trial_stream(9, 0).standard_normal(8)
        b = sampling.trial_stream(9, 1).standard_normal(8)
        assert not np.array_equal(a, b)


#: seeds of one to eight 32-bit words: numpy pads those of fewer than four
#: words with zeros and mixes the words past the fourth after its pool mix
SEEDER_SEEDS = (0, 7, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 3, 2**128 + 5, 3**150)
#: chunks of trials with one spawn word, with two, and one that straddles 2**32
SEEDER_CHUNKS = (range(0, 50), range(2**32 - 2, 2**32 + 2), range(2**40 + 7, 2**40 + 8))


def _every_draw_kind(rng) -> list[np.ndarray]:
    """One draw of each kind the samplers make, the 32-bit bounded integers among them."""
    return [
        rng.standard_normal(5),
        rng.integers(1, 9, size=3),
        rng.dirichlet(np.ones(4)),
        rng.choice(np.arange(1, 9), size=3, replace=False),
        rng.integers(2**40, size=2),
    ]


def _oracle_streams(seed, trials):
    """``trial_streams`` replayed through numpy's own construction of each stream."""
    for i, trial in enumerate(trials):
        yield i, sampling.trial_stream(seed, trial)


class TestBatchedSeeding:
    """``trial_streams`` gives each trial, bit for bit, the stream ``trial_stream`` builds."""

    @pytest.mark.parametrize("trials", SEEDER_CHUNKS, ids=lambda r: f"{r.start}-{r.stop}")
    @pytest.mark.parametrize("seed", SEEDER_SEEDS)
    def test_state_and_draws_equal_the_oracle(self, seed, trials):
        seen = []
        for i, rng in sampling.trial_streams(seed, trials):
            oracle = sampling.trial_stream(seed, trials[i])
            assert rng.bit_generator.state == oracle.bit_generator.state
            for ours, theirs in zip(_every_draw_kind(rng), _every_draw_kind(oracle), strict=True):
                assert ours.dtype == theirs.dtype
                assert np.array_equal(ours, theirs)
            seen.append(i)
        assert seen == list(range(len(trials)))

    @given(seed=st.integers(0, 2**200), start=st.integers(0, 2**63), length=st.integers(0, 6))
    def test_any_seed_and_chunk(self, seed, start, length):
        trials = range(start, start + length)
        replay = _oracle_streams(seed, trials)
        for (i, rng), (j, oracle) in zip(sampling.trial_streams(seed, trials), replay, strict=True):
            assert i == j
            assert rng.bit_generator.state == oracle.bit_generator.state

    def test_a_buffered_32_bit_draw_is_not_carried_into_the_next_trial(self):
        trials = range(2**32 - 3, 2**32 + 1)
        for i, rng in sampling.trial_streams(7, trials):
            oracle = sampling.trial_stream(7, trials[i])
            assert rng.integers(0, 10) == oracle.integers(0, 10)
            # one 32-bit draw leaves the other half of its 64-bit word buffered
            assert rng.bit_generator.state["has_uint32"] == 1
            assert rng.bit_generator.state == oracle.bit_generator.state

    def test_every_trial_gets_the_same_generator(self):
        generators = {id(rng) for _, rng in sampling.trial_streams(3, range(5))}
        assert len(generators) == 1

    def test_an_empty_chunk_yields_nothing(self):
        assert list(sampling.trial_streams(3, range(9, 9))) == []

    def test_a_negative_seed_is_refused_as_numpy_refuses_it(self):
        with pytest.raises(ValueError):
            sampling.trial_stream(-1, 0)
        with pytest.raises(ValueError):
            next(sampling.trial_streams(-1, range(1)))

    @pytest.mark.parametrize(
        "command,sampler",
        [
            ("verify-s-theorems", "sample_s_theorems"),
            ("majorization", "sample_majorization"),
            ("holevo", "sample_holevo"),
        ],
    )
    @pytest.mark.parametrize("seed", [7, 2**64 + 3])
    def test_every_sampler_equals_its_oracle_replay(self, monkeypatch, command, sampler, seed):
        # majorization and holevo draw 32-bit bounded integers after normals
        cfg = CampaignConfig(command, seed=seed, dim=3)
        chunk = range(2**32 - 2, 2**32 + 2)
        drawn = getattr(campaigns, sampler)(cfg, chunk)
        monkeypatch.setattr(sampling, "trial_streams", _oracle_streams)
        replayed = getattr(campaigns, sampler)(cfg, chunk)
        assert len(drawn) == len(replayed)
        for ours, theirs in zip(drawn, replayed):
            if isinstance(ours, np.ndarray):
                assert np.array_equal(ours, theirs)
            else:
                assert ours == theirs


class TestChunkSeeding:
    """Each chunk mixes its own trials' seeds, in bounded blocks, as the iteration reaches them."""

    @pytest.fixture
    def mixes(self, monkeypatch):
        """The trial ranges that ``_seed_words`` mixes, in call order."""
        calls = []
        mix = sampling._seed_words
        monkeypatch.setattr(
            sampling, "_seed_words", lambda pool, const, trials: calls.append(trials) or mix(pool, const, trials)
        )
        return calls

    @pytest.mark.parametrize(
        "chunk",
        [range(0, 1), range(7, 19), range(39, 40), range(12, 12), range(0, 10, 2), range(9, 3, -1),
         range(2**33, 2**33 + 1)],
        ids=["first", "middle", "last", "empty", "step-2", "reversed", "far"],
    )
    @pytest.mark.parametrize("seed", [0, 2**64 + 3])
    def test_every_chunk_equals_the_oracle(self, mixes, seed, chunk):
        replay = _oracle_streams(seed, chunk)
        for (i, rng), (j, oracle) in zip(sampling.trial_streams(seed, chunk), replay, strict=True):
            assert i == j
            assert rng.bit_generator.state == oracle.bit_generator.state
            assert np.array_equal(rng.standard_normal(3), oracle.standard_normal(3))
        assert mixes == ([chunk] if chunk else [])

    def test_a_chunk_of_several_blocks_equals_the_oracle_across_every_seam(self, mixes):
        # the chunk also straddles 2**32, where spawn keys gain a second word
        chunk = range(2**32 - 700, 2**32 + 800)
        blocks = stacks._blocks(len(chunk), sampling._SEED_BYTES)
        assert len(blocks) >= 3
        streams = sampling.trial_streams(7, chunk)
        first = next(streams)
        # a block is mixed when the iteration reaches it
        assert mixes == [chunk[blocks[0]]]
        for i, rng in itertools.chain([first], streams):
            assert rng.bit_generator.state == sampling.trial_stream(7, chunk[i]).bit_generator.state
        assert i == len(chunk) - 1
        assert mixes == [chunk[block] for block in blocks]

    def test_seeding_a_large_chunk_stays_within_the_chunk_budget(self):
        # the largest chunk a campaign plans, one 1 x 1 matrix a trial: holevo --dim 1 --ensemble-size 1
        chunk = campaigns.plan_chunks(2**20, 1, 1)[0]
        # the first trial stream of a process loads numpy.random, about 1 MB traced, which is no
        # part of seeding a chunk; the campaigns load it before their first chunk (_map_chunks)
        import numpy.random  # noqa: F401

        tracemalloc.start()
        try:
            for _ in sampling.trial_streams(5, chunk):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= campaigns.CHUNK_BYTES

    @pytest.mark.parametrize("command", ["verify-s-theorems", "majorization", "holevo"])
    def test_each_chunk_of_a_campaign_mixes_its_own_seeds(self, monkeypatch, mixes, command):
        cfg = CampaignConfig(command, seed=11, dim=2, trials=3)
        one_chunk = _DISPATCH[command](cfg).report
        assert mixes == [range(3)]
        monkeypatch.setattr(campaigns, "CHUNK_BYTES", 1)
        assert _without_timestamp(_DISPATCH[command](cfg).report) == _without_timestamp(one_chunk)
        assert mixes[1:] == [range(0, 1), range(1, 2), range(2, 3)]


def _without_timestamp(report: dict) -> dict:
    return {key: value for key, value in report.items() if key != "timestamp"}


class TestSimplexDraw:
    """``random_simplex`` is numpy's ``dirichlet(np.ones(k))``, bit for bit, and leaves the stream where it does."""

    @pytest.mark.parametrize("k", range(1, 10))
    def test_equals_numpy_dirichlet_for_1000_seeds(self, k):
        for seed in range(1000):
            ours, theirs = np.random.default_rng([seed, k]), np.random.default_rng([seed, k])
            drawn, oracle = sampling.random_simplex(k, ours), theirs.dirichlet(np.ones(k))
            assert drawn.dtype == oracle.dtype and drawn.shape == (k,)
            assert np.array_equal(drawn.view(np.uint64), oracle.view(np.uint64)), (seed, k)
            assert np.array_equal(ours.standard_normal(3), theirs.standard_normal(3))
            assert np.array_equal(ours.integers(2, 6), theirs.integers(2, 6))
            assert ours.bit_generator.state == theirs.bit_generator.state


def _numpy_block_sizes(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """``random_block_sizes`` written with numpy's array arguments: its oracle."""
    count = int(rng.integers(1, n + 1))
    if count == 1:
        return (n,)
    cuts = np.sort(rng.choice(np.arange(1, n), size=count - 1, replace=False))
    edges = np.concatenate(([0], cuts, [n]))
    return tuple(int(b - a) for a, b in zip(edges[:-1], edges[1:]))


class TestBlockSizesDraw:
    """``random_block_sizes`` draws what its numpy form draws and leaves the stream where it does."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_equals_the_numpy_form_for_300_seeds(self, n):
        for seed in range(300):
            ours, theirs = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
            drawn, oracle = sampling.random_block_sizes(n, ours), _numpy_block_sizes(n, theirs)
            assert drawn == oracle, (seed, n)
            assert all(type(size) is int for size in drawn)
            assert ours.bit_generator.state == theirs.bit_generator.state


class TestHaarUnitary:
    def test_scalar_case_is_phase(self):
        u = states.haar_unitary(1, np.random.default_rng(0))
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    @given(dim=dims, seed=seeds)
    def test_unitary_at_tolerance(self, dim, seed):
        u = states.haar_unitary(dim, np.random.default_rng(seed))
        assert matcore.is_unitary(u)

    def test_first_moment_matches_haar(self):
        # E|U_00|^2 = 1/n for Haar measure
        rng = np.random.default_rng(2024)
        values = [abs(states.haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(10000)]
        assert abs(np.mean(values) - 0.5) <= 0.02


class TestRandomDensity:
    def test_one_dimensional(self):
        rho = states.random_density(1, np.random.default_rng(0))
        assert np.allclose(rho.mat, [[1.0]])

    @given(dim=dims, seed=seeds)
    def test_validates(self, dim, seed):
        rho = states.random_density(dim, np.random.default_rng(seed))
        lam = matcore.hermitian_spectrum(rho.mat)
        assert lam[-1] >= -1e-12
        assert abs(lam.sum() - 1.0) <= 1e-10

    def test_mean_approaches_maximally_mixed(self):
        rng = np.random.default_rng(7)
        total = np.zeros((2, 2), dtype=complex)
        draws = 10000
        for _ in range(draws):
            total += states.random_density(2, rng).mat
        assert matcore.max_abs(total / draws - np.eye(2) / 2.0) <= 0.02


class TestOtherSamplers:
    @given(dim=dims, seed=seeds)
    def test_pure_states_are_unit(self, dim, seed):
        v = states.random_pure(dim, np.random.default_rng(seed))
        assert abs(np.linalg.norm(v.amp) - 1.0) <= 1e-10

    @given(dim=st.integers(2, 6), seed=seeds)
    def test_hermitian_has_unit_spectral_radius(self, dim, seed):
        h = states.random_hermitian(dim, np.random.default_rng(seed))
        assert matcore.max_abs(h - h.conj().T) <= 1e-12
        assert matcore.max_abs(np.linalg.eigvalsh(h)) == pytest.approx(1.0)

    @given(n=st.integers(1, 6), d=st.integers(1, 6), seed=seeds)
    def test_gram_entries_bounded(self, n, d, seed):
        rows = sampling.pure_from_normals(np.random.default_rng(seed).standard_normal((n, 2 * d)), d)
        assert np.all(np.abs(stacks.gram_from_unit_rows(rows)) <= 1.0 + 1e-12)

    @given(n=st.integers(2, 6), seed=seeds)
    def test_phase_only_gram_is_rank_one(self, n, seed):
        rows = sampling.pure_from_normals(np.random.default_rng(seed).standard_normal((n, 2)), 1)
        gram = stacks.gram_from_unit_rows(rows)
        assert np.all(np.abs(np.abs(gram) - 1.0) <= 1e-12)
        lam = matcore.hermitian_spectrum(gram)
        assert lam[0] == pytest.approx(n)
        assert matcore.max_abs(lam[1:]) <= 1e-9

    @given(n=st.integers(1, 6), m=st.integers(1, 6), seed=seeds)
    def test_probing_rows_unit(self, n, m, seed):
        probe = sampling.probing_from_normals(np.random.default_rng(seed).standard_normal(2 * n * m), n, m)
        norms = np.linalg.norm(probe, axis=1)
        assert matcore.max_abs(norms - 1.0) <= 1e-10

    @given(dim=st.integers(1, 8), seed=seeds)
    def test_block_sizes_partition(self, dim, seed):
        sizes = sampling.random_block_sizes(dim, np.random.default_rng(seed))
        assert sum(sizes) == dim
        assert all(s >= 1 for s in sizes)

    def test_projector_partition_spectra(self):
        partition = states.random_projector_partition(4, [2, 2], np.random.default_rng(6))
        for p in partition:
            assert matcore.hermitian_spectrum(p) == pytest.approx([1.0, 1.0, 0.0, 0.0], abs=1e-9)

    def test_projector_partition_rejects_bad_split(self):
        with pytest.raises(ValidationError) as err:
            states.random_projector_partition(4, [2, 3], np.random.default_rng(0))
        assert err.value.invariant == "blocks-partition-dim"

    @given(dim=st.integers(2, 6), size=st.integers(2, 5), seed=seeds)
    def test_random_ensembles_validate(self, dim, size, seed):
        # a holevo mixture: simplex weights over one block of random states
        rng = np.random.default_rng(seed)
        probs = stacks.clean_probabilities(sampling.random_simplex(size, rng))
        mats = sampling.density_from_normals(rng.standard_normal((size, 2 * dim * dim)), dim)
        stacks.validate_stack(mats, "density")
        assert len(probs) == len(mats) == size
        assert abs(sum(probs.tolist()) - 1.0) <= 1e-10

    @given(n=st.integers(2, 3), d=st.integers(2, 3), seed=seeds)
    def test_random_pppovm_is_purity_preserving(self, n, d, seed):
        assert is_purity_preserving(povm.random_pppovm(n, d, np.random.default_rng(seed)))

    @given(n=st.integers(2, 3), d=st.integers(2, 3), seed=seeds)
    def test_random_general_povm_validates(self, n, d, seed):
        measurement = povm.random_general_povm(n, d, np.random.default_rng(seed))
        assert measurement.joint_dim == n * d

    @given(n=st.integers(2, 5), d=st.integers(1, 5), seed=seeds)
    def test_gram_sampler_output_validates(self, n, d, seed):
        rows = sampling.pure_from_normals(np.random.default_rng(seed).standard_normal((n, 2 * d)), d)
        stacks.validate_stack(stacks.gram_from_unit_rows(rows), "gram")


def _gaussian(rng, shape):
    """One complex Gaussian array drawn as two real blocks, real parts first."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _one_object_density(n, rng):
    g = _gaussian(rng, (n, n))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def _one_object_pure(n, rng):
    amp = _gaussian(rng, (n,))
    return amp / np.linalg.norm(amp)


def _one_object_probing(n, m, rng):
    rows = _gaussian(rng, (n, m))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _one_object_hermitian(n, rng):
    g = _gaussian(rng, (n, n))
    return (g + g.conj().T) / 2.0


#: kind -> (normals per object, chunk transform, scalar draw, one-object formula),
#: each a function of (n, m): the dimension and the response dimension.
TRANSFORMS = {
    "complex": (
        lambda n, m: 2 * n * m,
        lambda raw, n, m: sampling.complex_from_normals(raw, (n, m)),
        lambda n, m, rng: sampling.complex_from_normals(rng.standard_normal(2 * n * m), (n, m)),
        lambda n, m, rng: _gaussian(rng, (n, m)),
    ),
    "density": (
        lambda n, m: 2 * n * n,
        lambda raw, n, m: sampling.density_from_normals(raw, n),
        lambda n, m, rng: sampling.density_from_normals(rng.standard_normal(2 * n * n), n),
        lambda n, m, rng: _one_object_density(n, rng),
    ),
    "probing": (
        lambda n, m: 2 * n * m,
        lambda raw, n, m: sampling.probing_from_normals(raw, n, m),
        lambda n, m, rng: sampling.probing_from_normals(rng.standard_normal(2 * n * m), n, m),
        _one_object_probing,
    ),
    "pure": (
        lambda n, m: 2 * m,
        lambda raw, n, m: sampling.pure_from_normals(raw, m),
        lambda n, m, rng: sampling.pure_from_normals(rng.standard_normal(2 * m), m),
        lambda n, m, rng: _one_object_pure(m, rng),
    ),
    "responses": (
        lambda n, m: 2 * n * m,
        lambda raw, n, m: sampling.pure_from_normals(raw.reshape(len(raw), n, 2 * m), m),
        lambda n, m, rng: sampling.pure_from_normals(rng.standard_normal((n, 2 * m)), m),
        lambda n, m, rng: np.array([_one_object_pure(m, rng) for _ in range(n)]).reshape(n, m),
    ),
    "ginibre": (
        lambda n, m: 2 * n * n,
        lambda raw, n, m: sampling.ginibre_from_normals(raw, n),
        lambda n, m, rng: sampling.ginibre_from_normals(rng.standard_normal(2 * n * n), n),
        lambda n, m, rng: _gaussian(rng, (n, n)) / np.sqrt(2.0),
    ),
    "hermitian": (
        lambda n, m: 2 * n * n,
        lambda raw, n, m: sampling.hermitian_from_normals(raw, n),
        lambda n, m, rng: sampling.hermitian_from_normals(rng.standard_normal(2 * n * n), n),
        lambda n, m, rng: _one_object_hermitian(n, rng),
    ),
}

TRANSFORM_DIMS = (1, 2, 3, 4, 5, 8, 13, 16, 32)


class TestTransforms:
    """A chunk transform rounds every object as the scalar draw of its trial does."""

    TRIALS = 40

    @pytest.mark.parametrize("kind", list(TRANSFORMS))
    @pytest.mark.parametrize("n", TRANSFORM_DIMS)
    def test_chunk_equals_the_scalar_draws(self, kind, n):
        width, transform, draw, formula = TRANSFORMS[kind]
        for m in sorted({1, 2, n, n + 3}):
            seed = 1000 * n + m
            raw = np.empty((self.TRIALS, width(n, m)))
            for t in range(self.TRIALS):
                sampling.trial_stream(seed, t).standard_normal(out=raw[t])
            chunk = transform(raw, n, m)
            for t in range(self.TRIALS):
                scalar = draw(n, m, sampling.trial_stream(seed, t))
                assert scalar.shape == chunk[t].shape
                assert np.array_equal(chunk[t], scalar)
                assert np.array_equal(scalar, formula(n, m, sampling.trial_stream(seed, t)))

    @pytest.mark.parametrize("n", TRANSFORM_DIMS)
    def test_ensemble_is_the_simplex_then_one_block_of_states(self, n):
        for size in (1, 3, 7):
            rng, replay = sampling.trial_stream(n, size), sampling.trial_stream(n, size)
            probs = sampling.random_simplex(size, rng)
            drawn = sampling.density_from_normals(rng.standard_normal((size, 2 * n * n)), n)
            assert np.array_equal(probs, replay.dirichlet(np.ones(size)))
            mats = np.array([_one_object_density(n, replay) for _ in range(size)])
            assert np.array_equal(drawn, mats)
            assert rng.standard_normal() == replay.standard_normal()

    @pytest.mark.parametrize("layout", ["one block", "contiguous", "column slice"])
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_density_is_the_normalized_product_on_every_layout(self, layout, n):
        # the campaigns pass contiguous stacks and column slices of a wider
        # fill, spanning three blocks or more; states.random_density passes one block
        count = 3 * (stacks._BLOCK_BYTES // (16 * n * n)) + 7
        rng = np.random.default_rng(n)
        raw = {
            "one block": lambda: rng.standard_normal(2 * n * n),
            "contiguous": lambda: rng.standard_normal((count, 2 * n * n)),
            "column slice": lambda: rng.standard_normal((count, 2 * n * n + 6))[:, 3:-3],
        }[layout]()
        g = sampling.complex_from_normals(raw, (n, n))
        product = g @ g.conj().swapaxes(-1, -2)
        expected = product / product.trace(axis1=-2, axis2=-1).real[..., None, None]
        mats = sampling.density_from_normals(raw, n)
        assert mats.shape == expected.shape == raw.shape[:-1] + (n, n)
        assert np.array_equal(mats, expected)


#: campaign fill -> the per-object draws it replaces, as (rows, cols) real
#: blocks in stream order, for dimension n and response dimension (or, for
#: holevo, mixture size) m; "pinching" is the state fill that acceptance
#: criterion 06 and the pinching oracle test make before drawing block sizes
FILLS = {
    "verify-s-theorems": lambda n, m: [(n, n)] * 2 + [(n, m)] * 2,
    "majorization-first": lambda n, m: [(n, n)] * 2 + [(1, m)] * (2 * n) + [(n, n)] * 2,
    "majorization-second": lambda n, m: [(n, n)] * 6,
    "holevo": lambda n, m: [(n, n)] * 2 * m,
    "pinching": lambda n, m: [(n, n)] * 2,
}


@pytest.mark.parametrize("fill", list(FILLS))
@pytest.mark.parametrize("n,m", [(1, 1), (2, 5), (4, 4), (8, 3), (32, 35)])
def test_one_fill_equals_the_draws_it_replaces(fill, n, m):
    blocks = FILLS[fill](n, m)
    rng, replay = sampling.trial_stream(m, n), sampling.trial_stream(m, n)
    raw = np.empty(sum(rows * cols for rows, cols in blocks))
    rng.standard_normal(out=raw)
    expected = np.concatenate([replay.standard_normal(shape).ravel() for shape in blocks])
    assert np.array_equal(raw, expected)
    # the stream continues where the per-object draws leave it
    assert rng.integers(1, 1000) == replay.integers(1, 1000)
    assert np.array_equal(rng.standard_normal(5), replay.standard_normal(5))


class TestVectorNorms:
    """The stacked norm is the 1-D ``np.linalg.norm`` of each vector, bit for bit."""

    @staticmethod
    def per_vector(vectors):
        norms = [np.linalg.norm(vectors[index]) for index in np.ndindex(vectors.shape[:-1])]
        return np.array(norms).reshape(vectors.shape[:-1])

    def test_every_length_up_to_1000(self):
        rng = np.random.default_rng(31)
        for m in range(1, 1001):
            vectors = sampling.complex_from_normals(rng.standard_normal(6 * m), (3, m))
            assert np.array_equal(matcore.vector_norms(vectors), self.per_vector(vectors))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8, 17, 64, 100, 128, 257, 1000])
    def test_non_contiguous_input(self, m):
        rng = np.random.default_rng(m)
        wide = sampling.complex_from_normals(rng.standard_normal(12 * (2 * m + 1)), (6, 2 * m + 1))
        unit = sampling.pure_from_normals(rng.standard_normal((6, 2 * m)), m)
        for vectors in (wide[:, 1 : m + 1], wide[:, ::2], wide.reshape(3, 2, -1)[:, :, :m]):
            assert np.array_equal(matcore.vector_norms(vectors), self.per_vector(vectors))
        for vectors in (np.asfortranarray(unit), unit[::2], unit[:, ::-1], unit[::-1, ::-1]):
            assert np.array_equal(stacks.unit_vector_norms(vectors), self.per_vector(vectors))

    def test_single_vector_and_empty_stack(self):
        vector = sampling.complex_from_normals(np.random.default_rng(3).standard_normal(18), (9,))
        assert matcore.vector_norms(vector) == np.linalg.norm(vector)
        assert matcore.vector_norms(np.zeros((0, 4))).shape == (0,)
