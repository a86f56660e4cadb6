"""Seeded random streams, draws and the transforms that build stacks from them.

All streams are numpy PCG64 generators keyed by SeedSequence values.  A
campaign's trial t always draws from the child stream ``(seed, t)``, so
results are reproducible for a fixed seed regardless of how trials are
scheduled across workers.  Identical seeds give bit-identical draws across
runs on the same platform.  :func:`trial_stream` builds one such stream
through numpy; :func:`trial_streams`, the one place that seeds a campaign,
gives a chunk's streams, mixed in bounded blocks of the chunk's spawn keys
and set one after another into a single reused generator, so each trial's
``rng`` is valid only until the next.

Every Gaussian object is made in two steps: a block of standard normals,
then a transform (``*_from_normals``) that turns a (..., k) stack of such
blocks into a stack of objects.  A draw of k normals in one generator call
gives the same numbers as the calls it spans, so a campaign fills one block
per trial and transforms a whole chunk at once.  Each transform rounds
every object as it rounds that object alone.

This module imports no value type, so a campaign loads none.  The samplers
that wrap a draw in a value type live with the type: ``random_density`` and the other state
samplers in :mod:`decobs.states`, the measurement samplers in
:mod:`decobs.povm`.
"""

from __future__ import annotations

import numpy as np

from . import matcore
from .errors import ValidationError
from .stacks import _blocks, validate_stack


def trial_stream(seed: int, trial: int) -> np.random.Generator:
    """Child generator for trial index ``trial``, built by numpy: the oracle of :func:`trial_streams`."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(trial),)))


# numpy's SeedSequence hash constants, and PCG64's 128-bit multiplier
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


# The two SeedSequence steps act alike on Python ints and on uint64 arrays of
# 32-bit words, so the seed's words are mixed once and a block of spawn words
# in one pass.  Each returns the next hash constant, which depends only on
# how many words were hashed before, never on the words.
def _hash(value, const: int, mult: int = _MULT_A):
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(word, hashed):
    mixed = (_MIX_L * word - _MIX_R * hashed) & _MASK32
    return mixed ^ mixed >> 16


def _absorb(pool: list, word, const: int) -> int:
    """Mix one entropy word into every pool word, in place."""
    for dst in range(_POOL):
        hashed, const = _hash(word, const)
        pool[dst] = _mix(pool[dst], hashed)
    return const


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """The pool of ``SeedSequence(seed, spawn_key=...)`` before its spawn words, and the hash constant."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    # a sequence with a spawn key pads a short seed with zeros to the pool size
    words += [0] * (_POOL - len(words))
    pool, const = [], _INIT_A
    for word in words[:_POOL]:
        hashed, const = _hash(word, const)
        pool.append(hashed)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed, const = _hash(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in words[_POOL:]:
        const = _absorb(pool, word, const)
    return pool, const


def _seed_words(pool: list[int], const: int, trials: range) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(t,)).generate_state(4, uint64)`` for each trial t, shape (n, 4).

    ``pool`` and ``const`` are the seed's, from :func:`_seed_pool`.
    """
    index = np.arange(trials.start, trials.stop, trials.step, dtype=np.uint64)
    pool = [np.full(len(index), word, dtype=np.uint64) for word in pool]
    # a spawn key is the index's 32-bit words, low first; indices below 2**32 have one
    high = index >> np.uint64(32)
    next_const = _absorb(pool, index & _MASK32, const)
    if high.any():
        longer = pool.copy()
        _absorb(longer, high, next_const)
        pool = [np.where(high > 0, a, b) for a, b in zip(longer, pool)]
    # generate_state(4, uint64): eight words drawn cyclically from the pool
    words, const = np.empty((len(index), 8), dtype=np.uint64), _INIT_B
    for k in range(8):
        words[:, k], const = _hash(pool[k % _POOL], const, _MULT_B)
    return words[:, 0::2] | words[:, 1::2] << np.uint64(32)


#: Bytes a trial's seeding holds at its peak: its four mixed words and their
#: list of Python ints (the mixing itself peaks at about 180 bytes a trial).
_SEED_BYTES = 272


def trial_streams(seed: int, trials: range):
    """Yield ``(i, rng)`` for each trial ``trials[i]``, rng drawing as ``trial_stream(seed, trials[i])``.

    The seed's words are mixed once, then the trials' spawn words in
    consecutive blocks of :func:`decobs.stacks._blocks` (about 480 trials),
    each mixed in one pass when the iteration reaches it, so seeding holds
    about 130 KB whatever the chunk size.  Every trial gets the same
    Generator, reset to the trial's state: a yielded ``rng`` is valid only
    until the next iteration.  Trial indices must be below 2**64.
    """
    pool, const = _seed_pool(int(seed))
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    blocks = _blocks(len(trials), _SEED_BYTES)
    words = (row for block in blocks for row in _seed_words(pool, const, trials[block]).tolist())
    for i, (s_high, s_low, i_high, i_low) in enumerate(words):
        # pcg64_set_seed: state 0, one step, add the seed, one more step
        inc = ((i_high << 64 | i_low) << 1 | 1) & _MASK128
        state = ((inc + (s_high << 64 | s_low)) * _PCG_MULT + inc) & _MASK128
        # the whole state, so no 32-bit draw buffered by the last trial is left
        bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0,
        }
        yield i, rng


def complex_from_normals(raw, shape: tuple[int, ...]) -> np.ndarray:
    """Complex Gaussians of the given shape from a (..., k) stack of standard normals.

    The first half of each block holds the real parts and the second half
    the imaginary parts, each in C order; k is twice the size of ``shape``.
    """
    raw = np.asarray(raw, dtype=float)
    lead, half = raw.shape[:-1], raw.shape[-1] // 2
    out = 1j * raw[..., half:].reshape(lead + shape)
    # the same sums as real + 1j * imag, without a second complex temporary
    out += raw[..., :half].reshape(lead + shape)
    return out


def ginibre_from_normals(raw, n: int) -> np.ndarray:
    """Complex Gaussian n x n matrices with E|z_ij|^2 = 1 from (..., 2 n^2) normals."""
    return complex_from_normals(raw, (n, n)) / np.sqrt(2.0)


def haar_from_ginibre(z) -> np.ndarray:
    """Haar unitaries from the QR factors of a (..., n, n) complex Gaussian stack.

    The triangular factor's diagonal phases are divided out so the factor has
    positive real diagonal, which is what makes the distribution Haar rather
    than merely unitary.  A stacked QR factors each matrix bit for bit as it
    factors the matrix alone.  A singular matrix whose triangular factor has
    a zero on its diagonal, whose phase is 0/0, raises "ginibre-full-rank".
    """
    q, r = np.linalg.qr(z)
    diag = r.diagonal(axis1=-2, axis2=-1)
    if not diag.all():
        raise ValidationError("ginibre-full-rank", detail="a triangular factor has a zero on its diagonal")
    return q * (diag / np.abs(diag))[..., None, :]


def density_from_normals(raw, n: int) -> np.ndarray:
    """Trace-normalized G G^dagger of the complex Gaussians G of (..., 2 n^2) normals, not validated.

    G and G G^dagger are formed one block of the stack at a time, within the
    block budget of :mod:`decobs.stacks`, so the temporaries stay small
    whatever the stack size; each product is the one ``g @ g.conj().T`` makes.
    """
    raw = np.asarray(raw, dtype=float)
    flat = raw.reshape(-1, raw.shape[-1])
    mats = np.empty((len(flat), n, n), dtype=complex)
    for block in _blocks(len(flat), mats[:1].nbytes):
        g = complex_from_normals(flat[block], (n, n))
        np.matmul(g, g.conj().swapaxes(-1, -2), out=mats[block])
    mats /= mats.trace(axis1=-2, axis2=-1).real[:, None, None]
    return mats.reshape(raw.shape[:-1] + (n, n))


def pure_from_normals(raw, n: int) -> np.ndarray:
    """Complex Gaussian vectors of (..., 2 n) normals, each divided by its norm, not validated."""
    amp = complex_from_normals(raw, (n,))
    return amp / matcore.vector_norms(amp)[..., None]


def hermitian_from_normals(raw, n: int) -> np.ndarray:
    """Hermitian parts (G + G^dagger) / 2 of the complex Gaussians G of (..., 2 n^2) normals."""
    g = complex_from_normals(raw, (n, n))
    return (g + g.conj().swapaxes(-1, -2)) / 2.0


def unit_spectral_radius(h) -> np.ndarray:
    """A (..., n, n) Hermitian stack rescaled to unit spectral radius; zero matrices stay.

    The radii come from the spectra that the ``"hermitian"`` kind of
    :func:`~decobs.stacks.validate_stack` solves, so a stack that is not
    finite and Hermitian is refused here, with its first failing matrix's
    residual.  The solve symmetrizes each matrix first, which leaves an
    exactly Hermitian matrix, as :func:`hermitian_from_normals` makes them,
    as it is, so the radii are those of the matrices given.
    """
    h = np.asarray(h, dtype=complex)
    radius = abs(validate_stack(h, "hermitian")).max(axis=-1, initial=0.0)[..., None, None]
    return np.divide(h, radius, out=h.copy(), where=radius > 0)


def probing_from_normals(raw, n: int, m: int) -> np.ndarray:
    """n x m complex Gaussians of (..., 2 n m) normals with every row divided by its norm, not validated."""
    rows = complex_from_normals(raw, (n, m))
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def random_block_sizes(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniformly random composition of n into 1..n positive parts."""
    count = int(rng.integers(1, n + 1))
    if count == 1:
        return (n,)
    # the draws of rng.choice(np.arange(1, n), ...), less one, without its array arguments
    edges = [0, *(cut + 1 for cut in sorted(rng.choice(n - 1, size=count - 1, replace=False).tolist())), n]
    return tuple(b - a for a, b in zip(edges, edges[1:]))


def conjugated_projectors(basis, projectors) -> np.ndarray:
    """U P_k U^dagger for (..., n, n) unitaries and (..., k, n, n) projector families.

    Each product rounds as ``u @ p @ u.conj().T`` does for one matrix; dead
    (all-zero) slots are not computed and stay zero.  ``basis`` has the
    leading shape of the families.
    """
    basis = np.asarray(basis, dtype=complex)
    projectors = np.asarray(projectors, dtype=complex)
    live = projectors.any(axis=(-2, -1))
    owners = basis[np.nonzero(live)[:-1]]
    out = np.zeros_like(projectors)
    out[live] = owners @ projectors[live] @ owners.conj().swapaxes(-1, -2)
    return out


def random_simplex(k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the probability simplex: ``rng.dirichlet(np.ones(k))``, bit for bit.

    A Dirichlet(1, ..., 1) vector is k standard exponentials over their sum.
    numpy's ``dirichlet`` draws each coordinate as a shape-1 standard gamma,
    which is its standard exponential, adds them left to right from 0.0 and
    multiplies each by the reciprocal of the sum.  The same arithmetic here
    gives the same bits and leaves the stream where ``dirichlet`` leaves it,
    without ``dirichlet``'s per-call argument handling.  ``draws / total``,
    or a pairwise ``draws.sum()`` from k = 8 on, would round differently.
    """
    draws = rng.standard_exponential(k)
    total = 0.0
    for draw in draws.tolist():
        total += draw
    return draws * (1.0 / total)
