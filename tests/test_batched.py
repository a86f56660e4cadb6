"""The stacked campaign kernels against one-trial-at-a-time references.

The campaigns ``verify-s-theorems``, ``holevo``, ``majorization`` and
``luders-equiv`` stack their trials and run every map, check and entropy
once per chunk.  Here each campaign is replayed trial by trial, from the
trial's own stream, through the value-type samplers and one-object kernel
calls, and every row must come out exactly equal (``==``, not
approximately).  The stack kernels must also agree bit for bit with the
scalar types on hard inputs (dead branches, rank-deficient spectra, padded
projector families) and raise the scalar types' errors.
"""

import os
import re
import time

import numpy as np
import pytest

from decobs import campaigns, cli, matcore, sampling, stacks, states
from decobs.entropy import (
    NEG_INFINITY,
    entropies_of_spectra,
    entropy_of_spectrum,
    parse_functional,
)
from decobs.errors import ValidationError
from decobs.majorization import dominance, entropy_gap, fan_dominance, pinching_dominance, schur_dominance
from decobs.states import DensityMatrix, ProjectorSet, PureState
from decobs.tolerances import (
    CONSISTENCY_TOL,
    NEAR_TRIVIAL_MARGIN,
    SINGULAR_EIGENVALUE,
    SINGULAR_SKIP,
    TRIVIALITY_TOL,
    ZERO_PROBABILITY,
)

FUNCTIONALS = ("von-neumann", "linear", "renyi:0.5", "renyi:2", "log-det", "renyi:0.3")


def _report_row(trial, dim, functional, side, lhs, rhs, margin, trivial, violation):
    keys = ("trial", "dim", "functional", "side", "lhs", "rhs", "margin", "trivial", "violation")
    return dict(zip(keys, (trial, dim, functional, side, lhs, rhs, margin, trivial, violation)))


def _check_row(trial, dim, label, side, lhs, rhs, trivial, tol):
    margin = entropy_gap(rhs, lhs)
    violation = not (lhs <= rhs + tol)
    row = _report_row(trial, dim, label, side, lhs, rhs, margin, trivial, violation)
    if not (trivial is None or trivial or violation):
        row["strict"] = margin > NEAR_TRIVIAL_MARGIN
    return row


def oracle_s_theorems(cfg):
    """verify-s-theorems replayed one trial at a time through one-object kernel calls."""
    functionals = [parse_functional(text) for text in cfg.functionals]
    response_dim = cfg.response_dim or cfg.dim
    rows, consistency = [], 0.0
    for trial in range(cfg.trials):
        rng = sampling.trial_stream(cfg.seed, trial)
        rho = states.random_density(cfg.dim, rng)
        probe = sampling.probing_from_normals(rng.standard_normal(2 * cfg.dim * response_dim), cfg.dim, response_dim)
        stacks.validate_probing_stack(probe)
        probs, states_after = stacks.observe_stack(rho.mat, probe)
        averaged = DensityMatrix(stacks.average_stack(probs, states_after))
        decohered = DensityMatrix(rho.mat * stacks.response_gram_stack(probe))
        consistency = max(consistency, matcore.max_abs(averaged.mat - decohered.mat))
        lam_rho = matcore.hermitian_spectrum(rho.mat)
        lam_dec = matcore.hermitian_spectrum(decohered.mat)
        branches = [(p, DensityMatrix(state).spectrum) for p, state in zip(probs.tolist(), states_after) if p > 0.0]
        obs_trivial = all(matcore.max_abs(lam - lam_rho) <= TRIVIALITY_TOL for _, lam in branches)
        dec_trivial = matcore.max_abs(lam_dec - lam_rho) <= TRIVIALITY_TOL
        for f in functionals:
            if f.kind == "log-det" and lam_rho[-1] < SINGULAR_SKIP:
                continue
            s_rho = entropy_of_spectrum(lam_rho, f)
            s_dec = entropy_of_spectrum(lam_dec, f)
            s_expected = 0.0
            for p, lam in branches:
                s_expected += p * entropy_of_spectrum(lam, f)
            rows.append(_check_row(trial, cfg.dim, f.label, "observation", s_expected, s_rho, obs_trivial, cfg.tol))
            rows.append(_check_row(trial, cfg.dim, f.label, "decoherence", s_rho, s_dec, dec_trivial, cfg.tol))
    return rows, consistency


def oracle_holevo(cfg):
    """holevo replayed one trial at a time through one-mixture draws, value types and kernel calls."""
    functionals = [parse_functional(text) for text in cfg.functionals]
    rows = []
    for trial in range(cfg.trials):
        rng = sampling.trial_stream(cfg.seed, trial)
        size = cfg.ensemble_size or int(rng.integers(2, 6))
        probs = stacks.clean_probabilities(sampling.random_simplex(size, rng))
        normals = rng.standard_normal((size, 2 * cfg.dim * cfg.dim))
        mixed = [DensityMatrix(mat) for mat in sampling.density_from_normals(normals, cfg.dim)]
        live = [(p, rho) for p, rho in zip(probs.tolist(), mixed) if p > 0.0]
        average = DensityMatrix(stacks.average_stack([p for p, _ in live], np.array([rho.mat for _, rho in live])))
        lam_avg = matcore.hermitian_spectrum(average.mat)
        branches = [(p, matcore.hermitian_spectrum(rho.mat)) for p, rho in live]
        for f in functionals:
            lhs = 0.0
            for p, lam in branches:
                lhs += p * entropy_of_spectrum(lam, f)
            rhs = entropy_of_spectrum(lam_avg, f)
            rows.append(_check_row(trial, cfg.dim, f.label, "holevo", lhs, rhs, None, cfg.tol))
    return rows


def _s_theorems_grid():
    # at dim 40 a trial's 40 or 43 branches are cut into blocks
    for dim, trials in ((1, 10), (2, 10), (4, 10), (8, 6), (16, 3), (32, 2), (40, 2)):
        for response_dim in sorted({1, 2, dim, dim + 3}):
            yield dim, trials, response_dim


@pytest.mark.parametrize("dim,trials,response_dim", list(_s_theorems_grid()))
def test_s_theorems_rows_equal_the_scalar_oracle(dim, trials, response_dim):
    cfg = cli.CampaignConfig(
        "verify-s-theorems", seed=dim * 31 + response_dim, dim=dim, trials=trials,
        response_dim=response_dim, functionals=FUNCTIONALS,
    )
    result = cli.run_s_theorems(cfg)
    expected, consistency = oracle_s_theorems(cfg)
    assert result.report["rows"] == expected
    assert result.report["summary"]["consistency_max_residual"] == consistency


@pytest.mark.parametrize("dim", [1, 4, 8, 16])
@pytest.mark.parametrize("ensemble_size", [1, 7, None])
def test_holevo_rows_equal_the_scalar_oracle(dim, ensemble_size):
    cfg = cli.CampaignConfig(
        "holevo", seed=dim + 100 * (ensemble_size or 0), dim=dim, trials=12 if dim < 16 else 4,
        ensemble_size=ensemble_size, functionals=FUNCTIONALS,
    )
    result = cli.run_holevo(cfg)
    assert result.report["rows"] == oracle_holevo(cfg)


def _strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)


#: One command line of each seeded campaign, several chunks long at one trial a chunk.
SEEDED_COMMANDS = [
    ["verify-s-theorems", "--dim", "4", "--trials", "30", "--seed", "3", "--response-dim", "6"],
    ["verify-s-theorems", "--dim", "9", "--trials", "5", "--seed", "4", "--units", "bits"],
    # by default, chunks of several trials whose branches stream through in several blocks
    ["verify-s-theorems", "--dim", "24", "--trials", "9", "--seed", "12", "--response-dim", "30"],
    ["holevo", "--dim", "5", "--trials", "25", "--seed", "5"],
    ["holevo", "--dim", "3", "--trials", "25", "--seed", "6", "--ensemble-size", "4", "--units", "bits"],
    ["majorization", "--dim", "5", "--trials", "25", "--seed", "8", "--response-dim", "7"],
    ["luders-equiv", "--dim", "6", "--trials", "25", "--seed", "9"],
]


def _with_format(argv, fmt):
    takes_entropy = argv[0] not in ("majorization", "luders-equiv")
    return argv + ["--format", fmt] + sum((["--entropy", f] for f in FUNCTIONALS if takes_entropy), [])


@pytest.mark.parametrize("argv", SEEDED_COMMANDS)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_output_does_not_depend_on_the_chunk_size(capsys, monkeypatch, argv, fmt):
    args = _with_format(argv, fmt)
    default_code = cli.main(args)
    default = capsys.readouterr().out
    monkeypatch.setattr(campaigns, "CHUNK_BYTES", 1)
    assert all(len(chunk) == 1 for chunk in campaigns.plan_chunks(25, 5, 3))
    single_code = cli.main(args)
    single = capsys.readouterr().out
    assert single_code == default_code == 0
    assert _strip_timestamp(single) == _strip_timestamp(default)


class TestChunkPlanner:
    @pytest.mark.parametrize("slots,dim", [(1, 1), (4, 4), (5, 8), (7, 16), (32, 32), (3, 30)])
    def test_largest_stack_fits_the_budget(self, slots, dim):
        chunks = campaigns.plan_chunks(97, slots, dim)
        assert [t for chunk in chunks for t in chunk] == list(range(97))
        for chunk in chunks:
            assert len(chunk) * slots * dim * dim * 16 <= campaigns.CHUNK_BYTES

    def test_dim_32_takes_one_trial_per_chunk(self):
        assert [len(chunk) for chunk in campaigns.plan_chunks(30, 32, 32)] == [1] * 30

    def test_a_trial_larger_than_the_budget_is_a_chunk_of_its_own(self):
        assert [len(chunk) for chunk in campaigns.plan_chunks(3, 35, 32)] == [1, 1, 1]

    def test_probe_small_is_one_chunk(self):
        assert campaigns.plan_chunks(200, 4, 4) == [range(0, 200)]

    @pytest.mark.parametrize("response_dim", [2000, 20000])
    def test_majorization_counts_the_responses(self, monkeypatch, allowed_cpus, response_dim):
        # the responses stack and its raw normals, per chunk; one CPU, so every chunk runs here
        allowed_cpus(1)
        transform = sampling.pure_from_normals
        drawn = []

        def recording(raw, m):
            vectors = transform(raw, m)
            drawn.append((len(raw), raw.nbytes + vectors.nbytes))
            return vectors

        monkeypatch.setattr(sampling, "pure_from_normals", recording)
        result = cli.run_majorization(cli.CampaignConfig("majorization", dim=2, response_dim=response_dim, trials=200))
        assert len(result.report["rows"]) == 4 * 200
        assert sum(trials for trials, _ in drawn) == 200
        for trials, nbytes in drawn:
            # a trial larger than the budget is a chunk of its own
            assert trials == 1 or nbytes <= campaigns.CHUNK_BYTES
        assert len(drawn) > 1


class TestBranchBlocks:
    """verify-s-theorems observes, checks and averages a chunk's branches in blocks within the budget."""

    @pytest.fixture
    def observed(self, monkeypatch, allowed_cpus):
        """(trials, branches, bytes of branch states) of each ``observe_stack`` call of the campaign."""
        allowed_cpus(1)
        observe = campaigns.observe_stack
        calls = []

        def recording(rhos, probes):
            probs, branches = observe(rhos, probes)
            calls.append((len(rhos), probs.size, branches.nbytes))
            return probs, branches

        monkeypatch.setattr(campaigns, "observe_stack", recording)
        return calls

    @pytest.fixture
    def planned(self, monkeypatch):
        """The chunk lists the campaigns hand to the chunk map."""
        mapped = campaigns._map_chunks
        plans = []
        monkeypatch.setattr(campaigns, "_map_chunks", lambda run, chunks: plans.append(chunks) or mapped(run, chunks))
        return plans

    @pytest.mark.parametrize(
        "dim,trials,blocks", [(32, 5, [(1, 32)] * 5), (40, 2, [(1, 20)] * 4)], ids=["dim-32", "dim-40"]
    )
    def test_each_block_fits_the_budget(self, observed, dim, trials, blocks):
        cli.run_s_theorems(cli.CampaignConfig("verify-s-theorems", dim=dim, trials=trials))
        assert [(n, branches) for n, branches, _ in observed] == blocks
        assert all(nbytes <= campaigns.CHUNK_BYTES for *_, nbytes in observed)

    @pytest.mark.parametrize("dim", [32, 40])
    def test_a_branch_larger_than_the_budget_is_a_block_of_its_own(self, monkeypatch, observed, dim):
        monkeypatch.setattr(campaigns, "CHUNK_BYTES", dim * dim * 16 - 1)
        cli.run_s_theorems(cli.CampaignConfig("verify-s-theorems", dim=dim, trials=2, response_dim=3))
        assert [(n, branches) for n, branches, _ in observed] == [(1, 1)] * 6

    def test_the_seeded_command_streams_several_blocks_through_chunks_of_several_trials(self, observed, planned):
        cfg = cli.CampaignConfig("verify-s-theorems", dim=24, trials=9, response_dim=30)
        cli.run_s_theorems(cfg)
        assert [len(chunk) for chunk in planned[0]] == [6, 3]
        assert [(n, branches) for n, branches, _ in observed] == [(1, 30)] * 9

    @pytest.mark.parametrize("order", ["psd-first", "trace-first"])
    def test_the_first_failing_branch_raises_as_in_the_whole_stack(self, capsys, monkeypatch, allowed_cpus, order):
        # dim 40: the two trials' 80 branches are four blocks of 20; blocks 2 and 4 each get a bad branch
        allowed_cpus(1)
        non_psd = np.diag([1.5, -0.5] + [0.0] * 38).astype(complex)
        bad_trace = np.eye(40, dtype=complex)
        planted = dict(zip((2, 4), (non_psd, bad_trace) if order == "psd-first" else (bad_trace, non_psd)))
        observe = campaigns.observe_stack
        blocks = []

        def planting(rhos, probes):
            probs, branches = observe(rhos, probes)
            blocks.append(branches)
            if len(blocks) in planted:
                branches[0, 5] = planted[len(blocks)]
            return probs, branches

        monkeypatch.setattr(campaigns, "observe_stack", planting)
        assert cli.main(["verify-s-theorems", "--dim", "40", "--trials", "2"]) == 2
        # no block is built past the failing one, and its error is the earlier bad branch's
        assert len(blocks) == 2
        whole = np.concatenate([branches.reshape(-1, 40, 40) for branches in blocks])
        expected = TestStackErrorsMatchScalarTypes.error_of(lambda: stacks.validate_stack(whole, "density"))
        assert expected == TestStackErrorsMatchScalarTypes.error_of(lambda: DensityMatrix(planted[2]))
        assert capsys.readouterr().err == f"error: {expected[2]}\n"

    def test_probe_large_plans_four_to_eight_chunks(self, planned):
        # the probe-large benchmark workload: dim 32, 30 trials, response dim 32
        cli.run_s_theorems(cli.CampaignConfig("verify-s-theorems", dim=32, trials=30))
        assert 4 <= len(planned[0]) <= 8


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_one_thread():
    # a fork copies one thread; OpenBLAS's own threads are kept off by tests/conftest.py
    assert len(os.listdir("/proc/self/task")) == 1


def _wait_for(path, seconds=30.0):
    deadline = time.monotonic() + seconds
    while not path.exists():
        assert time.monotonic() < deadline, f"{path.name} never appeared"
        time.sleep(0.001)


class TestChunkMap:
    """The chunk map gives the serial loop's report, error and exit code on any worker count."""

    @pytest.mark.parametrize(
        "argv", SEEDED_COMMANDS + [["luders-equiv", "--dim", "2", "--trials", "1025", "--seed", "10"]]
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_output_does_not_depend_on_the_worker_count(self, capfd, monkeypatch, allowed_cpus, forks, argv, fmt):
        # one trial a chunk; 1,025 chunks make stripes of 513 and 512
        monkeypatch.setattr(campaigns, "CHUNK_BYTES", 1)
        args = _with_format(argv, fmt)
        _assert_one_thread()
        allowed_cpus(1)
        serial_code = cli.main(args)
        serial = capfd.readouterr()
        assert forks == []
        allowed_cpus(2)
        mapped_code = cli.main(args)
        mapped = capfd.readouterr()
        assert len(forks) == 1
        assert mapped_code == serial_code == 0
        assert _strip_timestamp(mapped.out) == _strip_timestamp(serial.out)
        assert mapped.err == serial.err == ""
        _assert_no_child_left()

    @staticmethod
    def plant(monkeypatch, planted):
        """Draw verify-s-theorems one trial a chunk; a trial's state is ``planted(trial)`` unless that is None."""
        sample = campaigns.sample_s_theorems

        def wrapped(cfg, chunk):
            rho, probe = sample(cfg, chunk)
            for i, trial in enumerate(chunk):
                state = planted(trial)
                if state is not None:
                    rho[i] = state
            return rho, probe

        monkeypatch.setattr(campaigns, "sample_s_theorems", wrapped)
        monkeypatch.setattr(campaigns, "CHUNK_BYTES", 1)

    @pytest.mark.parametrize("first", [1, 2])
    def test_the_earlier_of_two_failing_trials_is_reported(self, capsys, tmp_path, monkeypatch, allowed_cpus, first):
        # trials 1 and 2 draw bad states in two processes; trial `first` fails first
        bad = {1: np.diag([1.5, -0.5, 0.0]).astype(complex), 2: np.diag([0.5, 0.5, 0.5]).astype(complex)}

        def planted(trial):
            if trial in bad:
                (tmp_path / f"drawn-{trial}").write_text(str(os.getpid()))
                _wait_for(tmp_path / f"drawn-{3 - trial}")
                if trial != first:
                    _wait_for(tmp_path / f"failing-{first}")
                (tmp_path / f"failing-{trial}").touch()
                return bad[trial]

        self.plant(monkeypatch, planted)
        allowed_cpus(2)
        _assert_one_thread()
        code = cli.main(["verify-s-theorems", "--dim", "3", "--trials", "6"])
        captured = capsys.readouterr()
        assert (tmp_path / "drawn-1").read_text() != (tmp_path / "drawn-2").read_text()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {TestStackErrorsMatchScalarTypes.error_of(lambda: DensityMatrix(bad[1]))[2]}\n"
        _assert_no_child_left()

    def test_a_dead_worker_is_an_input_error_not_lost_trials(self, capsys, tmp_path, monkeypatch, allowed_cpus):
        parent = os.getpid()

        def planted(trial):
            if os.getpid() != parent:
                (tmp_path / "died").touch()
                os._exit(3)
            _wait_for(tmp_path / "died")

        self.plant(monkeypatch, planted)
        allowed_cpus(2)
        _assert_one_thread()
        code = cli.main(["verify-s-theorems", "--dim", "3", "--trials", "6"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert re.fullmatch(r"error: a campaign worker exited without returning trials (\d) to \1\n", captured.err)
        _assert_no_child_left()

    def test_an_interrupt_kills_and_reaps_the_workers(self, tmp_path, monkeypatch, allowed_cpus):
        parent = os.getpid()
        setaffinity = os.sched_setaffinity
        pinned = []

        def recording(pid, cpus):
            if os.getpid() == parent:
                pinned.append(set(cpus))
            setaffinity(pid, cpus)

        def planted(trial):
            if os.getpid() != parent:
                (tmp_path / "working").touch()
                time.sleep(60)
            _wait_for(tmp_path / "working")
            raise KeyboardInterrupt

        self.plant(monkeypatch, planted)
        monkeypatch.setattr(os, "sched_setaffinity", recording)
        allowed_cpus(2)
        _assert_one_thread()
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cli.main(["verify-s-theorems", "--dim", "3", "--trials", "6"])
        assert time.monotonic() - started < 30
        _assert_no_child_left()
        # pinned to the first CPU, then given back every CPU it was shown
        assert pinned == [{0}, {0, 1}]

    def test_each_process_samples_its_own_stripe(self, capsys, tmp_path, monkeypatch, allowed_cpus):
        def planted(trial):
            (tmp_path / f"sampled-{trial}").write_text(str(os.getpid()))

        self.plant(monkeypatch, planted)
        allowed_cpus(2)
        _assert_one_thread()
        assert cli.main(["verify-s-theorems", "--dim", "3", "--trials", "6"]) == 0
        capsys.readouterr()
        pids = {trial: (tmp_path / f"sampled-{trial}").read_text() for trial in range(6)}
        assert {pids[0], pids[2], pids[4]} == {str(os.getpid())}
        assert len({pids[1], pids[3], pids[5]}) == 1 and pids[1] != pids[0]
        _assert_no_child_left()

    def test_a_failing_chunk_ends_its_stripe(self, capsys, tmp_path, monkeypatch, allowed_cpus):
        bad = np.diag([1.5, -0.5, 0.0]).astype(complex)

        def planted(trial):
            (tmp_path / f"sampled-{trial}").touch()
            return bad if trial == 2 else None

        self.plant(monkeypatch, planted)
        allowed_cpus(2)
        _assert_one_thread()
        code = cli.main(["verify-s-theorems", "--dim", "3", "--trials", "6"])
        captured = capsys.readouterr()
        # trial 4, the parent's next after trial 2, is never drawn; the worker's stripe runs to its end
        assert sorted(path.name for path in tmp_path.iterdir()) == [f"sampled-{t}" for t in (0, 1, 2, 3, 5)]
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {TestStackErrorsMatchScalarTypes.error_of(lambda: DensityMatrix(bad))[2]}\n"
        _assert_no_child_left()

    @pytest.mark.parametrize("where", ["parent", "worker"])
    def test_running_out_of_memory_is_exit_code_two(self, capsys, monkeypatch, allowed_cpus, where):
        parent = os.getpid()

        def planted(trial):
            # trial 1 is the worker's first, trial 0 the parent's
            if trial == (1 if where == "worker" else 0):
                assert (os.getpid() == parent) is (where == "parent")
                raise MemoryError("Unable to allocate 298. GiB for an array")

        self.plant(monkeypatch, planted)
        allowed_cpus(2)
        _assert_one_thread()
        code = cli.main(["verify-s-theorems", "--dim", "3", "--trials", "6"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: Unable to allocate 298. GiB for an array\n"
        _assert_no_child_left()

    @pytest.mark.parametrize("cpus,failing", [(2, {1}), (3, {2}), (3, {1, 2})], ids=["only", "second", "both"])
    def test_the_parent_takes_the_stripes_of_workers_it_could_not_fork(
        self, capfd, monkeypatch, allowed_cpus, cpus, failing
    ):
        monkeypatch.setattr(campaigns, "CHUNK_BYTES", 1)
        args = _with_format(SEEDED_COMMANDS[0], "json")
        _assert_one_thread()
        allowed_cpus(1)
        serial_code = cli.main(args)
        serial = capfd.readouterr()
        fork, calls, forked = os.fork, [], []

        def failing_fork():
            calls.append(len(calls) + 1)
            if calls[-1] in failing:
                raise OSError(11, "Resource temporarily unavailable")
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", failing_fork)
        allowed_cpus(cpus)
        code = cli.main(args)
        mapped = capfd.readouterr()
        # forking stops at the first failure
        assert calls == list(range(1, min(failing) + 1))
        assert len(forked) == min(failing) - 1
        assert code == serial_code == 0
        assert _strip_timestamp(mapped.out) == _strip_timestamp(serial.out)
        assert mapped.err == serial.err == ""
        _assert_no_child_left()


def _reference_observe(rho, probe):
    """Observation branches as the one-branch-at-a-time formula writes them."""
    populations = rho.diagonal().real
    out = []
    for k in range(probe.shape[1]):
        column = probe[:, k]
        p = float(populations @ (np.abs(column) ** 2))
        out.append((p, rho * np.outer(column, column.conj()) / p if p > ZERO_PROBABILITY else None))
    return out


@pytest.mark.parametrize("dim,trials,response_dim", list(_s_theorems_grid()))
def test_observe_and_average_match_the_one_branch_formulas(dim, trials, response_dim):
    rng = np.random.default_rng(dim * 7 + response_dim)
    for _ in range(trials):
        rho = states.random_density(dim, rng)
        probe = sampling.probing_from_normals(rng.standard_normal(2 * dim * response_dim), dim, response_dim)
        probs, branches = stacks.observe_stack(rho.mat, probe)
        total = np.zeros((dim, dim), dtype=complex)
        for p_stack, state_stack, (p, state) in zip(probs.tolist(), branches, _reference_observe(rho.mat, probe)):
            assert p_stack == p
            assert np.array_equal(DensityMatrix(state_stack).mat, state)
            total = total + p * state
        assert np.array_equal(stacks.average_stack(probs, branches), total)


@pytest.mark.parametrize("cuts", [(0, 5), (0, 1, 5), (0, 2, 3, 5)])
def test_an_average_added_piece_by_piece_is_the_whole_stack_average(cuts):
    rng = np.random.default_rng(len(cuts))
    rhos = sampling.density_from_normals(rng.standard_normal((3, 2 * 6 * 6)), 6)
    probes = sampling.probing_from_normals(rng.standard_normal((3, 2 * 6 * 5)), 6, 5)
    probs, branches = stacks.observe_stack(rhos, probes)
    total = np.zeros_like(rhos)
    for start, stop in zip(cuts, cuts[1:]):
        assert stacks.average_stack(probs[:, start:stop], branches[:, start:stop], out=total) is total
    assert np.array_equal(total, stacks.average_stack(probs, branches))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8, 13, 16, 32])
def test_branch_probabilities_equal_the_one_dot_loop(dim):
    rng = np.random.default_rng(dim + 60)
    trials = max(4, 4096 // (dim * dim))
    for response_dim in sorted({1, dim, dim + 3}):
        rhos = sampling.density_from_normals(rng.standard_normal((trials, 2 * dim * dim)), dim)
        probes = sampling.probing_from_normals(rng.standard_normal((trials, 2 * dim * response_dim)), dim, response_dim)
        probs, _ = stacks.observe_stack(rhos, probes)
        # one 1-D dot per branch, of the strided populations with the contiguous column weights
        populations = rhos.diagonal(axis1=-2, axis2=-1).real
        weights = np.abs(np.ascontiguousarray(probes.swapaxes(-1, -2))) ** 2
        expected = np.empty((trials, response_dim))
        for t in range(trials):
            for k in range(response_dim):
                expected[t, k] = populations[t] @ weights[t, k]
        expected[expected <= ZERO_PROBABILITY] = 0.0
        assert np.array_equal(probs, expected)


class TestDeadBranch:
    def test_stack_gives_zero_probability_and_no_state(self):
        rng = np.random.default_rng(11)
        rhos = sampling.density_from_normals(rng.standard_normal((4, 18)), 3)
        probes = np.zeros((4, 3, 4), dtype=complex)
        probes[..., :3] = sampling.probing_from_normals(rng.standard_normal((4, 18)), 3, 3)
        probs, branches = stacks.observe_stack(rhos, probes)
        assert np.all(probs[:, -1] == 0.0)
        assert np.all(branches[:, -1] == 0.0)
        for rho, probe, p_row, state_row in zip(rhos, probes, probs, branches):
            stacks.validate_probing_stack(probe)
            p_one, states_one = stacks.observe_stack(DensityMatrix(rho).mat, probe)
            assert p_one[-1] == 0.0 and not states_one[-1].any()
            for p_item, state_item, (p, state), p_stack, state_stack in zip(
                p_one[:-1], states_one[:-1], _reference_observe(rho, probe), p_row, state_row
            ):
                assert p_item == p == p_stack
                assert np.array_equal(state_item, state)
                assert np.array_equal(state_stack, state)

    def test_campaign_skips_the_dead_branch(self, monkeypatch):
        transform = sampling.probing_from_normals

        def with_zero_column(raw, n, m):
            # the campaign and the oracle's scalar draws both go through this transform
            live = transform(raw[..., : 2 * n * (m - 1)], n, m - 1)
            return np.concatenate([live, np.zeros(live.shape[:-1] + (1,))], axis=-1)

        monkeypatch.setattr(sampling, "probing_from_normals", with_zero_column)
        cfg = cli.CampaignConfig("verify-s-theorems", seed=2, dim=4, trials=8, response_dim=5, functionals=FUNCTIONALS)
        result = cli.run_s_theorems(cfg)
        assert result.exit_code == 0
        expected, _ = oracle_s_theorems(cfg)
        assert result.report["rows"] == expected


def _reference_entropy(lam, functional):
    """The entropy formulas on one clamped spectrum, as written out per functional."""
    lam = np.clip(np.asarray(lam, dtype=float), 0.0, 1.0)
    lam = np.where(lam <= SINGULAR_EIGENVALUE, 0.0, lam)
    if functional.kind == "von-neumann":
        positive = lam[lam > 0.0]
        return float(-(positive * np.log(positive)).sum() + 0.0)
    if functional.kind == "linear":
        return float((lam - lam**2).sum())
    if functional.kind == "renyi":
        total = float((lam**functional.alpha).sum())
        return total if functional.alpha < 1.0 else -total
    if float(lam.min()) <= SINGULAR_EIGENVALUE:
        return NEG_INFINITY
    return float(np.log(lam).sum())


def _rank_deficient_spectra(dim, count, rng):
    """Descending spectra of pure and low-rank states, with exact and rounding-level zeros."""
    spectra = []
    for index in range(count):
        rank = 1 + index % dim
        g = sampling.complex_from_normals(rng.standard_normal(2 * dim * rank), (dim, rank))
        mat = g @ g.conj().T
        lam = matcore.hermitian_spectrum(mat / np.trace(mat).real)
        if index % 3 == 0:
            lam[rank:] = 0.0
        spectra.append(lam)
    return np.array(spectra)


@pytest.mark.parametrize("dim", [8, 13, 32])
def test_entropy_kernel_on_rank_deficient_spectra_is_bit_identical(dim):
    spectra = _rank_deficient_spectra(dim, 4 * dim, np.random.default_rng(dim))
    functionals = [parse_functional(text) for text in FUNCTIONALS]
    table = entropies_of_spectra(spectra, functionals)
    for f, row in zip(functionals, table):
        expected = [_reference_entropy(lam, f) for lam in spectra]
        assert row.tolist() == [entropy_of_spectrum(lam, f) for lam in spectra] == expected


@pytest.mark.parametrize(
    "kind, draw",
    [
        ("density", states.random_density),
        ("gram", lambda n, rng: stacks.gram_from_unit_rows(
            sampling.pure_from_normals(rng.standard_normal((n, 2 * n)), n)
        )),
    ],
)
def test_validated_spectra_are_the_hermitian_spectra(kind, draw):
    """validate_stack returns every spectrum non-increasing, as hermitian_spectrum and DensityMatrix do."""
    rng = np.random.default_rng(3)
    draws = [draw(5, rng) for _ in range(6)]
    stack = np.array([d.mat if kind == "density" else d for d in draws]).reshape(2, 3, 5, 5)
    spectra = stacks.validate_stack(stack, kind)
    assert np.array_equal(spectra, matcore.hermitian_spectrum(stack))
    if kind == "density":
        assert np.array_equal(spectra[1, 2], DensityMatrix(stack[1, 2]).spectrum)


def test_sequential_sum_adds_left_to_right():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((40, 9)) * 10.0 ** rng.integers(-8, 8, size=(40, 9))
    values[3] = [-0.0] * 9
    expected = []
    for row in values:
        total = 0.0
        for x in row:
            total += x
        expected.append(total)
    got = matcore.sequential_sum(values)
    assert [np.copysign(1.0, x) for x in got] == [np.copysign(1.0, x) for x in expected]
    assert got.tolist() == expected


class TestStackErrorsMatchScalarTypes:
    @staticmethod
    def error_of(build):
        with pytest.raises(ValidationError) as err:
            build()
        return err.value.invariant, err.value.residual, str(err.value)

    @pytest.mark.parametrize(
        "bad,invariant",
        [
            (np.diag([1.5, -0.5, 0.0]).astype(complex), "density-psd"),
            (np.array([[0.5, 1e-3, 0], [0, 0.25, 0], [0, 0, 0.25]], dtype=complex), "density-hermitian"),
            (np.diag([0.5, 0.5, 0.5]).astype(complex), "density-unit-trace"),
        ],
    )
    def test_density(self, bad, invariant):
        rng = np.random.default_rng(1)
        stack = sampling.density_from_normals(rng.standard_normal((9, 18)), 3)
        stack[4] = bad
        scalar = self.error_of(lambda: DensityMatrix(bad))
        assert scalar[0] == invariant
        assert self.error_of(lambda: stacks.validate_stack(stack, "density")) == scalar
        assert self.error_of(lambda: stacks.validate_stack(stack.reshape(3, 3, 3, 3), "density")) == scalar

    def test_gram_unit_diagonal(self):
        rng = np.random.default_rng(2)
        stack = stacks.response_gram_stack(sampling.probing_from_normals(rng.standard_normal((7, 24)), 4, 3))
        bad = stack[3].copy()
        bad[2, 2] = 1.0 + 1e-6
        stack[3] = bad
        scalar = self.error_of(lambda: stacks.validate_stack(bad, "gram"))
        assert scalar[0] == "gram-unit-diagonal"
        assert self.error_of(lambda: stacks.validate_stack(stack, "gram")) == scalar

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        probs = np.array([sampling.random_simplex(4, rng) for _ in range(6)])
        probs[2, 1] += 1e-7
        scalar = self.error_of(lambda: stacks.clean_probabilities(probs[2]))
        assert scalar[0] == "probabilities-sum-to-one"
        assert self.error_of(lambda: stacks.clean_probabilities(probs)) == scalar

    def test_campaign_exits_2_with_the_scalar_error(self, capsys, monkeypatch):
        bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
        transform = sampling.density_from_normals

        def one_bad_draw(raw, n):
            # the ten trials are one chunk: trial 4's state is the fifth drawn
            mats = transform(raw, n)
            mats[4] = bad
            return mats

        monkeypatch.setattr(sampling, "density_from_normals", one_bad_draw)
        code = cli.main(["verify-s-theorems", "--dim", "3", "--trials", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {self.error_of(lambda: DensityMatrix(bad))[2]}\n"


def oracle_majorization(cfg):
    """majorization replayed one trial at a time through the value-type samplers and one-trial kernel calls."""
    dim = cfg.dim
    response_dim = cfg.response_dim or dim
    rows = []
    for trial in range(cfg.trials):
        rng = sampling.trial_stream(cfg.seed, trial)
        rho = states.random_density(dim, rng)
        responses = sampling.pure_from_normals(rng.standard_normal((dim, 2 * response_dim)), response_dim)
        gram = stacks.gram_from_unit_rows(responses)
        stacks.validate_stack(gram, "gram")
        _, schur = schur_dominance(rho.spectrum, rho.mat * gram)
        pinch_input = states.random_density(dim, rng).mat
        partition = states.random_projector_partition(dim, sampling.random_block_sizes(dim, rng), rng)
        *_, upper, lower = pinching_dominance(
            matcore.hermitian_spectrum(pinch_input), pinch_input, np.array(partition.projectors)
        )
        a = states.random_hermitian(dim, rng)
        *_, fan = fan_dominance(a, states.random_hermitian(dim, rng))
        sides = ("schur", "pinching-upper", "pinching-lower", "fan")
        for side, check in zip(sides, (schur, upper, lower, fan)):
            rows.append(
                _report_row(
                    trial, dim, "", side, check.dominated_prefix, check.dominator_prefix,
                    check.worst_margin, None, not check.holds(cfg.tol),
                )
            )
    return rows


def oracle_luders(cfg):
    """luders-equiv replayed one trial at a time through the written-out formulas.

    The pinching is sum_k P_k rho P_k over the diagonal block projectors, and
    the block Schur form masks rho with the pattern labels_i == labels_j.
    """
    rows = []
    for trial in range(cfg.trials):
        rng = sampling.trial_stream(cfg.seed, trial)
        rho = states.random_density(cfg.dim, rng)
        sizes = sampling.random_block_sizes(cfg.dim, rng)
        labels = np.repeat(np.arange(len(sizes)), sizes)
        partition = ProjectorSet(tuple(np.diag((labels == k).astype(complex)) for k in range(len(sizes))))
        pinched = DensityMatrix(sum(p @ rho.mat @ p for p in partition))
        schur_form = DensityMatrix(rho.mat * (labels[:, None] == labels[None, :]))
        residual = matcore.max_abs(pinched.mat - schur_form.mat)
        rows.append(
            _report_row(
                trial, cfg.dim, "", "luders-equivalence", residual, CONSISTENCY_TOL,
                CONSISTENCY_TOL - residual, None, residual > CONSISTENCY_TOL,
            )
        )
    return rows


def _majorization_grid():
    for dim, trials in ((1, 12), (2, 12), (3, 12), (5, 10), (8, 8), (16, 5)):
        for response_dim in sorted({1, dim, dim + 3}):
            yield dim, trials, response_dim


@pytest.mark.parametrize("tol", [1e-9, 1e-30])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("dim,trials,response_dim", list(_majorization_grid()))
def test_majorization_rows_equal_the_scalar_oracle(dim, trials, response_dim, seed, tol):
    cfg = cli.CampaignConfig(
        "majorization", seed=seed, dim=dim, trials=trials, response_dim=response_dim, tol=tol
    )
    result = cli.run_majorization(cfg)
    expected = oracle_majorization(cfg)
    assert result.report["rows"] == expected
    assert result.exit_code == int(any(row["violation"] for row in expected))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16])
def test_luders_rows_equal_the_scalar_oracle(dim, seed):
    cfg = cli.CampaignConfig("luders-equiv", seed=seed, dim=dim, trials=12 if dim < 16 else 6)
    assert cli.run_luders(cfg).report["rows"] == oracle_luders(cfg)


def _padded_family(partition, slots):
    family = np.zeros((slots, partition.dim, partition.dim), dtype=complex)
    family[: len(partition)] = partition.projectors
    return family


@pytest.mark.parametrize("dim", [1, 3, 8])
def test_pinch_matches_the_one_projector_formula(dim):
    rng = np.random.default_rng(dim + 40)
    partitions, mats = [], []
    for _ in range(6):
        mats.append(states.random_density(dim, rng).mat)
        partitions.append(states.random_projector_partition(dim, sampling.random_block_sizes(dim, rng), rng))
    families = np.array([_padded_family(partition, dim) for partition in partitions])
    pieces, totals = stacks.pinch(families, np.array(mats))
    for partition, mat, piece_row, total_stack in zip(partitions, mats, pieces, totals):
        total = np.zeros((dim, dim), dtype=complex)
        for p, piece in zip(partition, piece_row):
            assert np.array_equal(piece, p @ mat @ p)
            total = total + p @ mat @ p
        assert not piece_row[len(partition) :].any()
        assert np.array_equal(total_stack, total)


def test_block_projector_families_are_the_diagonal_blocks():
    rng = np.random.default_rng(61)
    for dim in (1, 2, 5, 8):
        partitions = [sampling.random_block_sizes(dim, rng) for _ in range(20)]
        families = stacks.block_projectors(partitions, dim, dim)
        assert families.shape == (20, dim, dim, dim)
        for sizes, family in zip(partitions, families):
            expected = np.zeros((dim, dim, dim), dtype=complex)
            start = 0
            for k, size in enumerate(sizes):
                for i in range(start, start + size):
                    expected[k, i, i] = 1.0
                start += size
            assert np.array_equal(family, expected)


def test_dominance_of_stacks_reads_each_pair_as_alone():
    rng = np.random.default_rng(4)
    lam = rng.standard_normal((5, 3, 6))
    mu = rng.standard_normal((5, 3, 4))
    lam[0, 0] = 0.25  # ties everywhere
    mu[1, 1] = lam[1, 1, :4]
    stacked = dominance(lam, mu)
    for index in np.ndindex(5, 3):
        single = dominance(lam[index], mu[index])
        assert np.array_equal(stacked.margins[index], single.margins)
        assert stacked.worst_margin[index] == single.worst_margin
        assert stacked.dominator_prefix[index] == single.dominator_prefix
        assert stacked.dominated_prefix[index] == single.dominated_prefix
        assert stacked.sum_residual[index] == single.sum_residual
        for tol in (1e-9, 10.0):
            assert stacked.holds(tol)[index] == single.holds(tol)


def test_stacked_samplers_match_the_one_matrix_formulas():
    rng = np.random.default_rng(12)
    ginibre = sampling.ginibre_from_normals(rng.standard_normal((7, 50)), 5)
    hermitian = sampling.hermitian_from_normals(rng.standard_normal((7, 50)), 5)
    responses = sampling.pure_from_normals(rng.standard_normal((7, 5, 22)), 11)
    bases = sampling.haar_from_ginibre(ginibre)
    rescaled = sampling.unit_spectral_radius(hermitian)
    grams = stacks.gram_from_unit_rows(responses)
    for i in range(7):
        q, r = np.linalg.qr(ginibre[i])
        assert np.array_equal(bases[i], q * (r.diagonal() / np.abs(r.diagonal())))
        assert np.array_equal(rescaled[i], hermitian[i] / np.max(np.abs(np.linalg.eigvalsh(hermitian[i]))))
        # each row renormalized by its own 1-D norm
        rows = np.array([v / np.linalg.norm(v) for v in responses[i]])
        assert np.array_equal(grams[i], rows @ rows.conj().T)


class TestStackedChecksRaiseTheScalarErrors:
    error_of = staticmethod(TestStackErrorsMatchScalarTypes.error_of)

    BAD_FAMILIES = {
        "projector-hermitian": [
            np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]) + 1e-3 * np.eye(3, k=1), np.diag([0, 0, 1.0]),
        ],
        "projector-idempotent": [np.diag([1.0, 0, 0]), np.diag([0, 1.0 + 1e-6, 0]), np.diag([0, 0, 1.0])],
        "projectors-orthogonal": [np.diag([1.0, 1.0, 0]), np.diag([0, 1.0, 1.0])],
        "projectors-complete": [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])],
        "finite-entries": [np.diag([1.0, 0, 0]), np.diag([0, np.nan, 1.0])],
    }

    @staticmethod
    def families(count, rng):
        return np.array(
            [
                _padded_family(states.random_projector_partition(3, sampling.random_block_sizes(3, rng), rng), 3)
                for _ in range(count)
            ]
        )

    @pytest.mark.parametrize("invariant", list(BAD_FAMILIES))
    def test_projector_families(self, invariant):
        bad = tuple(np.asarray(p, dtype=complex) for p in self.BAD_FAMILIES[invariant])
        scalar = self.error_of(lambda: ProjectorSet(bad))
        assert scalar[0] == invariant
        stack = self.families(9, np.random.default_rng(21))
        stack[4] = 0.0
        stack[4, : len(bad)] = bad
        assert self.error_of(lambda: stacks.validate_projector_stack(stack)) == scalar
        assert self.error_of(lambda: stacks.validate_projector_stack(stack.reshape(3, 3, 3, 3, 3))) == scalar

    def test_projector_family_past_a_block_seam(self):
        stack = self.families(700, np.random.default_rng(22))
        assert stack[:1].nbytes * 700 > 2 * stacks._BLOCK_BYTES
        stacks.validate_projector_stack(stack)
        bad = tuple(np.asarray(p, dtype=complex) for p in self.BAD_FAMILIES["projectors-complete"])
        stack[650] = 0.0
        stack[650, :2] = bad
        stack[660, 0, 0, 1] = 1e-3
        assert self.error_of(lambda: stacks.validate_projector_stack(stack)) == self.error_of(lambda: ProjectorSet(bad))

    def test_non_hermitian_matrix(self):
        rng = np.random.default_rng(23)
        stack = sampling.hermitian_from_normals(rng.standard_normal((9, 18)), 3)
        bad = stack[4].copy()
        bad[0, 2] += 1e-6
        stack[4] = bad
        stack[6, 1, 0] += 1.0
        scalar = self.error_of(lambda: matcore.hermitian_spectrum(bad))
        assert scalar[0] == "hermitian"
        assert self.error_of(lambda: matcore.hermitian_spectrum(stack)) == scalar
        assert self.error_of(lambda: matcore.hermitian_spectrum(stack.reshape(3, 3, 3, 3))) == scalar

    def test_response_vector_off_the_unit_sphere(self):
        rng = np.random.default_rng(24)
        rows = sampling.pure_from_normals(rng.standard_normal((6, 4, 10)), 5)
        rows[3, 2] *= 1.0 + 1e-6
        scalar = self.error_of(lambda: PureState(rows[3, 2]))
        assert scalar[0] == "pure-unit-norm"
        assert self.error_of(lambda: stacks.gram_from_unit_rows(rows)) == scalar

    def test_non_diagonal_projector(self):
        # the block Gram of a rotated family, formed as luders-equiv forms it, fails the Gram check
        partition = states.random_projector_partition(3, [1, 2], np.random.default_rng(25))
        stack = stacks.block_projectors([[3], [1, 2], [1, 1, 1], [2, 1]], 3, 3)
        stack[2] = _padded_family(partition, 3)
        grams = stacks.response_gram_stack(stack.diagonal(axis1=-2, axis2=-1).swapaxes(-1, -2))
        scalar = self.error_of(lambda: stacks.validate_stack(grams[2], "gram"))
        assert scalar[0] == "gram-unit-diagonal"
        assert self.error_of(lambda: stacks.validate_stack(grams, "gram")) == scalar

    @pytest.mark.parametrize("command", ["majorization", "luders-equiv"])
    def test_campaign_exits_2_with_the_scalar_error(self, capsys, monkeypatch, command):
        bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
        transform = sampling.density_from_normals
        calls = []
        # the ten trials are one chunk; the sixth state drawn is trial 2's pinching
        # state (the second transform of majorization) or trial 5's state
        call, trial = {"majorization": (2, 2), "luders-equiv": (1, 5)}[command]

        def one_bad_draw(raw, n):
            calls.append(n)
            mats = transform(raw, n)
            if len(calls) == call:
                mats[trial] = bad
            return mats

        monkeypatch.setattr(sampling, "density_from_normals", one_bad_draw)
        code = cli.main([command, "--dim", "3", "--trials", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {self.error_of(lambda: DensityMatrix(bad))[2]}\n"

    def test_broken_partition_fails_at_the_rotated_check(self, capsys, monkeypatch):
        # the five trials are one chunk, whose families are built at once; trial
        # 2's is broken, only the rotated partition is validated, and
        # conjugation keeps the broken identity
        build = campaigns.block_projectors

        def slot_one_repeats_slot_zero(partitions, slots, dim):
            mats = build(partitions, slots, dim)
            assert len(partitions) == 5
            mats[2, 1] = mats[2, 0]
            return mats

        monkeypatch.setattr(campaigns, "block_projectors", slot_one_repeats_slot_zero)
        code = cli.main(["majorization", "--dim", "4", "--trials", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: projectors-orthogonal (residual 1.000e+00): pair (0, 1)\n"
