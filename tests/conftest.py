import os

# numpy's OpenBLAS otherwise starts one thread per core, and the chunk map's
# tests would fork a multi-threaded process; the benchmark sets the same
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "numerical",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numerical")


@pytest.fixture
def plus_density():
    """|+><+|, the rank-1 projector with all entries 1/2."""
    return np.full((2, 2), 0.5, dtype=complex)


@pytest.fixture
def cnot_probing():
    """The probing |i>|0> -> |i>|i> of a qubit as a measurement: a CNOT read by 1 (x) |k><k|."""
    from decobs.povm import Povm
    from decobs.states import ProjectorSet, basis_state, density_from_pure

    cnot = np.eye(4)[[0, 1, 3, 2]].astype(complex)
    pointers = (np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex), np.diag([0.0, 1.0, 0.0, 1.0]).astype(complex))
    return Povm(2, 2, density_from_pure(basis_state(2, 0)), cnot, ProjectorSet(pointers))


@pytest.fixture
def solved(monkeypatch):
    """A one-item list counting the matrices passed to numpy.linalg.eigvalsh."""
    count = [0]
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        a = np.asarray(a)
        count[0] += int(np.prod(a.shape[:-2], dtype=int))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return count


@pytest.fixture
def allowed_cpus(monkeypatch):
    """Set how many CPUs the chunk map sees, as ``allowed_cpus(n)``.

    The map pins this process while it runs and then restores the affinity
    it was shown; the real affinity is restored after the test.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        pytest.skip("no fork or CPU affinity on this platform")
    real = os.sched_getaffinity(0)
    yield lambda count: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    os.sched_setaffinity(0, real)


@pytest.fixture
def forks(monkeypatch):
    """The list of worker pids that os.fork returned in this process."""
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids
