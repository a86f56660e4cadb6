import numpy as np
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
