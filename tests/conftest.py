import pytest

from volterra_lab.series import LogTrajectory, Trajectory


@pytest.fixture
def checks(monkeypatch):
    """A list that gains the class of each Trajectory or LogTrajectory whose
    check (``__post_init__``) runs while the test does."""
    calls = []
    for cls in (Trajectory, LogTrajectory):
        def counted(self, check=cls.__post_init__):
            calls.append(type(self))
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    return calls
