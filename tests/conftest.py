import pytest


@pytest.fixture
def matvec_lengths(monkeypatch) -> list:
    """The length of each vector handed to the operators timeint builds
    during the test: one list per operator build."""
    import fracdiff.timeint as ti
    calls = []
    build = ti.make_rate_operator

    def build_recorded(*args):
        op = build(*args)
        calls.append([])

        def op_recorded(u):
            calls[-1].append(len(u))
            return op(u)
        return op_recorded
    monkeypatch.setattr(ti, "make_rate_operator", build_recorded)
    return calls
