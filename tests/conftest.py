"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def factorisations(monkeypatch) -> list:
    """The list that every SuperLU ("splu") or LAPACK ("getrf", "gbtrf", "pbtrf") factorisation appends its name to."""
    import scipy.linalg.lapack as lapack
    import scipy.sparse.linalg as spla

    calls = []

    def recording(name, factorise):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return factorise(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(spla, "splu", recording("splu", spla.splu))
    monkeypatch.setattr(lapack, "dgetrf", recording("getrf", lapack.dgetrf))
    monkeypatch.setattr(lapack, "dgbtrf", recording("gbtrf", lapack.dgbtrf))
    monkeypatch.setattr(lapack, "dpbtrf", recording("pbtrf", lapack.dpbtrf))
    return calls
