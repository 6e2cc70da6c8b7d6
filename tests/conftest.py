import pytest

from blindmimo import manifold


@pytest.fixture
def linalg_calls(monkeypatch):
    """Names of ``manifold._eigh``, ``manifold._top_subspace`` and ``manifold._svd``, appended as each runs.

    The spies call the real routines, so results are unchanged; a test reads
    the list to see which route ``_polar`` or ``_top_factors`` took.  The
    subspace iteration's own small ``_eigh`` calls are listed after its name.
    """
    calls = []
    for name in ("_eigh", "_top_subspace", "_svd"):
        def spy(*args, _real=getattr(manifold, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(manifold, name, spy)
    return calls
