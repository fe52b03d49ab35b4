import pytest


@pytest.fixture(scope="session", autouse=True)
def private_cache(tmp_path_factory):
    """Point `VL_CACHE_DIR` at a directory of this run, so that no test writes
    dependencies or `vl fmt` markers into the home directory.  A test that
    sets its own value keeps it.  Session scope: Hypothesis rejects
    function-scoped fixtures in its tests."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("VL_CACHE_DIR", str(tmp_path_factory.mktemp("vl-cache")))
        yield
