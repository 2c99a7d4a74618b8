import pytest

from hullcodes import families


@pytest.fixture(autouse=True)
def _cold_seed_cache():
    """Each test starts with an empty family seed cache, so no test meets
    a seed built or certified under another test's monkeypatch."""
    families.build_family.cache_clear()
    yield
