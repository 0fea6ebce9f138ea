import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from geochrom import CatalogStore, catalog

CACHE_DIR = Path(__file__).parent / ".catalog_cache"


def forget_shipped():
    """Drop the shipped catalogs this process has decoded and built, so a test sees them read afresh."""
    for cached in (catalog._shipped, catalog._shipped_text, catalog._shipped_doc):
        cached.cache_clear()


@pytest.fixture
def calls_of(monkeypatch):
    """calls_of(function) wraps a package function under every module's binding of it, and returns
    the list that gets the arguments of each call; the wrappers go when the test ends."""

    def install(function):
        calls = []

        def counting(*args, **options):
            calls.append(args)
            return function(*args, **options)

        for name, module in list(sys.modules.items()):
            if name == "geochrom" or name.startswith("geochrom."):
                for key, value in list(vars(module).items()):
                    if value is function:
                        monkeypatch.setattr(module, key, counting)
        return calls

    return install


@pytest.fixture(scope="session")
def store() -> CatalogStore:
    """The committed K3-K7 catalogs, read and never built, so a test run writes nothing under tests/."""
    return CatalogStore(CACHE_DIR, build_missing=False)
