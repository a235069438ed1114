"""The package's public names: every name in `noncat.__all__` resolves,
so a deleted function cannot linger in the export list."""

import noncat


def test_all_names_resolve():
    missing = [name for name in noncat.__all__
               if not hasattr(noncat, name)]
    assert missing == []
    assert len(set(noncat.__all__)) == len(noncat.__all__)


def test_star_import():
    namespace = {}
    exec("from noncat import *", namespace)
    assert set(noncat.__all__) <= set(namespace)
