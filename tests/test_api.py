"""The package's public names: a name deleted from a module but left in
``__all__`` breaks ``from activeht import *``."""

import activeht


def test_every_public_name_exists_once():
    assert len(set(activeht.__all__)) == len(activeht.__all__)
    assert [name for name in activeht.__all__ if not hasattr(activeht, name)] == []


def test_star_import_succeeds():
    namespace = {}
    exec("from activeht import *", namespace)
    assert set(activeht.__all__) <= set(namespace)
