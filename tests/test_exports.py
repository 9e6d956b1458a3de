"""The package's export lists."""

import congrkit
from congrkit import registry


def test_star_import_and_export_lists_resolve():
    names = {}
    exec("from congrkit import *", names)
    assert set(congrkit.__all__) <= set(names)
    for module in (congrkit, registry):
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            assert getattr(module, name) is not None, (module.__name__, name)
