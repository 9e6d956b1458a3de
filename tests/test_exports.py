"""The package's export lists."""

import congrkit
from congrkit import binomsum, errors, qform, registry


def test_star_import_and_export_lists_resolve():
    names = {}
    exec("from congrkit import *", names)
    assert set(congrkit.__all__) <= set(names)
    for module in (congrkit, registry):
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            assert getattr(module, name) is not None, (module.__name__, name)


def test_removed_names_stay_removed():
    for module, name in ((congrkit, "verify_range"), (registry, "verify_range"),
                         (errors, "MultipleClassesRepresentError"), (registry.Ctx, "classify"),
                         (binomsum, "PrefixSums"), (registry.Ctx, "prefix"),
                         (qform, "REPRESENT_WINDOW_LIMIT")):
        assert not hasattr(module, name), name
