"""The package's export lists, and what importing it loads."""

import subprocess
import sys
from pathlib import Path

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
                         (qform, "REPRESENT_WINDOW_LIMIT"), (binomsum, "pack_lanes"),
                         (binomsum, "eval_packed"), (binomsum.ModTables, "_packed")):
        assert not hasattr(module, name), name


_IMPORT_CHECK = """\
import sys
sys.path.insert(0, sys.argv[1])
import congrkit.registry
print('json' in sys.modules)
import congrkit.cli
print('dataclasses' in sys.modules, 'inspect' in sys.modules)
import dataclasses
mods = [m for name, m in sys.modules.items() if name.split('.')[0] == 'congrkit']
print(' '.join(sorted({v.__qualname__ for m in mods for v in vars(m).values()
                       if isinstance(v, type) and dataclasses.is_dataclass(v)})))
"""


def test_importing_the_registry_loads_no_json_and_two_dataclasses():
    # reports_json imports json on first use; every record is a plain
    # slotted class, and Statement and Verdict import dataclasses (and with
    # it inspect) only when their __dataclass_fields__ is first read
    src = str(Path(congrkit.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-I", "-c", _IMPORT_CHECK, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["False", "False False", "Statement Verdict"]
