"""Every name a jbkit module lists in ``__all__`` resolves.

A deletion or rename that leaves a stale export fails here, not at a
user's ``from jbkit... import *``.
"""

import importlib
import pkgutil

import pytest

import jbkit


def _modules_with_all():
    names = ["jbkit"] + [
        info.name
        for info in pkgutil.walk_packages(jbkit.__path__, "jbkit.")
        if not info.name.endswith("__main__")
    ]
    mods = [importlib.import_module(name) for name in names]
    return [m for m in mods if hasattr(m, "__all__")]


_MODULES = _modules_with_all()


def test_modules_with_exports_are_found():
    names = {m.__name__ for m in _MODULES}
    assert {"jbkit", "jbkit.jbcomplex", "jbkit.jbcomplex.cocycle", "jbkit.schemes"} <= names


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
