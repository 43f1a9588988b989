"""Every name a package lists in ``__all__`` resolves on that package.

``from repro.<pkg> import *`` and the documented import paths fail on a
stale entry only when someone uses it; this catches one at once — the
top-level package and each subpackage, every name.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    module.name
    for module in pkgutil.iter_modules(repro.__path__, "repro.")
    if module.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [name for name in exported if not hasattr(module, name)] == []
