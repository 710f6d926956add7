"""Every name a package exports in ``__all__`` resolves.

Walks ``repro`` and every subpackage, so deleting a module or a function
cannot leave a dangling export behind.
"""

import importlib
import pkgutil

import pytest

import repro


def _packages():
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            yield info.name


@pytest.mark.parametrize("name", sorted(_packages()))
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    missing = [attr for attr in getattr(package, "__all__", ())
               if not hasattr(package, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
