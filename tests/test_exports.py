"""Every exported name resolves: each module's `__all__` and the package's lazy `__all__`."""

import importlib
import inspect
import pkgutil

import pytest

import pagecurve
from pagecurve import PageCurveError

MODULES = sorted(m.name for m in pkgutil.iter_modules(pagecurve.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"pagecurve.{name}")
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"pagecurve.{name}.__all__ names missing {export!r}"


def test_package_names_come_from_module_exports():
    # every public package name is a module's `__all__` entry or an error class
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"pagecurve.{name}")
        for export in getattr(module, "__all__", ()):
            exported.setdefault(export, []).append(getattr(module, export))
    assert pagecurve.__all__
    for name in pagecurve.__all__:
        obj = getattr(pagecurve, name)  # resolves the lazy export
        if inspect.isclass(obj) and issubclass(obj, PageCurveError):
            continue
        assert any(obj is e for e in exported.get(name, ())), f"pagecurve.{name}"
