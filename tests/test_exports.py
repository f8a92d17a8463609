"""Every name a module exports exists, so `from rspin import *` works."""

import importlib
import pkgutil

import rspin


def test_every_exported_name_resolves():
    modules = [rspin] + [
        importlib.import_module(f"rspin.{info.name}")
        for info in pkgutil.iter_modules(rspin.__path__)
        if info.name != "__main__"
    ]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert len(exporting) >= 2
    stale = [
        f"{module.__name__}.{name}" for module in exporting for name in module.__all__ if not hasattr(module, name)
    ]
    assert stale == []
