"""Every name a ``repro`` package lists in ``__all__`` exists.

A deleted definition must leave its package's export list too, or
``from repro.<package> import *`` fails with an ``AttributeError``.
"""

import importlib
from pathlib import Path

import repro


def repro_packages():
    """Dotted names of ``repro`` and every package below it."""
    root = Path(repro.__file__).parent
    return sorted(
        ".".join(("repro",) + init.parent.relative_to(root).parts)
        for init in root.rglob("__init__.py"))


def test_every_all_name_resolves():
    packages = repro_packages()
    assert "repro" in packages and "repro.analysis.perf" in packages
    missing = {}
    for name in packages:
        module = importlib.import_module(name)
        absent = [entry for entry in getattr(module, "__all__", ())
                  if not hasattr(module, entry)]
        if absent:
            missing[name] = absent
    assert missing == {}
