"""Every name a ``repro`` module exports in ``__all__`` resolves.

A deleted module or helper whose re-export stays behind breaks
``from repro.x import *`` without failing any import that names a
surviving symbol, so the check walks every module of the package.
"""

import importlib
import pkgutil

import pytest

import repro


def _module_names() -> list[str]:
    return ["repro"] + sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.name != "repro.__main__"
    )


@pytest.mark.parametrize("name", _module_names())
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ has duplicates"
