"""Every name a module exports through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import chshbounds

# The native module is optional and imported only by the kernel facade.
MODULES = [
    info.name
    for info in pkgutil.walk_packages(chshbounds.__path__, "chshbounds.")
    if info.name != "chshbounds._kernels._native"
]


@pytest.mark.parametrize("name", ["chshbounds", *MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
