"""Every name a module lists in ``__all__`` must resolve."""

import importlib

import pytest

MODULES = ["corrlink", "corrlink.analysis", "corrlink.estimators", "corrlink.harness",
           "corrlink.linalg", "corrlink.protocol", "corrlink.sources", "corrlink.statmath"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing
    assert len(set(exported)) == len(exported)
