"""Every name a module exports in __all__ exists."""

import importlib

import pytest

MODULES = [
    "eiv_lpe",
    "eiv_lpe.estimators",
    "eiv_lpe.estimators.config",
    "eiv_lpe.estimators.egle",
    "eiv_lpe.estimators.itl",
    "eiv_lpe.estimators.tls",
    "eiv_lpe.line_model",
    "eiv_lpe.noise",
    "eiv_lpe.scenario",
    "eiv_lpe.io",
    "eiv_lpe.bench",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
