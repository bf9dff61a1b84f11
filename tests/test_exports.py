"""The package's lazy exports: each public name is its submodule's object."""

import importlib
import sys

import pytest

import quandles


@pytest.mark.parametrize("name, module", sorted(quandles._EXPORTS.items()))
def test_every_export_is_its_submodules_object(name, module):
    assert getattr(quandles, name) is getattr(importlib.import_module(f"quandles.{module}"), name)
    assert name in dir(quandles)


def test_orbits_is_the_function_after_its_module_loads():
    import quandles.orbits  # noqa: F401

    assert quandles.orbits is sys.modules["quandles.orbits"].orbits


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from quandles import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(quandles.__all__) == set(quandles._EXPORTS)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        quandles.no_such_name
    with pytest.raises(ImportError):
        exec("from quandles import no_such_name", {})



@pytest.mark.parametrize("module, cls, method", [
    ("quandle", "Quandle", "__init__"),
    ("quandle", "Quandle", "iso_signature"),
    ("perm", "Permutation", "__pow__"),
])
def test_traced_methods_are_defined_on_their_own_class(module, cls, method):
    # bench/tracer.py METHODS wraps these through vars(cls)[method]; a method
    # that is deleted or only inherited would make every traced bench run raise.
    assert method in vars(getattr(importlib.import_module(f"quandles.{module}"), cls))
