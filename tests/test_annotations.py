"""Every public callable's annotations resolve: ``typing.get_type_hints``
evaluates each name its signature or fields mention, which a module that
annotates with a name it never imports fails at run time, under
``from __future__ import annotations``."""

import importlib
import pkgutil
import typing

import pytest

import irsa_sim

# A module with no __all__ (config.py) adds none.
PUBLIC = [
    (info.name, name)
    for info in pkgutil.iter_modules(irsa_sim.__path__)
    for name in getattr(importlib.import_module(f"irsa_sim.{info.name}"), "__all__", ())
]


@pytest.mark.parametrize("module, name", PUBLIC, ids=[f"{m}.{n}" for m, n in PUBLIC])
def test_public_annotations_resolve(module, name):
    obj = getattr(importlib.import_module(f"irsa_sim.{module}"), name)
    if callable(obj):
        typing.get_type_hints(obj)
