"""Every name in a module's ``__all__`` resolves, and none is listed twice,
so ``from shapederiv.<module> import *`` works for every module."""

import importlib
import pkgutil

import pytest

import shapederiv

EXPORTING = [
    info.name
    for info in pkgutil.walk_packages(shapederiv.__path__, "shapederiv.")
    if hasattr(importlib.import_module(info.name), "__all__")
]


def test_the_field_modules_export():
    assert {"shapederiv.flow", "shapederiv.fields"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_star_import_gives_every_listed_name_once(name):
    exported = importlib.import_module(name).__all__
    assert len(set(exported)) == len(exported)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(exported)
