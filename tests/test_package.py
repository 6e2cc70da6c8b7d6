"""The package's public names are exactly its modules' ``__all__`` lists."""

import pytest

import blindmimo
from blindmimo import channel, detector, harness, manifold, metrics, signal

MODULES = (channel, detector, harness, manifold, metrics, signal)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_module_name_is_the_same_object_on_the_package(module):
    for name in module.__all__:
        assert getattr(blindmimo, name) is getattr(module, name), name


def test_package_all_is_the_modules_all_in_order():
    assert blindmimo.__all__ == [name for m in MODULES for name in m.__all__]


def test_no_name_declared_by_two_modules():
    names = [name for m in MODULES for name in m.__all__]
    assert len(names) == len(set(names))


def test_star_import_binds_exactly_all():
    scope = {}
    exec("from blindmimo import *", scope)
    assert sorted(set(scope) - {"__builtins__"}) == sorted(blindmimo.__all__)
