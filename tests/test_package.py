"""The lazy top-level namespace: ``ddperm`` re-exports its public names
through a module ``__getattr__`` that loads each name's home module on
first use."""

import sys

import pytest

import ddperm


def _home(name):
    obj = ddperm.__getattr__(name)
    return obj, sys.modules[obj.__module__]


@pytest.mark.parametrize("name", ddperm.__all__)
def test_public_name_is_its_home_modules_object(name):
    obj, home = _home(name)
    assert home.__name__ == f"ddperm.{ddperm._HOME[name]}"
    assert getattr(ddperm, name) is obj is getattr(home, name)


def test_dir_lists_every_public_name():
    assert set(ddperm.__all__) <= set(dir(ddperm))
    assert "__version__" in dir(ddperm)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ddperm import *", namespace)
    for name in ddperm.__all__:
        assert namespace[name] is getattr(ddperm, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ddperm.no_such_name
    assert not hasattr(ddperm, "dd_count_fast")
