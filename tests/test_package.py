"""The package namespace: its public names are its modules' ``__all__``."""

import fracquad
from fracquad import (
    derivative,
    dielectric,
    exceptions,
    oracle,
    quadrature,
    special,
    weights,
)


def test_package_all_is_the_module_lists():
    modules = (derivative, dielectric, exceptions, oracle, quadrature,
               special, weights)
    want = ["__version__"] + [name for m in modules for name in m.__all__]
    assert fracquad.__all__ == want
    assert len(set(want)) == len(want)
    for module in modules:
        for name in module.__all__:
            assert getattr(fracquad, name) is getattr(module, name), name
    assert isinstance(fracquad.__version__, str)
    namespace = {}
    exec("from fracquad import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(want)
