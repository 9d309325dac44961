"""The package namespace: its public names are its modules' ``__all__``."""

import inspect

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


def test_module_lists_name_every_public_definition():
    # a public function or class defined in a module is in its __all__
    for module in (derivative, dielectric, exceptions, oracle, quadrature,
                   special, weights):
        defined = {name for name, obj in vars(module).items()
                   if not name.startswith("_")
                   and (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == module.__name__}
        assert defined <= set(module.__all__), module.__name__
