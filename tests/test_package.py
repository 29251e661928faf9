import melontft
from melontft import combinatorics, errors, greens, quadrature, series, specialfn


def test_exports_are_the_module_lists():
    modules = (combinatorics, errors, greens, quadrature, series, specialfn)
    names = [name for module in modules for name in module.__all__]
    assert sorted(melontft.__all__) == sorted(["__version__"] + names)
    for module in modules:
        for name in module.__all__:
            assert getattr(melontft, name) is getattr(module, name)
