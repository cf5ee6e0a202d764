"""Public names: every __all__ entry resolves, and no public API is left out."""

import importlib
import inspect
import pkgutil

import tracechan


def _public_api(module, defined_here):
    return {
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and (not defined_here or obj.__module__ == module.__name__)
    }


def test_all_lists_exactly_the_public_api():
    modules = [importlib.import_module(f"tracechan.{m.name}")
               for m in pkgutil.iter_modules(tracechan.__path__)]
    checked = [(tracechan, False)] + [(m, True) for m in modules if hasattr(m, "__all__")]
    assert len(checked) > 1
    for module, defined_here in checked:
        listed = set(module.__all__)
        assert len(listed) == len(module.__all__), f"{module.__name__}: duplicate names"
        missing = sorted(n for n in listed if not hasattr(module, n))
        assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
        unlisted = sorted(_public_api(module, defined_here) - listed)
        assert not unlisted, f"{module.__name__} leaves public {unlisted} out of __all__"
