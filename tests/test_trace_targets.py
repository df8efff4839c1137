"""The benchmark's span tracer wraps library functions and methods by name
(``perfbench/spans.py``).  Resolve every one of its targets without running
anything, so a refactor that renames a traced name fails here too."""

import importlib
import importlib.util
import inspect
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


def test_targets_present():
    assert len(TARGETS) >= 20


@pytest.mark.parametrize("name,module,path", [t[:3] for t in TARGETS],
                         ids=[t[0] for t in TARGETS])
def test_target_resolves(name, module, path):
    mod = importlib.import_module(module)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name)
        assert inspect.isclass(owner), f"{module}.{owner_name} is not a class"
        assert attr in owner.__dict__, f"{module}.{path} is not defined on its class"
        assert callable(owner.__dict__[attr])
    else:
        assert callable(getattr(mod, attr, None)), f"{module}.{attr} is missing"
