"""The callables perfbench/layers.py wraps by name must exist, resolved the
way its tracer (``perfbench/harness.py``, ``Tracer.install``) resolves
them: a plain name as a callable attribute of its module, a dotted
``Class.attr`` as an entry of that class's own ``__dict__``.  Deleting or
moving one of them breaks the traced benchmark run, so it fails here."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bench_targets():
    """layers.targets(), with perfbench/ on the path only while it loads."""
    had_harness = "harness" in sys.modules
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("_bench_layers", BENCH / "layers.py")
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        return layers.targets()
    finally:
        sys.path.remove(str(BENCH))
        if not had_harness:
            sys.modules.pop("harness", None)


TARGETS = [(module, qualname) for _, module, qualname, _ in _bench_targets()]


@pytest.mark.parametrize(
    "module, qualname", TARGETS,
    ids=[f"{m.__name__.rsplit('.', 1)[-1]}.{q}" for m, q in TARGETS],
)
def test_wrapped_name_resolves(module, qualname):
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owned = vars(getattr(module, cls_name))
        assert attr in owned, f"{cls_name}.{attr} is not defined on {cls_name} itself"
        assert callable(owned[attr])
    else:
        assert callable(getattr(module, qualname, None)), f"{qualname} is gone"
