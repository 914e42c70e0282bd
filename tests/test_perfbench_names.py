"""Every function the benchmark's tracer patches still exists in the package.

``perfbench/spans.py`` looks up each ``(module, attribute)`` of its ``TRACED``
list with ``getattr`` (a ``Class.method`` through the class's own
namespace), so a name deleted from ``rebit`` would end a traced benchmark run
with an ``AttributeError``.  The list is read from the file by path, without
importing the benchmark as a package.
"""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def resolves(module_name: str, attr: str) -> bool:
    owner = importlib.import_module(f"rebit.{module_name}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name, None)
        if not isinstance(owner, type) or attr not in vars(owner):  # the tracer patches the class itself
            return False
    return callable(getattr(owner, attr, None))


def test_every_traced_name_resolves():
    traced = runpy.run_path(str(SPANS))["TRACED"]
    assert len(traced) > 20
    missing = [f"{module_name}.{attr}" for module_name, attr in traced if not resolves(module_name, attr)]
    assert not missing, f"perfbench/spans.py traces names rebit no longer has: {missing}"
