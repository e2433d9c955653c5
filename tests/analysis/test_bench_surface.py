"""Everything the benchmark reaches into ``repro`` for still exists.

``bench/tests`` is not tier-1, so without this guard a refactor can
delete an entry point the tracer rebinds by name (``bench.trace.TARGETS``)
or a name ``bench/workloads.py`` / ``bench/harness.py`` import, and only
the next benchmark run notices.  Reads ``bench/``, changes nothing there.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.trace import TARGETS


@pytest.mark.parametrize(
    "module_name, qualname", sorted({(module, name) for module, name, *_ in TARGETS})
)
def test_traced_entry_point_resolves(module_name, qualname):
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr]  # ``Tracer._patch`` rebinds through the namespace
    assert callable(getattr(raw, "__func__", raw))


def _repro_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


@pytest.mark.parametrize("source", ["bench/workloads.py", "bench/harness.py"])
def test_repro_names_the_benchmark_imports_resolve(source):
    imports = list(_repro_imports(ROOT / source))
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            importlib.import_module(f"{module_name}.{name}")  # a submodule
