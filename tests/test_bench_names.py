"""The benchmark's layer trace looks package functions up by name.

`perfbench/layertrace.py` wraps every `module.function` in its LAYERS table;
a name that no longer resolves breaks `perfbench/run.py --trace 1` and the
harness self-test.  This reads the table from the file (without importing
the benchmark) and resolves each name in `cascade_stab`.
"""

import ast
import importlib
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def traced_layers() -> dict:
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    for node in tree.body:
        names = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if isinstance(node, ast.Assign) and "LAYERS" in names:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {LAYERTRACE}")


def test_every_traced_name_is_a_package_callable():
    layers = traced_layers()
    assert layers
    missing = []
    for module, functions in layers.items():
        mod = importlib.import_module(f"cascade_stab.{module}")
        missing += [f"{module}.{fn}" for fn in functions
                    if not callable(getattr(mod, fn, None))]
    assert not missing, f"traced names missing from cascade_stab: {missing}"
