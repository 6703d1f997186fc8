"""The names the benchmark's tracer wraps and reads must exist in ballwalk.

``bench/spans.py`` wraps every public function of the traced modules and
reads its spans back by name (``layer.function`` or
``layer.Class.method``).  A name that no longer resolves records no span,
and the per-layer metric built from it reads 0 without any error.  The file
is read as source, never imported, so the check runs no benchmark code.
"""

import ast
import importlib
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
# functions that read spans back by name, and how many leading arguments
# are something else (total's first argument is the count it sums)
_READERS = {"incl": 0, "named": 0, "total": 1}


def _traced_names():
    """(layers, span names) that bench/spans.py wraps, counts or reads."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    layers, names = None, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = getattr(node.targets[0], "id", None)
            if target == "LAYERS":
                layers = ast.literal_eval(node.value)
            elif target == "_COUNTS":
                names.update(k.value for k in node.value.keys)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _READERS):
            names.update(a.value for a in node.args[_READERS[node.func.id]:]
                         if isinstance(a, ast.Constant))
        elif (isinstance(node, ast.For)
              and getattr(node.target, "id", None) == "meth"):
            names.update(f"gridop.GridOperator.{m}"
                         for m in ast.literal_eval(node.iter))
    return layers, names


def test_traced_names_resolve():
    layers, names = _traced_names()
    # the parse found what it looks for, so an empty set cannot pass
    assert layers and {"potentials.value", "potentials.gradient",
                       "potentials.hessian", "walk.simulate",
                       "gridop.GridOperator.matvec",
                       "gridop.GridOperator.tocsr"} <= names
    missing = []
    for name in sorted(names):
        layer, *path = name.split(".")
        assert layer in layers, name
        mod = importlib.import_module(f"ballwalk.{layer}")
        if len(path) == 1:
            # the tracer wraps only public functions defined in the layer
            fn = getattr(mod, path[0], None)
            ok = (not path[0].startswith("_") and inspect.isfunction(fn)
                  and fn.__module__ == mod.__name__)
        else:
            cls = getattr(mod, path[0], None)
            ok = inspect.isfunction(getattr(cls, path[1], None))
        if not ok:
            missing.append(name)
    assert not missing, f"bench/spans.py traces names ballwalk lacks: {missing}"
