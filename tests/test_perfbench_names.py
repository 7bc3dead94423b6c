"""Every library name the benchmark's tracer wraps must exist: a missing one
makes ``perfbench/tracing.instrument`` fail and so the whole benchmark run.
The names are read from ``perfbench/tracing.py`` with ``ast``, without
importing perfbench."""
import ast
import importlib
from pathlib import Path

from siegeljacobi import theta

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _constants():
    tree = ast.parse(TRACING.read_text())
    return {target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id in ("SPANNED", "GRID_METHODS", "TABLE")}


def test_every_wrapped_name_is_callable_in_its_module():
    consts = _constants()
    spanned = dict(consts["SPANNED"])
    mod_name, _, name = consts["TABLE"].partition(".")
    spanned.setdefault(mod_name, []).append(name)
    missing = [f"{mod}.{name}" for mod, names in spanned.items() for name in names
               if not callable(getattr(importlib.import_module(f"siegeljacobi.{mod}"),
                                       name, None))]
    missing += [f"theta.GridFunction.{meth}" for meth in consts["GRID_METHODS"]
                if not callable(getattr(theta.GridFunction, meth, None))]
    assert all(spanned.values()) and consts["GRID_METHODS"]
    assert not missing, missing
