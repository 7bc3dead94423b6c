"""Every library name the benchmark's tracer wraps must exist: a missing one
makes ``perfbench/tracing.instrument`` fail and so the whole benchmark run.
Likewise the battery workload runs the suites it names, and the workloads
call the library through the names they read, and the benchmark's
self-tests import the names they use. The names are read from
``perfbench/tracing.py``, ``perfbench/workloads.py`` and
``perfbench/test_perfbench.py`` with ``ast``, without importing perfbench."""
import ast
import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

from siegeljacobi import checks, theta

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _constants(module, names):
    tree = ast.parse((PERFBENCH / module).read_text())
    return {target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id in names}


def test_every_wrapped_name_is_callable_in_its_module():
    consts = _constants("tracing.py", ("SPANNED", "GRID_METHODS", "TABLE"))
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


def test_kernel_hook_reads_the_nodes_and_targets_by_position():
    """The tracer's ``kernel_after`` hook counts phase entries as
    args[1].shape[0] * args[2].shape[0]: the kernel's second and third
    positional parameters must stay its nodes and its targets."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    hook = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "kernel_after")
    read = {node.slice.value for node in ast.walk(hook)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}
    assert read == {1, 2}
    params = list(inspect.signature(theta._chunked_kernel_sum).parameters.values())
    assert [p.name for p in params[:3]] == ["fvals", "nodes", "pts"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:3])


def test_battery_runs_every_suite_in_order():
    assert _constants("workloads.py", ("SUITES",))["SUITES"] == tuple(checks.SUITES)


def _library_aliases(tree):
    """The local names a module binds to siegeljacobi and its submodules."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((a.asname or a.name, a.name) for a in node.names
                           if a.name.split(".")[0] == "siegeljacobi")
        elif isinstance(node, ast.ImportFrom) and node.module == "siegeljacobi":
            aliases.update((a.asname or a.name, f"siegeljacobi.{a.name}") for a in node.names)
    return aliases


def test_every_library_name_the_workloads_read_resolves():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    aliases = _library_aliases(tree)
    assert set(aliases) == {"sj", "cli", "reduction", "theta"}
    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id in aliases:
            chains.add((node.id, *reversed(names)))
    missing = []
    for root, *attrs in sorted(chains):
        try:
            functools.reduce(getattr, attrs, importlib.import_module(aliases[root]))
        except AttributeError:
            missing.append(".".join((root, *attrs)))
    assert {("sj", "SiegelPoint", "create"), ("sj", "JacobiPoint", "create"),
            ("theta", "weil_generator_action"), ("cli", "main")} <= chains
    assert not missing, missing


def test_every_library_name_the_benchmark_self_tests_import_resolves():
    """``perfbench/test_perfbench.py`` imports library names inside its
    tests, where a missing one fails only that self-test. Each resolves as
    ``from module import name`` does: an attribute, else a submodule."""
    tree = ast.parse((PERFBENCH / "test_perfbench.py").read_text())
    imports = {(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "siegeljacobi" for alias in node.names}
    missing = [f"{module}.{name}" for module, name in sorted(imports)
               if not hasattr(importlib.import_module(module), name)
               and importlib.util.find_spec(f"{module}.{name}") is None]
    assert {"FDConfig", "ScalarField", "SiegelPoint", "diffops", "errors", "checks",
            "groups", "reduction", "cli"} <= {name for _, name in imports}
    assert not missing, missing
