"""The public surface: settable values counted by one rule, exports that
have a reader, and the names the benchmark imports.

A settable value is a parameter with a default, or a dataclass field with a
default, on a public name (no leading underscore) defined in ``potential``,
``reflection``, ``numerov`` or ``lifetimes``: a public function, or a public
method or ``__init__`` of a public class.  ROADMAP aim 2 states the count;
this test keeps that number honest.  Run ``pytest tests/test_api_surface.py
-s`` to print the names.
"""

import ast
import dataclasses
import importlib.util
import inspect
from pathlib import Path

from qrmirror import lifetimes, numerov, potential, reflection

# the count ROADMAP aim 2 states
SETTABLE_VALUES = 8

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qrmirror"
BENCH = ROOT / "perfbench"
# exported for the tests alone: acceptance criteria 7 and 9 read Q off the
# grid with it
TEST_ONLY_EXPORTS = {"badlands_q"}


def _defaulted_parameters(func) -> list[str]:
    return [name for name, p in inspect.signature(func).parameters.items()
            if p.default is not inspect.Parameter.empty]


def settable_values() -> list[str]:
    names = []
    for module in (potential, reflection, numerov, lifetimes):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            prefix = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
            if inspect.isfunction(obj):
                names += [f"{prefix}({p})" for p in _defaulted_parameters(obj)]
                continue
            if not inspect.isclass(obj):
                continue
            is_dataclass = dataclasses.is_dataclass(obj)
            if is_dataclass:
                names += [f"{prefix}.{f.name}" for f in dataclasses.fields(obj)
                          if f.default is not dataclasses.MISSING
                          or f.default_factory is not dataclasses.MISSING]
            for attr, member in vars(obj).items():
                if attr == "__init__":
                    if is_dataclass:
                        continue   # its parameters are the fields above
                elif attr.startswith("_"):
                    continue
                func = getattr(member, "__func__", member)
                if inspect.isfunction(func):
                    names += [f"{prefix}.{attr}({p})"
                              for p in _defaulted_parameters(func)]
    return names


def test_settable_value_count_matches_the_roadmap():
    names = settable_values()
    print("\n".join(names))
    assert len(names) == SETTABLE_VALUES, names


def _imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) of every ``from module import name`` in ``path``."""
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names]


def test_benchmark_imports_still_exist():
    # the benchmark under perfbench/ runs this package as it is; a name it
    # imports that is gone breaks every workload
    wanted = [(module, name) for module, name
              in _imports(BENCH / "workloads.py")
              if module.split(".")[0] == "qrmirror"]
    assert {module for module, _ in wanted} >= {"qrmirror", "qrmirror.cli"}
    missing = [f"{module}.{name}" for module, name in wanted
               if not (hasattr(importlib.import_module(module), name)
                       or importlib.util.find_spec(f"{module}.{name}"))]
    assert not missing


def test_every_export_has_a_reader():
    # a name the package exports is read (loaded as a name or an attribute)
    # somewhere in src/ or perfbench/ besides the export itself
    init = PACKAGE / "__init__.py"
    exports = {name for _, name in _imports(init)}
    read = set()
    for path in [*PACKAGE.glob("*.py"), *BENCH.glob("*.py")]:
        if path == init:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    assert sorted(exports - read) == sorted(TEST_ONLY_EXPORTS)
