"""The public surface: settable values counted by one rule, exports and
class members that have a reader, the names the benchmark imports, and the
reads of the potential table's spline.

A settable value is a parameter with a default, or a dataclass field with a
default, on a public name (no leading underscore) defined in a ``qrmirror``
module: a public function, or a public method or ``__init__`` of a public
class.  ROADMAP aim 2 states the count; this test keeps that number honest.
Run ``pytest tests/test_api_surface.py -s`` to print the names.
"""

import ast
import dataclasses
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import qrmirror
from qrmirror import lifetimes, numerov, potential, reflection

# every module of the package; __main__ only runs the CLI
MODULES = [importlib.import_module(f"qrmirror.{info.name}")
           for info in pkgutil.iter_modules(qrmirror.__path__)
           if info.name != "__main__"]
# the counts ROADMAP aim 2 states: over every module, and over the four
# modules the option audit began with
SETTABLE_VALUES = 17
AUDITED_SETTABLE_VALUES = 8

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qrmirror"
BENCH = ROOT / "perfbench"
# exported for the tests alone: acceptance criteria 7 and 9 read Q off the
# grid with it
TEST_ONLY_EXPORTS = {"badlands_q"}
# public class members that nothing in src/ or perfbench/ reads, each kept
# for a stated reason
UNREAD_MEMBERS = {
    # the free-space table of acceptance criterion 9
    "PotentialTable.null",
    # |Im a| at both read-outs: goes to the stats record of ROADMAP item 2
    # step B
    "ScatteringLength.estimates",
    # perfbench passes mirror_label= but reads no field; item 2 step B
    "LifetimeResult.mirror_label",
}
# PotentialTable's spline: its coefficients and the plain-float copies of
# them and of the knots
SPLINE_FIELDS = {"_c", "_c0", "_c1", "_c2", "_c3", "_knots"}


def _defaulted_parameters(func) -> list[str]:
    return [name for name, p in inspect.signature(func).parameters.items()
            if p.default is not inspect.Parameter.empty]


def settable_values(modules) -> list[str]:
    names = []
    for module in modules:
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
    names = settable_values(MODULES)
    print("\n".join(names))
    assert len(names) == SETTABLE_VALUES, names
    audited = settable_values((potential, reflection, numerov, lifetimes))
    assert len(audited) == AUDITED_SETTABLE_VALUES, audited


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


def _loads() -> tuple[set[str], set[str]]:
    """The names and the attribute names loaded in src/ and perfbench/,
    the package's exports in its ``__init__`` aside."""
    names, attributes = set(), set()
    for path in [*PACKAGE.glob("*.py"), *BENCH.glob("*.py")]:
        if path == PACKAGE / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attributes.add(node.attr)
    return names, attributes


def test_every_export_has_a_reader():
    # a name the package exports is read (loaded as a name or an attribute)
    # somewhere in src/ or perfbench/ besides the export itself
    exports = {name for _, name in _imports(PACKAGE / "__init__.py")}
    names, attributes = _loads()
    assert sorted(exports - names - attributes) == sorted(TEST_ONLY_EXPORTS)


def _public_members() -> list[str]:
    """Class.member for each public method, property, class attribute and
    dataclass field of each public class defined in the package."""
    members = []
    for module in MODULES:
        for name, cls in vars(module).items():
            if (name.startswith("_") or not inspect.isclass(cls)
                    or cls.__module__ != module.__name__):
                continue
            attrs = {attr for attr in vars(cls) if not attr.startswith("_")}
            if dataclasses.is_dataclass(cls):
                attrs.update(f.name for f in dataclasses.fields(cls))
            members += [f"{name}.{attr}" for attr in attrs]
    return members


def test_every_public_member_has_a_reader():
    # a public member is loaded as an attribute somewhere in src/ or
    # perfbench/, matched by its name alone as the exports are
    _, attributes = _loads()
    unread = [member for member in _public_members()
              if member.rsplit(".", 1)[1] not in attributes]
    assert sorted(unread) == sorted(UNREAD_MEMBERS)


def test_the_spline_has_one_array_read_and_one_scalar_read():
    # ROADMAP aim 2, one interpolation path: besides __init__, which fits
    # the spline, only taylor (every array read; potential is its order-0
    # row) and the Numerov oracle's derivatives_scalar read its fields
    tree = ast.parse((PACKAGE / "potential.py").read_text())
    table = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                 and node.name == "PotentialTable")
    readers = {method.name for method in table.body
               if isinstance(method, ast.FunctionDef)
               for node in ast.walk(method)
               if isinstance(node, ast.Attribute)
               and isinstance(node.ctx, ast.Load)
               and node.attr in SPLINE_FIELDS}
    assert readers - {"__init__"} == {"taylor", "derivatives_scalar"}
