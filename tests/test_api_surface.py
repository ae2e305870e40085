"""Settable values of the numerical core, counted by one rule.

A settable value is a parameter with a default, or a dataclass field with a
default, on a public name (no leading underscore) defined in ``potential``,
``reflection``, ``numerov`` or ``lifetimes``: a public function, or a public
method or ``__init__`` of a public class.  ROADMAP aim 2 states the count;
this test keeps that number honest.  Run ``pytest tests/test_api_surface.py
-s`` to print the names.
"""

import dataclasses
import inspect

from qrmirror import lifetimes, numerov, potential, reflection

# the count ROADMAP aim 2 states
SETTABLE_VALUES = 14


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
