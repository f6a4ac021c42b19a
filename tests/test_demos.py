"""Every liqlab name a demo uses exists, and every keyword it passes is taken.

The demos are scripts that tier-1 does not run, so an API change could
leave one calling a deleted name or a dropped parameter.  Each demo is
parsed, not run: every `ll.<name>` of `import liqlab as ll` and every name
of a `from liqlab... import` must resolve, and each keyword of a call to a
resolved liqlab callable must be a parameter of its signature (unless the
signature takes **kwargs).
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import liqlab

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _resolve(node, names):
    """The object an `a.b.c` expression names, if its root is a liqlab name."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, names)
        return None if base is None else getattr(base, node.attr, None)
    return None


def _unknown_keywords(call, target):
    try:
        params = inspect.signature(target).parameters
    except (TypeError, ValueError):
        return []
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return []
    return [kw.arg for kw in call.keywords if kw.arg is not None and kw.arg not in params]


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_names_resolve(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    names = {alias.asname or alias.name: liqlab for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names
             if alias.name == "liqlab"}
    aliases = set(names)
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "liqlab":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    names[alias.asname or alias.name] = getattr(module, alias.name)
                else:
                    missing.append(f"{node.module}.{alias.name}")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and not hasattr(liqlab, node.attr)):
            missing.append(f"liqlab.{node.attr}")
    assert not missing, f"{demo.name} uses names liqlab does not define: {missing}"

    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target = _resolve(node.func, names)
            if callable(target):
                bad += [f"{ast.unparse(node.func)}({kw}=...)"
                        for kw in _unknown_keywords(node, target)]
    assert not bad, f"{demo.name} passes keywords liqlab does not take: {bad}"
