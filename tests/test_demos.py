"""Every liqlab name a demo uses exists.

The demos are scripts that tier-1 does not run, so an API change could
leave one calling a deleted name.  Each demo is parsed, not run: every
`ll.<name>` of `import liqlab as ll` and every name of a
`from liqlab... import` must resolve.
"""

import ast
import importlib
from pathlib import Path

import pytest

import liqlab

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_names_resolve(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "liqlab"}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "liqlab":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and not hasattr(liqlab, node.attr)):
            missing.append(f"liqlab.{node.attr}")
    assert not missing, f"{demo.name} uses names liqlab does not define: {missing}"
