"""Every name a posprop module imports at module level is used there."""

import ast
import importlib.util
import pathlib

import pytest

PACKAGE = pathlib.Path(
    importlib.util.find_spec("posprop").submodule_search_locations[0])

# bound only so that perfbench/spans.py can wrap them as module attributes
TRACER_ONLY = {("kalmar", "prune"), ("kalmar", "deduction"),
               ("transform", "prove"), ("transform", "deduction")}


def unused_imports(tree: ast.Module) -> list:
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).split(".")[0]
                         for alias in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:   # re-exports listed in __all__
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = [name for name in unused_imports(tree)
              if (path.stem, name) not in TRACER_ONLY]
    assert unused == [], f"{path.name} imports {unused} without using them"


def test_tracer_only_names_are_still_imported():
    for module, name in sorted(TRACER_ONLY):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        assert name in unused_imports(tree), f"{module}.{name}"
