"""Every name a posprop module imports at module level is used there."""

import ast
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(
    importlib.util.find_spec("posprop").submodule_search_locations[0])

# bound only so that perfbench/spans.py can wrap them as module attributes
TRACER_ONLY = {("kalmar", "deduction"), ("kalmar", "prune"),
               ("kalmar", "_deduction_body"),
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


def test_kernel_imports_only_formula_from_the_package():
    tree = ast.parse((PACKAGE / "kernel.py").read_text(encoding="utf-8"))
    package = {node.module for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level}
    assert package == {"formula"}


def test_tracer_only_names_are_still_imported():
    for module, name in sorted(TRACER_ONLY):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        assert name in unused_imports(tree), f"{module}.{name}"


def test_import_builds_no_table():
    # the scheme patterns and a few constants are all that import interns;
    # a table or memo built at import would show here
    probe = ("import json, posprop, posprop.cli, posprop.transform, posprop.proofio\n"
             "from posprop import formula, kalmar, kernel, principal\n"
             "print(json.dumps([len(formula._BINARY_INTERN), len(formula._ATOM_INTERN),"
             " len(kalmar._LINE_CACHE), kernel._is_instance.cache_info().currsize,"
             " sum(len(rows) for rows, _ in principal._TABLES.values())]))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert json.loads(out.stdout) == [22, 3, 0, 0, 0]
