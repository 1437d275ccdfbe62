"""The package stays stdlib-only: every import in `src/pctlfg` names a
standard-library module or a module of the package itself."""

import ast
import pathlib
import sys

import pctlfg


def test_package_imports_only_the_standard_library():
    root = pathlib.Path(pctlfg.__file__).parent
    outside = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "pctlfg" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []
