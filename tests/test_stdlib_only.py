"""The package stays stdlib-only: every import in `src/pctlfg` names a
standard-library module or a module of the package itself.  Each
module keeps its private names: none imports a `_`-prefixed name from
another package module.  And the imports between package modules form no
cycle."""

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


def test_no_module_imports_a_private_name_of_another():
    # a `_`-prefixed name belongs to the module that defines it: no package
    # module imports one from another (`from . import linalg` names a module)
    root = pathlib.Path(pctlfg.__file__).parent
    private = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "pctlfg":
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(f"{path.name}: {alias.name} from "
                                   f"{'.' * node.level}{node.module or ''}")
    assert private == []


def _package_imports(root: pathlib.Path) -> dict[str, set[str]]:
    """Each module of the package, `__init__` and `__main__` left out, to
    the package modules it imports relatively, wherever the import stands
    (inside a function or under `if TYPE_CHECKING:` too)."""
    modules = {path.stem for path in root.glob("*.py")} - {"__init__", "__main__"}
    graph = {}
    for name in sorted(modules):
        path = root / f"{name}.py"
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # `from . import linalg`
                    imported.update(alias.name for alias in node.names)
                else:
                    imported.add(node.module.split(".")[0])
        graph[name] = imported & modules
    return graph


def test_package_import_graph_has_no_cycle():
    graph = _package_imports(pathlib.Path(pctlfg.__file__).parent)
    done, cycles = set(), []

    def visit(name, path):
        if name in path:
            cycles.append(" -> ".join(path[path.index(name):] + [name]))
            return
        if name in done:
            return
        for nxt in sorted(graph[name]):
            visit(nxt, path + [name])
        done.add(name)

    for name in sorted(graph):
        visit(name, [])
    assert cycles == []
