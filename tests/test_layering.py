"""The package's layering: which sibling modules each module imports.

errors and kernels sit at the bottom; exactpoly and rep use errors alone,
solver both; slopes sits above solver and rep, cover above slopes, and
checks and cli at the top.  A new sibling import has to be added here on purpose.
"""

import ast
from pathlib import Path

import twistcover

PACKAGE = Path(twistcover.__file__).parent

LAYERS = {
    "_version": set(),
    "errors": set(),
    "kernels": set(),
    "exactpoly": {"errors"},
    "solver": {"kernels", "errors"},
    "rep": {"errors"},
    "slopes": {"kernels", "solver", "rep", "errors"},
    "cover": {"kernels", "rep", "slopes", "errors"},
    "checks": {"cover", "exactpoly", "rep", "slopes", "solver", "errors"},
    "cli": {"checks", "cover", "exactpoly", "slopes", "solver", "errors", "_version"},
    "__init__": {"_version", "cover", "errors", "exactpoly", "rep", "slopes", "solver"},
}


def sibling_imports(path: Path) -> set:
    """Modules of the package that path imports: `from . import x` gives x,
    `from .x import y` gives x."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_every_module_imports_only_its_layers():
    graph = {path.stem: sibling_imports(path) for path in PACKAGE.glob("*.py")}
    assert graph == LAYERS
