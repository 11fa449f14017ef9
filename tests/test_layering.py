"""The package's layering: which sibling modules each module imports.

errors and kernels sit at the bottom; exactpoly and rep use errors alone,
solver both; slopes sits above solver and rep, cover above slopes, and
checks and cli at the top.  A new sibling import has to be added here on purpose.
A certificate's x^p L^q is formed in one place, cover._closure, which only
certificate and checks.audit call: outside cover itself nothing powers or
multiplies in the cover, and only checks.audit pushes a closure down with
from_su11.
"""

import ast
from pathlib import Path

import twistcover

PACKAGE = Path(twistcover.__file__).parent
TOOLS = Path(__file__).resolve().parent.parent / "tools"

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


# each cover function that forms or pushes down x^p L^q, and the (file name,
# outermost function) pairs in src/ and tools/ that may call it; cover.py
# is searched for _closure and from_su11 only, since its own group law
# powers and multiplies
CLOSURE_CALLERS = {
    "_closure": {("cover.py", "certificate"), ("checks.py", "audit")},
    "from_su11": {("checks.py", "audit")},
    "_pow": set(),
    "cover_pow": set(),
    "cover_mul": set(),
}
COVER_OWN = {"_pow", "cover_pow", "cover_mul"}


def closure_callers(path: Path) -> set:
    """(called name, file name, outermost function) of each call to a
    CLOSURE_CALLERS name in path, by plain name or as an attribute; None
    outside any function."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in CLOSURE_CALLERS and not (path.name == "cover.py" and name in COVER_OWN):
                found.add((name, path.name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(), str(path)), None)
    return found


def test_only_the_audit_rebuilds_a_certificate():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TOOLS.glob("*.py"))
    found = set().union(*(closure_callers(path) for path in paths))
    allowed = {(name, *at) for name, where in CLOSURE_CALLERS.items() for at in where}
    assert found == allowed
