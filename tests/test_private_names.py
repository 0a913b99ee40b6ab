"""Every private module-level name of the package is used in it, so a refactor leaves no helper behind.

Read with ``ast``; nothing is imported or run.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "weaktyp"


def defined_names(stmt: ast.stmt) -> list[str]:
    """Names a module-level statement binds: a function, a class, or assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def read_names(stmt: ast.stmt) -> set[str]:
    """Names a statement reads, bare or as an attribute (``decoders._blocks``)."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(stmt)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)) or isinstance(node, ast.Attribute)
    }


def test_every_private_module_level_name_is_used_outside_its_definition():
    statements = [
        (path.name, stmt) for path in sorted(PACKAGE.glob("*.py")) for stmt in ast.parse(path.read_text()).body
    ]
    private = {
        (module, name, i)
        for i, (module, stmt) in enumerate(statements)
        for name in defined_names(stmt)
        if name.startswith("_") and not name.startswith("__")
    }
    reads = [read_names(stmt) for _, stmt in statements]
    unused = sorted(
        f"{module}: {name}"
        for module, name, i in private
        if not any(name in names for j, names in enumerate(reads) if j != i)
    )
    assert len(private) > 50
    assert not unused, unused
