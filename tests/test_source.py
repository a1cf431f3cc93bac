import ast
from pathlib import Path

SOURCE = Path(__file__).parents[1] / "src" / "handemg"


def test_package_has_no_assert_statements():
    """`python -O` strips asserts, so the package checks its inputs with
    typed errors instead."""
    found = [f"{path.relative_to(SOURCE)}:{node.lineno}"
             for path in sorted(SOURCE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert len(list(SOURCE.rglob("*.py"))) > 10
    assert found == []


def test_package_imports_only_at_module_level():
    """Every import sits at the top of its module, so a module's dependencies
    are read from its head and no call pays for an import."""
    found = [f"{path.relative_to(SOURCE)}:{node.lineno}"
             for path in sorted(SOURCE.rglob("*.py"))
             for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
