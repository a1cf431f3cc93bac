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
