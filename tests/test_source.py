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


def _package_imports(path: Path) -> set:
    """The package modules that `path` imports through `from .` statements."""
    modules = {p.stem for p in SOURCE.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:       # `from . import name`: a module, or a name of __init__
                found |= {a.name if a.name in modules else "__init__" for a in node.names}
    return found


def test_package_imports_are_one_way():
    """The package's import graph has no cycle, and only `cli` imports the
    pipeline-stage modules that sit on top of the library."""
    graph = {path.stem: _package_imports(path) for path in sorted(SOURCE.glob("*.py"))}
    assert "hand_model" in graph["ik"] and "ik" in graph["cli"]
    order = []
    while len(order) < len(graph):
        ready = sorted(m for m, deps in graph.items()
                       if m not in order and deps <= set(order))
        assert ready, f"import cycle among {sorted(set(graph) - set(order))}"
        order += ready
    importers = {m: sorted(src for src, deps in graph.items() if m in deps) for m in graph}
    for stage in ("cli", "augment", "evalkit", "ik", "wrist_geometry"):
        assert importers[stage] in ([], ["cli"]), (stage, importers[stage])


def _fft_calls(tree):
    """The `np.fft.<transform>(...)` calls in `tree`; the frequency and shift
    helpers are not transforms."""
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute) and func.value.attr == "fft"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in ("np", "numpy")
                and not func.attr.endswith(("freq", "shift"))):
            yield node


def test_fft_transforms_state_their_length():
    """Every `np.fft` transform in the package passes its length as `n=`, so
    none runs at a raw input length, where a large prime factor makes numpy
    fall back to a Bluestein transform several times slower."""
    trees = {path.relative_to(SOURCE): ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SOURCE.rglob("*.py"))}
    calls = [(f"{name}:{node.lineno}", {kw.arg for kw in node.keywords})
             for name, tree in trees.items() for node in _fft_calls(tree)]
    assert len(calls) >= 4     # the filter's and the augmentation's transform pairs
    assert [where for where, keywords in calls if "n" not in keywords] == []
    # the transforms are reached only as `np.fft.<name>`, which the walk above sees
    assert [f"{name}:{node.lineno}" for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and {getattr(node, "module", None), *(a.name for a in node.names)}
            & {"numpy.fft", "fft"}] == []


# imported and not used: benchmark/tests asserts that `cli` and `ik` bind the
# same `forward_kinematics`
_UNUSED_IMPORTS_KEPT = {"ik.py:forward_kinematics"}


def _unused_imports(path: Path, tree) -> list:
    """`path:name` of each module-level import of `tree` that no name in the
    module reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name.split(".")[0]): node.lineno for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {(a.asname or a.name): node.lineno for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path}:{name}" for name in bound if name not in read]


def test_package_has_no_unused_imports():
    """Every module-level import is read by its module, so the import list
    says what the module depends on."""
    found = [where for path in sorted(SOURCE.rglob("*.py"))
             for where in _unused_imports(path.relative_to(SOURCE),
                                          ast.parse(path.read_text(), filename=str(path)))]
    assert sorted(found) == sorted(_UNUSED_IMPORTS_KEPT)
