import ast
from pathlib import Path

import stalefl

SOURCES = sorted(Path(stalefl.__file__).parent.glob("*.py"))


def test_every_module_parses_as_python_3_10():
    """pyproject.toml declares Python >= 3.10; each module of stalefl must
    parse with the grammar of 3.10. This catches syntax only: a call to an
    API that 3.10 lacks, such as `BaseException.add_note`, still passes."""
    assert len(SOURCES) > 1
    for path in SOURCES:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def imported_names(tree: ast.Module) -> set[str]:
    """The names a module's import statements bind, `__future__` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def test_no_module_imports_a_name_it_does_not_use():
    """Every name a module of stalefl imports is read somewhere in it; only
    `__init__` imports names to re-export them."""
    unused = {}
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        names = imported_names(tree) - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if names:
            unused[path.name] = sorted(names)
    assert unused == {}
