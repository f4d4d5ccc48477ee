import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "sporesim").glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check the package relies on
    # must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
