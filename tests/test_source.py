import ast
import re
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


def test_readme_library_example_names_exist():
    # parsed, not run: every sp.<name> of the README's Python blocks must
    # still be a public attribute of the package
    import sporesim

    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    used = {
        node.attr
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "sp"
    }
    assert blocks and used, "README has no Python block using sp.<name>"
    assert sorted(name for name in used if not hasattr(sporesim, name)) == []


def test_readme_experiment_table_matches_schema():
    # a row per experiment type, no row for a retired one, and every key of
    # a type named in backticks in its row
    from sporesim.cli import EXPERIMENTS

    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `(\w+)` +\|(.*)\|$", readme, flags=re.M))
    assert sorted(rows) == sorted(EXPERIMENTS)
    missing = {
        kind: [key.name for key in spec.keys if f"`{key.name}`" not in rows[kind]]
        for kind, spec in EXPERIMENTS.items()
    }
    assert missing == {kind: [] for kind in EXPERIMENTS}
