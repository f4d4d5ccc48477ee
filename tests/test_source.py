import ast
import inspect
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


def test_package_calls_no_compatibility_alias():
    # from_counts, RandomStream and sample_offspring are kept for outside
    # callers only: the package builds a PopulationState and draws through
    # the engine, so removing the aliases touches no module here
    aliases = {"from_counts", "RandomStream", "sample_offspring"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in aliases
    ]
    assert SOURCES and not found, found


def readme_python_blocks() -> list[str]:
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)


def test_readme_library_example_names_exist():
    # parsed, not run: every sp.<name> of the README's Python blocks must
    # still be a public attribute of the package
    import sporesim

    blocks = readme_python_blocks()
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


def test_readme_library_calls_bind_to_signatures():
    # parsed, not run: every call of sp.<name> or sp.<name>.<attr> in the
    # README's Python blocks must bind to the current signature
    import sporesim

    def target(func):
        path = []
        while isinstance(func, ast.Attribute):
            path.append(func.attr)
            func = func.value
        if not (isinstance(func, ast.Name) and func.id == "sp"):
            return None
        obj = sporesim
        for attr in reversed(path):
            obj = getattr(obj, attr)
        return obj

    calls = [
        (node, target(node.func))
        for block in readme_python_blocks()
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.Call)
    ]
    unbound = []
    for call, obj in calls:
        if obj is None:
            continue
        assert not any(isinstance(a, ast.Starred) for a in call.args), ast.unparse(call)
        assert all(kw.arg is not None for kw in call.keywords), ast.unparse(call)
        try:
            inspect.signature(obj).bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as e:
            unbound.append(f"{ast.unparse(call)}: {e}")
    assert any(obj is sporesim.survival_curve_mc for _, obj in calls)
    assert unbound == []


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


def test_package_version_matches_pyproject():
    # every artifact records tool_version from sporesim.__version__; the
    # installed distribution reports pyproject's copy (read by pattern, as
    # tomllib needs Python 3.11)
    import sporesim

    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version = "(.*)"$', project, flags=re.M) == [sporesim.__version__]
