"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

SOURCE = sorted(
    p for p in (Path(__file__).parent.parent / "src" / "kernelmix").glob("*.py")
    if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", SOURCE, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


FULL_SPECTRUM = {"eigvalsh", "eigh", "svd", "eigvals"}


@pytest.mark.parametrize("path", SOURCE, ids=lambda p: p.name)
def test_no_full_spectrum_solves(path):
    # the package reads only lambda_max; an O(n^3) full spectrum is waste
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = sorted(
        f"{name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "attr", getattr(node.func, "id", None))]
        if name in FULL_SPECTRUM
    )
    assert not calls, f"{path.name} computes a full spectrum: {', '.join(calls)}"


def test_cli_flags_have_converters():
    # a bare int/float accepts 0, -1, nan and inf; every numeric flag needs a
    # checking converter so a bad value exits 3 before any work
    path = Path(__file__).parent.parent / "src" / "kernelmix" / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    bare = sorted(
        f"{ast.literal_eval(node.args[0]) if node.args else '?'} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        for kw in node.keywords
        if kw.arg == "type" and isinstance(kw.value, ast.Name) and kw.value.id in ("int", "float")
    )
    assert not bare, f"cli.py declares flags without a checking converter: {', '.join(bare)}"
