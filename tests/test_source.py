"""Static checks over the package source."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from kernelmix import cli, diagnostics

PACKAGE = sorted((Path(__file__).parent.parent / "src" / "kernelmix").glob("*.py"))
SOURCE = [p for p in PACKAGE if p.name != "__init__.py"]


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


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_kernelmix(path):
    # numpy is the only runtime dependency; function-local imports count too
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [
        (alias.name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    ] + [
        (node.module or "", node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    ]
    allowed = sys.stdlib_module_names | {"numpy", "kernelmix"}
    foreign = sorted(f"{name} (line {line})" for name, line in modules if name.split(".")[0] not in allowed)
    assert not foreign, f"{path.name} imports outside the standard library, numpy and kernelmix: {', '.join(foreign)}"


FULL_SPECTRUM = {"eigvalsh", "svd", "eigvals"}


@pytest.mark.parametrize("path", SOURCE, ids=lambda p: p.name)
def test_no_full_spectrum_solves(path):
    # the package reads only lambda_max; an O(n^3) full spectrum is waste.
    # eigh solves Lanczos' small tridiagonals: test_eigh_sees_only_lanczos_tridiagonals
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = sorted(
        f"{name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "attr", getattr(node.func, "id", None))]
        if name in FULL_SPECTRUM
    )
    assert not calls, f"{path.name} computes a full spectrum: {', '.join(calls)}"


def test_eigh_sees_only_lanczos_tridiagonals(tmp_path, monkeypatch):
    # a whole diagnose run, with n and D above the Lanczos basis: every eigh
    # call gets a tridiagonal of at most _LANCZOS_BASIS rows, never G or K^w
    sides = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sides.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    monkeypatch.chdir(tmp_path)
    flags = ["--synthetic", "two-gaussian", "--synthetic-n", "150", "--gammas", "0.5,2", "--draws", "300",
             "--trials", "2", "--pairs", "5", "--out", "diag"]
    assert cli.main(["diagnose", *flags]) == 0
    assert sides and max(sides) <= diagnostics._LANCZOS_BASIS, max(sides)


# flags whose value is a file path, which the command opens and checks itself
PATH_FLAGS = {"--config", "--data", "--out", "--log", "--model"}


def test_cli_flags_have_converters():
    # a bare int/float accepts 0, -1, nan and inf, and a flag with no
    # converter accepts anything; every value flag needs a checking converter
    # so a bad value exits 3 before any work
    path = Path(__file__).parent.parent / "src" / "kernelmix" / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    unchecked = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"):
            continue
        flag = ast.literal_eval(node.args[0]) if node.args else "?"
        keywords = {kw.arg: kw.value for kw in node.keywords}
        converter = keywords.get("type")
        bare = isinstance(converter, ast.Name) and converter.id in ("int", "float")
        checked = (converter is not None and not bare) or {"choices", "action"} & keywords.keys()
        if not checked and flag not in PATH_FLAGS:
            unchecked.append(f"{flag} (line {node.lineno})")
    assert not unchecked, f"cli.py declares flags without a checking converter: {', '.join(sorted(unchecked))}"
