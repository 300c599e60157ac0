"""numpy stays the only runtime dependency: every module of the package
imports only the standard library, numpy and the package itself. And
records leave a shard one way, read into memory by shards.read_records:
no module maps a file with memmap."""

import ast
import sys
from pathlib import Path

import pytest

import walkembed

MODULES = sorted(Path(walkembed.__file__).parent.glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"numpy", "walkembed"}


def imported_roots(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, top-level package) of every absolute import in the tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def memmap_lines(tree: ast.Module) -> list[int]:
    """Lines of the tree that name memmap: an attribute, a name or an import."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "memmap"
        or isinstance(node, ast.Name) and node.id == "memmap"
        or isinstance(node, (ast.Import, ast.ImportFrom)) and any("memmap" in a.name.split(".") for a in node.names)
    )


def test_package_modules_found():
    assert {"graph.py", "model.py", "trainer.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_only_stdlib_numpy_and_walkembed(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bad = [f"{path.name}:{line} imports {root}" for line, root in imported_roots(tree) if root not in ALLOWED]
    assert bad == []


def test_a_third_party_import_is_caught():
    tree = ast.parse("import os\nimport scipy.sparse\nfrom numpy import linalg\nfrom .graph import Graph\nfrom torch import nn\n")
    assert [root for _, root in imported_roots(tree) if root not in ALLOWED] == ["scipy", "torch"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_maps_a_shard(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [f"{path.name}:{line} uses memmap" for line in memmap_lines(tree)] == []


def test_a_memmap_use_is_caught():
    tree = ast.parse(
        "import numpy as np\nfrom numpy import memmap\nm = np.memmap('f')\nn = memmap('f')\n"
        "np.fromfile('f')  # not a memmap\n"
    )
    assert memmap_lines(tree) == [2, 3, 4]
