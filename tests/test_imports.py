"""Every import in the package, the scripts and the tests is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for folder in ("src/msam", "scripts", "tests") for path in (ROOT / folder).glob("*.py")
)


def unused_imports(source: str):
    """Names bound by an import that the module never reads and does not
    list in `__all__`, as (line, name) pairs."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_checker_finds_unused_and_keeps_used():
    source = (
        "import os\nimport numpy.linalg\nfrom a import b as c, d\nfrom e import f\n"
        "__all__ = ['f']\nnumpy.linalg.norm(d)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
