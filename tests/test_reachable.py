"""Every function, class and method in the package is used by the package,
the scripts or the benchmark, not only by the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "msam").glob("*.py"))
USERS = sorted(path for folder in ("src/msam", "scripts", "perfbench")
               for path in (ROOT / folder).glob("*.py"))
# Kept in the package as a reference the tests compare against; the tests
# hold their own oracles today.
ORACLES = set()


def definitions(source: str, module: str):
    """Qualified names of module-level functions and classes and of their
    non-dunder methods, as (qualified name, name) pairs."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((f"{module}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{module}.{node.name}.{item.name}", item.name) for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return found


class _References(ast.NodeVisitor):
    """Names read as variables or attributes, or spelled in a string (the
    benchmark's tracer patches "Class.method" by name).  An `__all__`
    export is not a use."""

    def __init__(self):
        self.names = set()

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.names.update(node.value.split("."))


def references(sources) -> set:
    visitor = _References()
    for source in sources:
        visitor.visit(ast.parse(source))
    return visitor.names


def unreferenced(package: dict, users) -> list:
    """Definitions in `package` (module name -> source) that no source in
    `users` reads, other than the oracles."""
    used = references(users)
    return sorted(
        qualified
        for module, source in package.items()
        for qualified, name in definitions(source, module)
        if name not in used and qualified not in ORACLES
    )


def test_checker_flags_unreferenced_and_keeps_used():
    package = {
        "m": "class A:\n    def used(self): pass\n    def idle(self): pass\n"
             "    def __len__(self): return 0\n"
             "def f(): pass\ndef g(): pass\ndef h(): pass\n",
    }
    users = ["A().used()\nf()\n__all__ = ['h']\n", "patch('A.g')\n"]
    assert unreferenced(package, users) == ["m.A.idle", "m.h"]


def test_every_definition_is_used_outside_the_tests():
    package = {path.stem: path.read_text() for path in PACKAGE}
    assert unreferenced(package, [path.read_text() for path in USERS]) == []
