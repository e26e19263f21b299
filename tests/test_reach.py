"""Every definition in src/flmm is reached from src/flmm: code that only
tests call lives in tests/support.py as an oracle."""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "flmm"

# Named only by bench/ or tests/, and kept: the benchmark reads the first
# three, and socketserver calls the last two in every socket run.
KEPT = {
    ("_kernels.py", "USING_NUMBA"),
    ("orchestrator.py", "recover"),
    ("contribution.py", "evaluations"),
    ("orchestrator.py", "process_request"),
    ("orchestrator.py", "shutdown_request"),
}


def definitions(tree):
    """(name, node) of each module-level function, class and assignment, and
    of each method and annotated field of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield sub.name, sub
                elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    yield sub.target.id, sub
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def uses(tree):
    """(name, line) of each name, attribute and keyword argument in code;
    strings, docstrings, comments and imports name nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.value.lineno


def unreached() -> set:
    """(file, name) of each definition that no src/flmm code names outside
    itself and outside other unreached definitions. Dunders are reached:
    the language calls them."""
    defs, named = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs += [(path.name, name, node.lineno, node.end_lineno)
                 for name, node in definitions(tree)
                 if not (name.startswith("__") and name.endswith("__"))]
        named += [(path.name, name, line) for name, line in uses(tree)]
    dead: set = set()
    while True:
        new = {d for d in defs if d not in dead and not any(
            name == d[1] and not (f == d[0] and d[2] <= line <= d[3])
            and not any(f == e[0] and e[2] <= line <= e[3] for e in dead)
            for f, name, line in named)}
        if not new:
            return {(f, name) for f, name, _, _ in dead}
        dead |= new


def test_no_definition_in_src_is_only_for_tests():
    assert unreached() - KEPT == set()


def test_kept_definitions_still_exist():
    names = {(path.name, name) for path in SRC.glob("*.py")
             for name, _ in definitions(ast.parse(path.read_text()))}
    assert KEPT <= names
