"""Every true division in the package is one a reader has checked: a
`/` of two ints gives a float, which no term may hold."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gda"

# module:function of each `/`; both in conditions.py divide a Fraction
REVIEWED = [
    "conditions.py:derive_tree.expand",
    "conditions.py:derive_tree.expand",
    "terms.py:exact_quotient",
]


def true_divisions(source: str, module: str) -> list[str]:
    """module:function for each `/` or `/=` in source, in source order."""
    found: list[tuple[int, int, str]] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, node.col_offset, f"{module}:{'.'.join(scope)}"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return [where for *_, where in sorted(found)]


def test_every_true_division_is_reviewed():
    found = [
        where
        for path in sorted(SRC.glob("*.py"))
        for where in true_divisions(path.read_text(), path.name)
    ]
    assert found == REVIEWED


def test_a_new_division_is_caught():
    source = (
        "def f(a, b):\n    a /= 2\n    return a // b\n"
        "class K:\n    def g(self, x):\n        return x / 3\n"
    )
    assert true_divisions(source, "m.py") == ["m.py:f", "m.py:K.g"]
