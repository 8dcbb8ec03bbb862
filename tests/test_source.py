"""No module defines the same top-level function or class twice: the second
definition rebinds the name at import and leaves the first dead, which no
runtime test notices."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_top_level_name_defined_twice():
    twice = {}
    for folder in ("src/mapproj", "tests", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            names = Counter(
                node.name for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            )
            if repeated := sorted(name for name, n in names.items() if n > 1):
                twice[str(path.relative_to(ROOT))] = repeated
    assert twice == {}
