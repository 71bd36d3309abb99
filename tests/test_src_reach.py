"""Every public name in src/refground is reached by the system, not only by tests.

The test lists the public top-level functions and classes of each module,
and the public methods of those classes (dunders and `_`-names skipped),
and asserts that each is referenced from src/, bench/, tools/ or demos/
outside its own definition. A reference is a name, an attribute or an
imported name in the parsed code; the package's `__init__.py` does not
count, since a re-export is no use.

Limit: the match is by name alone, so a dead name that shares its name with
a live one (a method `matrix` on two classes, a function `bleu` and a
report field `.bleu`) goes unnoticed.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "refground"

ALLOWED = {
    # the paper's parser protocol (tagging F1 and exact graph match over a
    # labeled corpus); acceptance check C1 runs it, no command does
    "eval_parser_corpus",
}


def public_definitions() -> list[tuple[Path, ast.AST]]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *members]:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)) and not item.name.startswith("_"):
                    found.append((path, item))
    return found


def references() -> dict[str, list[tuple[Path, int]]]:
    """Name -> (file, line) of every use in the system's code."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for folder in ("src", "bench", "tools", "demos"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                uses.setdefault(name, []).append((path, node.lineno))
    return uses


def test_every_public_name_in_src_is_reached_outside_tests():
    uses = references()
    unreached = []
    for path, node in public_definitions():
        outside = [
            (where, line)
            for where, line in uses.get(node.name, [])
            if not (where == path and node.lineno <= line <= node.end_lineno)
        ]
        if not outside and node.name not in ALLOWED:
            unreached.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert unreached == []
