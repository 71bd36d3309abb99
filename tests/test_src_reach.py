"""Every public name and every default in src/refground is reached by the
system, not only by tests.

The first test lists the public top-level functions and classes of each
module, and the public methods of those classes (dunders and `_`-names
skipped), and asserts that each is referenced from src/, bench/, tools/ or demos/
outside its own definition. A reference is a name, an attribute or an
imported name in the parsed code; the package's `__init__.py` does not
count, since a re-export is no use.

The second test lists each parameter default of every function and method
in src/refground and asserts that some call of that name in the same code
leaves the argument out. A call with `*args` or `**kwargs` counts as leaving
it out. A default that every call overrides is a second path that only
tests take.

Limit: the match is by name alone, so a dead name that shares its name with
a live one (a method `matrix` on two classes, a function `bleu` and a
report field `.bleu`) goes unnoticed, and a default that one function
leaves unused passes when a call of a namesake omits its argument.
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

ALLOWED_DEFAULTS = {
    # one view rendered outside a trajectory builds its own set-up and pixel
    # rectangles: the dense-reference tests compare that path, and the
    # benchmark reads render_scene's positional signature
    ("render_scene", "setup"),
    ("render_scene", "rects"),
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


def system_trees() -> list[tuple[Path, ast.Module]]:
    """The parsed modules of src/, bench/, tools/ and demos/ but the package's `__init__.py`."""
    return [
        (path, ast.parse(path.read_text(encoding="utf-8")))
        for folder in ("src", "bench", "tools", "demos")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path != PACKAGE / "__init__.py"
    ]


def references() -> dict[str, list[tuple[Path, int]]]:
    """Name -> (file, line) of every use in the system's code."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in system_trees():
        for node in ast.walk(tree):
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


def defaults(node: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, index among the positional arguments a call passes, or None for
    keyword-only) of each parameter of `node` that has a default."""
    a = node.args
    positional = a.posonlyargs + a.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(a.defaults)
    found: list[tuple[str, int | None]] = [
        (arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first
    ]
    return found + [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def omits(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether `call` leaves the argument out, so that the default runs."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(k.arg is None for k in call.keywords):
        return True
    passed = index is not None and index < len(call.args)
    return not passed and name not in {k.arg for k in call.keywords}


def test_every_default_in_src_is_taken_by_a_call_outside_tests():
    calls: dict[str, list[ast.Call]] = {}
    for _, tree in system_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    untaken = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for name, index in defaults(node):
                taken = any(omits(call, name, index) for call in calls.get(node.name, []))
                if not taken and (node.name, name) not in ALLOWED_DEFAULTS:
                    untaken.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}({name})")
    assert untaken == []
