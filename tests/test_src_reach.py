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
leaves the argument out, and the third that some call passes it. A call
with `*args` or `**kwargs` counts as doing both, and so does passing the
function as a value (bench's `timed_call(tracer, fn, *args)`). A default
that every call overrides is a second path that only tests take; one that
no call overrides is a constant in disguise.

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

ALLOWED_DEFAULTS: set[tuple[str, str]] = set()  # defaults that no system call leaves out

ALLOWED_CONSTANT_DEFAULTS = {  # defaults that no system call overrides
    # the test seam: tests pass argv, the console script takes sys.argv
    ("main", "argv"),
    # the paper's BLEU-4; tests check the formula at orders 1 and 2
    ("corpus_bleu", "max_n"),
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
    passed = index is not None and index < len(call.args)
    return not passed and name not in {k.arg for k in call.keywords}


def unpacks(call: ast.Call) -> bool:
    """Whether `call` passes `*args` or `**kwargs`, which may or may not hold the argument."""
    return any(isinstance(arg, ast.Starred) for arg in call.args) or any(k.arg is None for k in call.keywords)


def called_name(node: ast.AST) -> str | None:
    """The name a callee or an argument goes by: `f` or `module.f` give `f`."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def system_calls() -> tuple[dict[str, list[ast.Call]], set[str]]:
    """Name -> every call of that name in the system's code, and the names
    the system's code passes to a call as a value."""
    calls: dict[str, list[ast.Call]] = {}
    values: set[str] = set()
    for _, tree in system_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(called_name(node.func), []).append(node)
                values.update(called_name(arg) for arg in [*node.args, *(k.value for k in node.keywords)])
    return calls, values


def src_defaults() -> list[tuple[str, str, str, int | None]]:
    """(where, function name, parameter name, positional index or None) of
    every parameter default in src/refground."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                found.extend((where, node.name, name, index) for name, index in defaults(node))
    return found


def test_every_default_in_src_is_taken_by_a_call_outside_tests():
    calls, values = system_calls()
    untaken = [
        f"{where} {func}({name})"
        for where, func, name, index in src_defaults()
        if func not in values
        and not any(unpacks(call) or omits(call, name, index) for call in calls.get(func, []))
        and (func, name) not in ALLOWED_DEFAULTS
    ]
    assert untaken == []


def test_every_default_in_src_is_overridden_by_a_call_outside_tests():
    calls, values = system_calls()
    constant = [
        f"{where} {func}({name})"
        for where, func, name, index in src_defaults()
        if func not in values
        and not any(unpacks(call) or not omits(call, name, index) for call in calls.get(func, []))
        and (func, name) not in ALLOWED_CONSTANT_DEFAULTS
    ]
    assert constant == []
