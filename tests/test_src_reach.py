"""Every public name and every default in src/refground is reached by the
system, not only by tests.

The first test lists the public top-level functions and classes of each
module, and the public methods of those classes (dunders and `_`-names
skipped), and asserts that each is referenced from src/, bench/, tools/ or demos/
outside its own definition. A reference is a name, an attribute or an
imported name in the parsed code; the package's `__init__.py` does not
count, since a re-export is no use.

The second test lists each parameter default of every function and method
in src/refground, and each init field default of every dataclass and
`NamedTuple` (a parameter of the class's constructor), and asserts that some
call of that name in src/, bench/ or tools/ leaves the argument out; the
third asserts that some such call passes it. A call of a class's name, or
of `cls(...)` inside the class body, is a call of its constructor. A call
with `*args` or `**kwargs` counts as doing both, and so does passing the
function or class as a value (bench's `timed_call(tracer, fn, *args)`); the
type argument of `isinstance` is no such value. Demos, like tests, do not
count as callers: they show the program's calls, so an option that only a
demo takes is one the program never runs. A default that every call
overrides is a second path that only tests and demos take; one that no call
overrides is a constant in disguise.

The fourth test lists every exception class defined in src/refground and
asserts that some handler in the same code names it: an `except` type, the
second argument of `isinstance`, or a key of the CLI's `EXIT_CODES` table.
A raise site is no handler; a class that no code tells apart from its base
is a second name for the base.

The synthetic tests run the default rules on small source trees, so a later
edit cannot reopen a blind spot without a failing test.

Limit: the match is by name alone, so a dead name that shares its name with
a live one (a method `matrix` on two classes, a function `bleu` and a
report field `.bleu`) goes unnoticed, and a default that one function
leaves unused passes when a call of a namesake omits its argument.
"""

from __future__ import annotations

import ast
import builtins
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "refground"

NAME_CALLERS = ("src", "bench", "tools", "demos")  # what reaches a public name or tells an exception apart
DEFAULT_CALLERS = ("src", "bench", "tools")  # whose calls take or override a default

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


def system_trees(root: Path, folders: tuple[str, ...]) -> list[tuple[Path, ast.Module]]:
    """The parsed modules under `folders` of `root` but the package's `__init__.py`."""
    return [
        (path, ast.parse(path.read_text(encoding="utf-8")))
        for folder in folders
        for path in sorted((root / folder).rglob("*.py"))
        if path != root / "src" / "refground" / "__init__.py"
    ]


def references() -> dict[str, list[tuple[Path, int]]]:
    """Name -> (file, line) of every use in the system's code."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in system_trees(ROOT, NAME_CALLERS):
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


def is_record(node: ast.ClassDef) -> bool:
    """Whether the class is a dataclass or a `NamedTuple`, whose fields are
    the parameters of its constructor."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(called_name(d) == "dataclass" for d in decorators) or any(
        called_name(base) == "NamedTuple" for base in node.bases
    )


def field_defaults(node: ast.ClassDef) -> list[tuple[str, int]]:
    """(name, index among the constructor's positional arguments) of each
    init field of a dataclass or `NamedTuple` that has a default."""
    found = []
    index = 0
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and called_name(value.func) == "field":
            options = {k.arg: k.value for k in value.keywords}
            init = options.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            has_default = "default" in options or "default_factory" in options
        else:
            has_default = value is not None
        if has_default:
            found.append((item.target.id, index))
        index += 1
    return found


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


def system_calls(trees: list[tuple[Path, ast.Module]]) -> tuple[dict[str, list[ast.Call]], set[str]]:
    """Name -> every call of that name in `trees`, and the names passed to a
    call as a value. `cls(...)` inside a class body is a call of that class;
    the type argument of `isinstance` is not passed as a value."""
    calls: dict[str, list[ast.Call]] = {}
    values: set[str] = set()

    def visit(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, ast.Call):
            name = called_name(node.func)
            calls.setdefault(owner if name == "cls" else name, []).append(node)
            passed = [*node.args, *(k.value for k in node.keywords)]
            values.update(called_name(arg) for arg in (passed[:1] if name == "isinstance" else passed))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for _, tree in trees:
        visit(tree, None)
    return calls, values


def src_defaults(root: Path) -> list[tuple[str, str, str, int | None]]:
    """(where, function or class name, parameter or field name, positional
    index or None) of every default in src/refground under `root`."""
    found = []
    for path in sorted((root / "src" / "refground").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = defaults(node)
            elif isinstance(node, ast.ClassDef) and is_record(node):
                params = field_defaults(node)
            else:
                continue
            where = f"{path.relative_to(root)}:{node.lineno}"
            found.extend((where, node.name, name, index) for name, index in params)
    return found


def untaken_defaults(root: Path, allowed: set[tuple[str, str]]) -> list[str]:
    """Every default in src/refground that no call in src/, bench/ or tools/ leaves out."""
    calls, values = system_calls(system_trees(root, DEFAULT_CALLERS))
    return [
        f"{where} {func}({name})"
        for where, func, name, index in src_defaults(root)
        if func not in values
        and not any(unpacks(call) or omits(call, name, index) for call in calls.get(func, []))
        and (func, name) not in allowed
    ]


def constant_defaults(root: Path, allowed: set[tuple[str, str]]) -> list[str]:
    """Every default in src/refground that no call in src/, bench/ or tools/ overrides."""
    calls, values = system_calls(system_trees(root, DEFAULT_CALLERS))
    return [
        f"{where} {func}({name})"
        for where, func, name, index in src_defaults(root)
        if func not in values
        and not any(unpacks(call) or not omits(call, name, index) for call in calls.get(func, []))
        and (func, name) not in allowed
    ]


def test_every_default_in_src_is_taken_by_a_call_outside_tests():
    assert untaken_defaults(ROOT, ALLOWED_DEFAULTS) == []


def test_every_default_in_src_is_overridden_by_a_call_outside_tests():
    assert constant_defaults(ROOT, ALLOWED_CONSTANT_DEFAULTS) == []


def source_tree(root: Path, files: dict[str, str]) -> Path:
    """`root` holding each file of `files` (path relative to `root` -> source)."""
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def test_a_field_default_that_no_call_leaves_out_is_reported(tmp_path):
    root = source_tree(tmp_path, {"src/refground/box.py": """\
        from dataclasses import dataclass, field

        @dataclass
        class Box:
            size: int
            label: str = "box"
            tags: list = field(default_factory=list)
            area: int = field(default=0, init=False)

        def make():
            return Box(1, "cup", [])
        """})
    assert untaken_defaults(root, set()) == ["src/refground/box.py:4 Box(label)", "src/refground/box.py:4 Box(tags)"]
    assert constant_defaults(root, set()) == []


def test_a_cls_call_inside_the_class_calls_its_constructor(tmp_path):
    root = source_tree(tmp_path, {"src/refground/box.py": """\
        from typing import NamedTuple

        class Box(NamedTuple):
            size: int
            label: str = "box"

            @classmethod
            def from_dict(cls, d):
                return cls(d["size"])

        def make():
            return Box(1, "cup")
        """})
    assert untaken_defaults(root, set()) == []
    assert constant_defaults(root, set()) == []


def test_an_isinstance_type_argument_does_not_exempt_a_class(tmp_path):
    root = source_tree(tmp_path, {"src/refground/box.py": """\
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Box:
            size: int
            label: str = "box"

        def make(x):
            return x if isinstance(x, Box) else Box(1, "cup")
        """})
    assert untaken_defaults(root, set()) == ["src/refground/box.py:4 Box(label)"]


def test_a_default_that_only_a_demo_leaves_out_is_reported(tmp_path):
    root = source_tree(tmp_path, {
        "src/refground/scale.py": """\
            def scale(x, factor=2):
                return x * factor

            def run():
                return scale(1, 3)
            """,
        "demos/01_scale.py": """\
            from refground.scale import scale

            print(scale(1))
            """,
    })
    assert untaken_defaults(root, set()) == ["src/refground/scale.py:1 scale(factor)"]
    assert constant_defaults(root, set()) == []


def src_exception_classes() -> list[tuple[Path, ast.ClassDef]]:
    """Every class in src/refground that derives, through builtins or other
    such classes, from BaseException."""
    classes = [
        (path, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    ]
    errors = {
        name for name, value in vars(builtins).items() if isinstance(value, type) and issubclass(value, BaseException)
    }
    found: list[tuple[Path, ast.ClassDef]] = []
    grew = True
    while grew:
        grew = False
        for path, node in classes:
            if node.name not in errors and any(called_name(base) in errors for base in node.bases):
                errors.add(node.name)
                found.append((path, node))
                grew = True
    return found


def type_names(node: ast.AST | None) -> list[str | None]:
    """The class names an `except` clause or an `isinstance` test names: one, or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in type_names(elt)]
    return [] if node is None else [called_name(node)]


def handled_names() -> set[str]:
    """The class names that some handler in the system's code tells apart."""
    names: set[str] = set()
    for _, tree in system_trees(ROOT, NAME_CALLERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                names.update(type_names(node.type))
            elif isinstance(node, ast.Call) and called_name(node.func) == "isinstance" and len(node.args) == 2:
                names.update(type_names(node.args[1]))
            elif (
                isinstance(node, ast.Assign)
                and any(called_name(target) == "EXIT_CODES" for target in node.targets)
                and isinstance(node.value, ast.Dict)
            ):
                names.update(name for key in node.value.keys if key is not None for name in type_names(key))
    return names


def test_every_exception_class_in_src_is_told_apart_by_a_handler():
    handled = handled_names()
    unhandled = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, node in src_exception_classes()
        if node.name not in handled
    ]
    assert unhandled == []
