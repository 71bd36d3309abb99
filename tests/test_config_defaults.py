"""A setting has its default in PipelineConfig only.

The test reads every module of src/refground but config.py with `ast` and
lists each function parameter and each class-body field (a dataclass
field) that has both the name of a PipelineConfig key and a default value.
Such a default is a second source of truth for the setting: a caller that
leaves the argument out runs a value the configured system never runs.

A parameter named `lexicon` with a default counts as shadowing
`lexicon_path`: a caller that leaves it out gets a lexicon loaded behind
its back, or none where one is needed.

Limit: the match is by name alone, so a parameter that holds a setting
under any other name (`margin` for `traj_margin`) goes unnoticed.
"""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

from refground.config import PipelineConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "refground"

ALLOWED = {
    # the benchmark calls eval_counting with three arguments; without a
    # lexicon it loads config.lexicon() itself
    ("eval_counting", "lexicon"),
}


def defaulted_names(node: ast.AST) -> list[str]:
    """Names that take a default in a function signature or a class body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        a = node.args
        positional = a.posonlyargs + a.args
        names = [arg.arg for arg in positional[len(positional) - len(a.defaults) :]]
        return names + [arg.arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    if isinstance(node, ast.ClassDef):
        return [
            item.target.id
            for item in node.body
            if isinstance(item, ast.AnnAssign) and item.value is not None and isinstance(item.target, ast.Name)
        ]
    return []


def test_no_default_outside_config_shadows_a_config_key():
    # `lexicon` holds the setting `lexicon_path` under another name
    keys = {f.name for f in fields(PipelineConfig)} | {"lexicon"}
    shadows = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for name in defaulted_names(node):
                if name in keys and (getattr(node, "name", None), name) not in ALLOWED:
                    shadows.append(f"{path.name}:{node.lineno} {node.name}({name})")
    assert shadows == []
