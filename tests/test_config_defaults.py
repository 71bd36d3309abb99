"""A setting has its default in PipelineConfig only.

The test reads every module of src/refground but config.py with `ast` and
lists each function parameter and each class-body field (a dataclass
field) that has both the name of a PipelineConfig key and a default value.
Such a default is a second source of truth for the setting: a caller that
leaves the argument out runs a value the configured system never runs.

Limit: the match is by name alone, so a parameter that holds a setting
under another name (`margin` for `traj_margin`) goes unnoticed.
"""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

from refground.config import PipelineConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "refground"

ERROR_KEYS = ("mu_c", "sigma_c", "mu_s", "sigma_s", "p_fn", "p_fp", "seed", "fp_per_detection")
ALLOWED = {
    # the detector error models: a zero default switches a model off, and
    # PipelineConfig.error_config sets every field from the config
    *(("ErrorConfig", key) for key in ERROR_KEYS),
    # the seed of the C1 parser corpus itself, not the pipeline's seed
    ("build_parser_corpus", "seed"),
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
    keys = {f.name for f in fields(PipelineConfig)}
    shadows = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for name in defaulted_names(node):
                if name in keys and (getattr(node, "name", None), name) not in ALLOWED:
                    shadows.append(f"{path.name}:{node.lineno} {node.name}({name})")
    assert shadows == []
