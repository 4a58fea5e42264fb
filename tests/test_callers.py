"""Every function, method and class in src/alignkit/ has a caller or a pin.

A definition counts as used when src/alignkit/ refers to its name, as a
name or an attribute, outside the definition itself; when
tests/test_acceptance.py names it; or when a perfbench/tracing.py hook
targets it. Strings and imports do not count: alignkit/__init__.py exports
its public names as text, and a text search sees each of them as called.
Python calls the dunders itself, and argparse calls `_Parser.error`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import alignkit
from test_perfbench_hooks import load_tracing

SRC = Path(alignkit.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().with_name("test_acceptance.py")
CALLBACKS = {"cli._Parser.error"}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def walk(tree: ast.AST):
    """(definitions, references) of a module: each definition as (its dotted
    qualified name, its node), and each name or attribute referred to as
    (the name, the nodes of the definitions it is inside)."""
    definitions, references = [], []

    def visit(node, prefix, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                definitions.append((prefix + child.name, child))
                visit(child, f"{prefix}{child.name}.", inside | {child})
                continue
            if isinstance(child, ast.Name):
                references.append((child.id, inside))
            elif isinstance(child, ast.Attribute):
                references.append((child.attr, inside))
            visit(child, prefix, inside)

    visit(tree, "", frozenset())
    return definitions, references


def hook_targets() -> set[str]:
    """module.qualified name of the function each resolving perfbench hook
    wraps, wherever its target looks it up: `cli:to_set` wraps
    alignment.to_set."""
    tracing = load_tracing()
    targets = set()
    for _, target, _, _ in tracing.HOOKS:
        found = tracing._resolve(target)
        if found is not None:
            fn = getattr(found[2], "__func__", found[2])  # a classmethod's function
            targets.add(f"{fn.__module__.removeprefix('alignkit.')}.{fn.__qualname__}")
    return targets


def uncalled_in_src() -> list[tuple[str, str]]:
    """(module.qualified name, name) of every definition in src/alignkit/
    that no code there refers to, dunders left out."""
    definitions, references = [], []
    for path in sorted(SRC.glob("*.py")):
        found, refs = walk(ast.parse(path.read_text(encoding="utf-8")))
        definitions += [(f"{path.stem}.{qualname}", node) for qualname, node in found]
        references += refs
    names: dict[str, list[frozenset]] = {}
    for name, inside in references:
        names.setdefault(name, []).append(inside)
    return [
        (qualname, node.name)
        for qualname, node in definitions
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(node not in inside for inside in names.get(node.name, ()))
    ]


def test_every_definition_has_a_caller_in_src_or_a_pin():
    _, pinned = walk(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    pinned = {name for name, _ in pinned}
    hooked = hook_targets()
    unused = [
        qualname
        for qualname, name in uncalled_in_src()
        if name not in pinned and qualname not in hooked and qualname not in CALLBACKS
    ]
    assert not unused, f"no caller in src/alignkit/ and no pin: {unused}"
