"""The package's public surface is exactly uqc.__all__, and every
module-level function or class has a reader."""

import ast
import inspect
from pathlib import Path

import uqc


def test_every_exported_name_resolves():
    missing = [name for name in uqc.__all__ if not hasattr(uqc, name)]
    assert missing == []


def test_exports_are_the_public_attributes():
    # submodules (uqc.engine, ...) are attributes too, but not exports
    public = {name for name, value in vars(uqc).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(uqc.__all__) == sorted(public)
    assert len(set(uqc.__all__)) == len(uqc.__all__)


def test_every_module_function_has_a_reader():
    # A module-level function or class that nothing in src/uqc names, that
    # is not exported and that perfbench/run.py does not name is dead code.
    from test_benchmark_names import _run_py_names

    source = Path(uqc.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(source.glob("*.py"))}
    references: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                references.setdefault(name, []).append(node)
    benchmarked = _run_py_names()[1]
    unread = []
    for module, tree in trees.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = definition.name
            own = set(map(id, ast.walk(definition)))
            if not (any(id(node) not in own for node in references.get(name, ()))
                    or name in uqc.__all__ or f"{module}.{name}" in benchmarked):
                unread.append(f"{module}.{name}")
    assert unread == []
