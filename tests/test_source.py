"""Static checks on the package source."""

import ast
import pathlib

import superrec

MODULES = sorted(pathlib.Path(superrec.__file__).parent.glob("*.py"))


def unused_imports(source):
    """The names a module's imports bind that it never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_every_import_is_used():
    assert MODULES
    unused = {path.name: names for path in MODULES
              if (names := unused_imports(path.read_text()))}
    assert unused == {}


def private_definitions(tree):
    """Names of the functions and classes a module defines with a leading
    underscore (dunder methods aside)."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")]


def read_names(tree):
    """Every name a module reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_private_definition_is_read():
    # code that nothing in the package calls is deleted, not kept
    trees = [ast.parse(path.read_text()) for path in MODULES]
    read = set().union(*map(read_names, trees))
    defined = [name for tree in trees for name in private_definitions(tree)]
    assert defined
    assert [name for name in defined if name not in read] == []


def test_asserts_do_not_grow():
    # `python -O` strips asserts, so a check a spec can reach is a typed
    # error; this bound only ever goes down
    asserts = sum(isinstance(node, ast.Assert)
                  for path in MODULES
                  for node in ast.walk(ast.parse(path.read_text())))
    assert asserts <= 8
