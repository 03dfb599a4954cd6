"""Static checks on the package source."""

import ast
import pathlib
import re

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


def self_attributes(tree):
    """Class.name of each attribute a class assigns on self."""
    return [f"{cls.name}.{node.attr}"
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in ast.walk(cls)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"]


def test_every_attribute_is_read():
    # an attribute that nothing in the package reads by name is state that
    # only a test could want, so the test builds it, not the package
    trees = [ast.parse(path.read_text()) for path in MODULES]
    loaded = {node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    assigned = [name for tree in trees for name in self_attributes(tree)]
    assert assigned
    assert [name for name in assigned
            if name.rsplit(".", 1)[1] not in loaded] == []


def builds_a_container(value):
    """Whether an expression builds a dict, list or set."""
    if isinstance(value, ast.Call):
        func = value.func
        return getattr(func, "id", getattr(func, "attr", None)) in {
            "dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
    return isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp))


def test_svir_keeps_no_mutable_module_state():
    # svir's mode tables live on a ring or a ShiftData and go with it; one
    # at module level would outlive the command that filled it and carry
    # entries from one test to the next. The one module-level container is
    # the constant _PAIRS; nor is there a global rebound in a function or
    # a cache behind a decorator.
    tree = ast.parse(
        (pathlib.Path(superrec.__file__).parent / "svir.py").read_text())
    bound = [target.id for node in tree.body
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             and builds_a_container(node.value)
             for target in (node.targets if isinstance(node, ast.Assign)
                            else [node.target])
             if isinstance(target, ast.Name)]
    assert bound == ["_PAIRS"]
    assert not any(isinstance(node, ast.Global) for node in ast.walk(tree))
    assert not read_names(tree) & {"cache", "lru_cache", "cached_property"}


def test_asserts_do_not_grow():
    # `python -O` strips asserts, so a check a spec can reach is a typed
    # error; this bound only ever goes down. The one left is the
    # leading-term invariant in CurveBases.__init__, which no spec reaches:
    # CurveData.validate keeps tau_epsilon nonzero, and the lead of
    # delta_omega is 2 tau_epsilon by construction.
    asserts = sum(isinstance(node, ast.Assert)
                  for path in MODULES
                  for node in ast.walk(ast.parse(path.read_text())))
    assert asserts <= 1


# The public functions and classes that nothing in the package reads, each
# with why it stays: API (an entry point for users of the package),
# perfbench (the benchmark wraps or calls it) or test oracle (the tests use
# it to check the package). A public definition is read in the package or
# listed here, and a listed one that the package reads or no longer defines
# leaves the list.
UNREAD_PUBLIC = {
    "airyengine.run_bosonic":
        "API: the fermion-free solve, checked against known values",
    "airyengine.ConstraintCoeffs.c_bb":
        "perfbench: counted as airyengine.coeff_calls",
    "airyengine.ConstraintCoeffs.c_ff":
        "perfbench: counted as airyengine.coeff_calls",
    "airyengine.ConstraintCoeffs.c_bf":
        "perfbench: counted as airyengine.coeff_calls",
    "cli.document_entries":
        "perfbench: reads the entries of a result document back",
    "series.FormalSeries.sigma":
        "perfbench: counted as series.sigma_calls",
    "svir.annihilation_report":
        "API: the partition-function annihilation oracle",
    "svir.dilaton_report": "API: the super dilaton equation on a tensor",
}


def public_definitions(module, tree):
    """module.name and module.Class.name of the public functions and
    classes a module defines at its top level and in its classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            out.append(f"{module}.{node.name}")
        if isinstance(node, ast.ClassDef):
            out += [f"{module}.{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")]
    return out


def test_every_public_definition_is_read_or_listed():
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    read = set().union(*map(read_names, trees.values()))
    public = [name for module, tree in trees.items()
              for name in public_definitions(module, tree)]
    assert len(public) > len(UNREAD_PUBLIC)
    unread = {name for name in public if name.rsplit(".", 1)[1] not in read}
    assert unread == set(UNREAD_PUBLIC)


def test_unread_public_reasons_name_their_readers():
    # each entry's reason starts with who reads it, and a perfbench or test
    # oracle entry is still read there: its name appears in perfbench/*.py
    # or in a test module other than this one, which lists every name
    here = pathlib.Path(__file__).resolve()
    readers = {"perfbench": here.parents[1].glob("perfbench/*.py"),
               "test oracle": (path for path in here.parent.glob("*.py")
                               if path != here)}
    texts = {tag: "".join(path.read_text() for path in paths)
             for tag, paths in readers.items()}
    assert all(texts.values())
    unread = []
    for name, reason in UNREAD_PUBLIC.items():
        tag = reason.split(":", 1)[0]
        assert tag in ("API", *texts), (name, reason)
        if tag in texts and not re.search(
                rf"\b{name.rsplit('.', 1)[1]}\b", texts[tag]):
            unread.append(name)
    assert unread == []
