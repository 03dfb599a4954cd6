"""Static checks on the package source."""

import ast
import contextlib
import importlib
import io
import pathlib
import re
import sys
from collections import Counter

import superrec
from superrec.cli import main

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


def test_only_scalars_reads_a_fraction():
    # a Scalar holds each coefficient as a reduced (numerator, denominator)
    # pair, and only scalars turns a Fraction into one: a module that reads
    # .numerator or .denominator would be a second coefficient format
    readers = {path.name for path in MODULES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute)
               and node.attr in ("numerator", "denominator")}
    assert readers == {"scalars.py"}


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
# leaves the list. A method whose name another class also defines is read
# only as Class.name or when the traced command runs it.
UNREAD_PUBLIC = {
    "airyengine.run_bosonic":
        "API: the fermion-free solve, checked against known values",
    "airyengine.ConstraintCoeffs.c_bb":
        "perfbench: counted as airyengine.coeff_calls",
    "airyengine.ConstraintCoeffs.c_ff":
        "perfbench: counted as airyengine.coeff_calls",
    "airyengine.ConstraintCoeffs.c_bf":
        "perfbench: counted as airyengine.coeff_calls",
    "biseries.BiSeries.scale": "perfbench: wrapped by layers.BISERIES_OPS",
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


# a command that runs every public method the package reads, unqualified,
# under a name that another class defines too: both engines on a fitted
# curve, whose fit runs the zoo's series
TRACED_COMMAND = ["crosscheck", "--curve", "ramond", "--chi-max", "5"]


def traced_codes(command):
    """The code objects of every Python function the command calls."""
    called = set()

    def hook(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(command) == 0
    finally:
        sys.setprofile(None)
    return called


def method_code(name):
    """The code object of the method module.Class.name, unwrapped from a
    classmethod, staticmethod or property."""
    module, cls, attr = name.split(".")
    value = vars(getattr(importlib.import_module(f"superrec.{module}"),
                         cls))[attr]
    value = getattr(value, "__func__", getattr(value, "fget", value))
    return value.__code__


def qualified_names(tree):
    """Class.name of each attribute a module reads off a bare name."""
    return {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)}


def test_every_public_definition_is_read_or_listed():
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    read = set().union(*map(read_names, trees.values()))
    qualified = set().union(*map(qualified_names, trees.values()))
    public = [name for module, tree in trees.items()
              for name in public_definitions(module, tree)]
    assert len(public) > len(UNREAD_PUBLIC)
    # a bare read of a method name two classes define may be either one's
    methods = Counter(name.rsplit(".", 1)[1] for name in public
                      if name.count(".") == 2)
    shared = [name for name in public if name.count(".") == 2
              and methods[name.rsplit(".", 1)[1]] > 1]
    assert shared
    run = traced_codes(TRACED_COMMAND)
    unread = {name for name in public if name.rsplit(".", 1)[1] not in read}
    unread |= {name for name in shared
               if name.split(".", 1)[1] not in qualified
               and method_code(name) not in run}
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



def test_readme_names_only_private_names_the_source_defines():
    # a private name in backticks (`_x`, or `module._x` inside a longer
    # span) must still name a function, class, module-level name or
    # attribute in the package, so the README cannot describe removed
    # code; ROADMAP.md keeps removed names on purpose and is not checked
    readme = pathlib.Path(superrec.__file__).resolve().parents[2] \
        / "README.md"
    defined = {path.stem for path in MODULES}
    for tree in (ast.parse(path.read_text()) for path in MODULES):
        defined.update(private_definitions(tree))
        defined.update(name.rsplit(".", 1)[1]
                       for name in self_attributes(tree))
        defined.update(target.id for node in tree.body
                       if isinstance(node, (ast.Assign, ast.AnnAssign))
                       for target in (node.targets
                                      if isinstance(node, ast.Assign)
                                      else [node.target])
                       if isinstance(target, ast.Name))
    text = re.sub(r"```.*?```", "", readme.read_text(), flags=re.S)
    named = {name for span in re.findall(r"`([^`\n]+)`", text)
             for name in re.findall(r"(?<!\w)_[A-Za-z]\w*", span)}
    assert named
    assert sorted(named - defined) == []
