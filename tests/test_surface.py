"""No production code that only tests call: every function and class that
src/protoreg defines is reachable from the command line, apart from a fixed
set that perfbench/ reads (ROADMAP item 5).

The walk starts at every module's top-level code, at cli.main and at the
cmd_<name> of each subcommand <name> (main looks it up by name), and follows
the names that each reached body reads. A read name reaches every function and
class of that name outside a class body, and an attribute read (x.name) also
reaches every method of that name; a reached class's own body and dunder
methods run too. So a method named like an attribute of numpy, of the builtins
or of a stdlib module that src/protoreg imports counts as reached wherever
that attribute is read; each such method names a function that calls it
(NUMPY_NAMED).

perfbench/tracing.py wraps protoreg's functions where its callers look them
up, so a name it lists must stay there; the last test checks that every one
is."""

import ast
import builtins
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "protoreg"

# each is deleted by ROADMAP item 5, once perfbench/ no longer reads it
BENCHMARK_ONLY = {"generate", "make_splits", "predict_np", "save_dataset", "sparsity",
                  "synth_config_from", "top_contributor_set"}

# every method of a src/protoreg class whose name is in foreign_names():
# {"<class>.<method>": "<module>.<function that calls it>"}
NUMPY_NAMED = {
    "Adam.step": "trainer._run_epochs",
    "Tensor.add": "losses.total_loss",
    "Tensor.item": "trainer._batch_loss",
    "Tensor.log": "prototypes.similarity",
    "Tensor.mean": "losses.mse",
    "Tensor.mul": "head.predict",
    "Tensor.reciprocal": "prototypes.similarity",
    "Tensor.reshape": "prototypes.min_pool",
    "Tensor.square": "losses.mse",
    "Tensor.sub": "losses.mse",
    "Tensor.sum": "head.predict",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parsed():
    return {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def reads(stmts) -> set:
    """What running stmts reads, as ("name", n) for a loaded Name or Attribute n
    and ("attr", n) for a loaded Attribute n: in the statements, and in the
    decorators, defaults and bases of the functions and classes they define,
    but not in those definitions' bodies."""
    names, todo = set(), list(stmts)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo += node.decorator_list + node.args.defaults
            todo += [d for d in node.args.kw_defaults if d is not None]
            continue
        if isinstance(node, ast.ClassDef):
            todo += node.decorator_list + node.bases + [k.value for k in node.keywords]
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(("name", node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names |= {("name", node.attr), ("attr", node.attr)}
        todo += ast.iter_child_nodes(node)
    return names


def subcommands(trees) -> set:
    """The name of each subparser that src/protoreg/cli.py adds."""
    return {node.args[0].value for node in ast.walk(trees[SRC / "cli.py"])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_parser"}


def command_functions(trees) -> set:
    return {node.name for node in trees[SRC / "cli.py"].body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")}


def methods(tree):
    """(class, def node) of each function and class in a class body of tree."""
    return [(cls, node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, _DEFS)]


def unreachable_definitions(trees):
    """{name: (path, def node)} of the non-dunder functions and classes that
    the walk in this module's docstring does not reach."""
    defined = {}  # the read that reaches a definition: {(kind, name): [(path, node)]}
    for path, tree in trees.items():
        in_class = {node for _, node in methods(tree)}
        for node in ast.walk(tree):
            if isinstance(node, _DEFS):
                key = ("attr" if node in in_class else "name", node.name)
                defined.setdefault(key, []).append((path, node))
    todo = {("name", "main")} | {("name", "cmd_" + name.replace("-", "_"))
                                 for name in subcommands(trees)}
    for tree in trees.values():
        todo |= reads(tree.body)
    reached = set()
    while todo:
        key = todo.pop()
        reached.add(key)
        for _, node in defined.get(key, []):
            todo |= reads(node.body)
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, _DEFS) and is_dunder(method.name):
                        todo |= reads(method.body)
        todo -= reached
    return {name: where[0] for (kind, name), where in defined.items()
            if (kind, name) not in reached and not is_dunder(name)}


def test_only_the_benchmark_surface_is_unused():
    assert set(unreachable_definitions(parsed())) == BENCHMARK_ONLY


def test_each_benchmark_only_name_names_its_perfbench_reader():
    for name, (path, node) in unreachable_definitions(parsed()).items():
        above = path.read_text().splitlines()[node.lineno - 2].strip()
        assert above.startswith("# kept for perfbench/"), (name, above)


def test_each_subcommand_has_its_command_function_and_back():
    trees = parsed()
    assert {"cmd_" + name.replace("-", "_") for name in subcommands(trees)} == \
        command_functions(trees)


def foreign_names(trees) -> set:
    """The attribute names of np, np.ndarray, the builtins and each builtin
    type, and of every stdlib module that trees import and that module's
    classes."""
    imported = {alias.name for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for tree in trees.values() for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    modules = [builtins] + [importlib.import_module(name) for name in sorted(imported)
                            if name.split(".")[0] in sys.stdlib_module_names]
    classes = [v for module in modules for v in vars(module).values() if isinstance(v, type)]
    return {name for owner in [np, np.ndarray, *modules, *classes] for name in dir(owner)}


def test_each_method_named_like_numpy_has_its_caller():
    trees = parsed()
    foreign = foreign_names(trees)
    named = {f"{cls.name}.{node.name}" for tree in trees.values() for cls, node in methods(tree)
             if node.name in foreign and not is_dunder(node.name)}
    assert named == NUMPY_NAMED.keys()
    for method, caller in NUMPY_NAMED.items():
        module, function = caller.split(".")
        [node] = [node for node in trees[SRC / f"{module}.py"].body
                  if isinstance(node, ast.FunctionDef) and node.name == function]
        assert ("attr", method.split(".")[1]) in reads(node.body), (method, caller)


def test_every_name_the_benchmark_tracer_wraps_is_where_it_looks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pr = SimpleNamespace(**{path.stem: importlib.import_module(f"protoreg.{path.stem}")
                            for path in SRC.glob("*.py") if path.stem != "__init__"})
    tracer = tracing.Tracer(pr)
    owned = [(owner, attr) for owner, attr, *_ in tracer._patches()] + [(pr.engine, "np")]
    before = [owner.__dict__.get(attr) for owner, attr in owned]
    with tracer.active():  # raises KeyError on a name that is not where the tracer looks
        pass
    assert [owner.__dict__.get(attr) for owner, attr in owned] == before
