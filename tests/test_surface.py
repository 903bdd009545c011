"""No production code that only tests call: every function and class that
src/protoreg defines is used somewhere in src/protoreg, apart from a fixed
set that perfbench/ reads (ROADMAP item 5)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "protoreg"

# each is deleted by ROADMAP item 5, once perfbench/ no longer reads it
BENCHMARK_ONLY = {"make_splits", "predict_np", "save_dataset", "sparsity", "synth_config_from",
                  "top_contributor_set"}


def parsed():
    return {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def unused_definitions(trees):
    """{name: (path, def node)} of the non-dunder functions and classes that no
    Name or Attribute in the trees reads."""
    defined, used = {}, set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, (path, node))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {name: where for name, where in defined.items()
            if name not in used and not (name.startswith("__") and name.endswith("__"))}


def test_only_the_benchmark_surface_is_unused():
    assert set(unused_definitions(parsed())) == BENCHMARK_ONLY


def test_each_benchmark_only_name_names_its_perfbench_reader():
    for name, (path, node) in unused_definitions(parsed()).items():
        above = path.read_text().splitlines()[node.lineno - 2].strip()
        assert above.startswith("# kept for perfbench/"), (name, above)
