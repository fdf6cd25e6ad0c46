import ast
import graphlib
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "stanley").glob("*.py"))


def test_package_imports_only_the_standard_library():
    # The package has no runtime dependencies: every import is relative,
    # from __future__, or of a standard library module.
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "__future__" or top in sys.stdlib_module_names, (
                    f"{path.name}:{node.lineno} imports {name}"
                )


def test_every_import_is_at_module_level():
    # An import inside a function hides a dependency, or a cycle, until
    # the function runs.
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert node in tree.body, f"{path.name}:{node.lineno} imports below module level"


def test_private_names_stay_in_their_module():
    # A name with a leading underscore is private to the module that
    # defines it, such as the packed root-factor kernel of polynomials:
    # other modules call its public functions.
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"{path.name}:{node.lineno} imports {private}"


def test_package_import_graph_has_no_cycle():
    graph = {
        path.stem: {
            node.module
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        }
        for path in SOURCES
    }
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
