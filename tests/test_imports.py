import ast
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
