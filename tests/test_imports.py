import ast
import pathlib
import sys

SOURCES = sorted((pathlib.Path(__file__).parents[1] / "src" / "wittcoh").glob("*.py"))


def test_runtime_imports_only_the_standard_library():
    assert len(SOURCES) >= 10
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
