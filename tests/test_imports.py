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


def test_only_caching_memoizes_with_functools():
    # every memo goes through caching.cached, so clear_all and
    # corrupted_generator reach all of them
    memoizers = {"lru_cache", "cache"}
    for path in SOURCES:
        if path.name == "caching.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "functools"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert not memoizers & {alias.name for alias in node.names}, path.name
            if isinstance(node, ast.Attribute) and node.attr in memoizers:
                assert not (isinstance(node.value, ast.Name) and node.value.id in aliases), path.name


def test_only_gf2_reads_inverse_or_solve():
    # every decomposition reads the tag bits of a Gf2Span, so BitMatrix's
    # inverse and solve have no caller in the package
    for path in SOURCES:
        if path.name == "gf2.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                assert node.attr not in {"inverse", "solve"}, (path.name, node.lineno)


def test_only_gf2_and_cochains_build_tagged_spans():
    # a tagged span is the augmented matrix of a kernel pass (gf2) or of a
    # basis (cochains.SliceBasis); every other module reads one of those
    for path in SOURCES:
        if path.name in {"gf2.py", "cochains.py"}:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("Gf2Span"):
                tagged = len(node.args) > 1 or any(kw.arg in {"width", None} for kw in node.keywords)
                assert not tagged, (path.name, node.lineno)


def test_only_partitions_builds_unchecked_partitions():
    # `_unchecked` skips the validity checks, so only the enumerators of
    # partitions.py, whose tuples are valid by construction, may use it
    for path in SOURCES:
        if path.name == "partitions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                assert node.attr != "_unchecked", (path.name, node.lineno)
