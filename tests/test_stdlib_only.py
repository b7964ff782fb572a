import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hpcmine"


def test_runtime_imports_only_the_standard_library():
    # The package has no runtime dependencies (pyproject: dependencies = []);
    # an absolute import of the package itself is not one.
    allowed = sys.stdlib_module_names | {PACKAGE.name}
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert foreign == []
