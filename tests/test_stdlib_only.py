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


def test_no_module_calls_csv_writer():
    # Every CSV file the package writes goes through eventlog.csv_line.
    writers = {"writer", "DictWriter"}
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "csv":
                calls += [f"{path.name}: from csv import {a.name}" for a in node.names if a.name in writers]
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in writers
                and isinstance(node.value, ast.Name)
                and node.value.id == "csv"
            ):
                calls.append(f"{path.name}:{node.lineno}: csv.{node.attr}")
    assert calls == []
