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


FILE_METHODS = {"open", "read_text", "write_text"}


def _is_binary_mode(call: ast.Call, position: int) -> bool:
    # ``position`` is the mode's: 1 for open(file, mode), 0 for Path.open(mode).
    mode = call.args[position] if len(call.args) > position else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    return isinstance(mode, ast.Constant) and "b" in mode.value


def test_every_text_mode_file_call_names_its_encoding():
    # What the package reads and writes must not depend on the locale: each
    # text-mode open(), read_text(), write_text() and text-mode subprocess
    # call names its encoding. os.open and binary modes deal in bytes.
    checked = []
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            keywords = {keyword.arg for keyword in node.keywords}
            if isinstance(func, ast.Name) and func.id == "open":
                text_mode = not _is_binary_mode(node, 1)
            elif isinstance(func, ast.Attribute) and func.attr in FILE_METHODS:
                on_os = isinstance(func.value, ast.Name) and func.value.id == "os"
                text_mode = not on_os and not _is_binary_mode(node, 0)
            else:
                text_mode = bool(keywords & {"text", "universal_newlines"})
            if text_mode:
                checked.append(f"{path.name}:{node.lineno}")
                if "encoding" not in keywords:
                    missing.append(f"{path.name}:{node.lineno}")
    assert checked
    assert missing == []


# Names a module imports only to re-export them: perfbench/traced.py reads
# them through the importing module.
RE_EXPORTS = {
    "observer.py": {"CsvEventSink", "read_events_csv"},
    "correlation.py": {"extract_first_dependencies"},
}


def test_every_imported_name_is_used():
    # A name counts as used when the module reads it anywhere, annotations
    # included; ``from __future__`` imports bind no name.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name not in used and name not in RE_EXPORTS.get(path.name, ())
            ]
    assert unused == []
