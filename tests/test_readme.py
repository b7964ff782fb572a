"""The README's Python examples run as written, on a simulated replay in ``out/``."""

import re
from pathlib import Path

from hpcmine import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_python_examples_run(tmp_path, monkeypatch, capsys):
    blocks = python_blocks()
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "fig1_explicit", "-o", "out"]) == 0
    capsys.readouterr()
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), {})
    assert (tmp_path / "cases.csv").is_file()
    assert "digraph" in capsys.readouterr().out
