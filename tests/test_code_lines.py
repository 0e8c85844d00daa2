"""``scripts/code_lines.py``: which lines count as code, and its output."""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

MODULE = '''"""Module docstring,
over two lines."""
import os  # a comment after code counts

# a comment-only line


class A:
    """Class docstring."""

    x = 1

    def f(self):
        """Function
        docstring."""
        text = """a multi-line string
that is not a docstring"""
        return text

    async def g(self):
        """Async docstring."""
        "a second string is no docstring"


def h(): return """one line"""
'''


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_outside_docstrings(code_lines):
    # import, class, x, def f, the string's two lines, return, async def, the
    # second string, def h
    assert code_lines.code_lines(MODULE) == 10


def test_empty_and_docstring_only_modules(code_lines):
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_prints_one_column_per_checkout(code_lines, tmp_path, capsys):
    roots = []
    for name, extra in (("a", ""), ("b", "y = 2\n")):
        package = tmp_path / name / "src" / "climb"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text('"""Package."""\n')
        (package / "mod.py").write_text(MODULE + extra)
        roots.append(str(tmp_path / name))
    code_lines.main(roots)
    assert capsys.readouterr().out.splitlines() == [
        "__init__.py      0      0",
        "mod.py          10     11",
        "total           10     11",
    ]


def test_refuses_a_root_without_the_package(code_lines, tmp_path, capsys):
    with pytest.raises(SystemExit):
        code_lines.main([str(tmp_path)])
    assert f"no src/climb package under {tmp_path}" in capsys.readouterr().err
