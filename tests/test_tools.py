import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""Module docstring,
on two lines."""

import math  # a comment


# a comment line
def f(x):
    """Docstring."""
    y = (x +
         1)
    s = """a string
    that is not a docstring"""
    return math.sqrt(y), s


class C:
    """Class docstring."""

    def g(self):
        "One-line docstring."
        pass
'''


def test_count_code_lines_skips_blanks_comments_and_docstrings():
    tool = load_tool("count_code_lines")
    # import, def f, two lines of y, two of s, return, class C, def g, pass
    assert tool.count_code_lines(SNIPPET) == 10
    assert tool.count_code_lines("") == 0


def test_count_code_lines_main_sums_the_files_of_a_directory(tmp_path,
                                                             capsys):
    tool = load_tool("count_code_lines")
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "11\n"


def test_count_code_lines_main_rejects_a_missing_path(tmp_path, capsys):
    tool = load_tool("count_code_lines")
    with pytest.raises(SystemExit) as exc:
        tool.main([str(tmp_path / "no_such_dir")])
    assert exc.value.code == 2
    assert "no such file or directory" in capsys.readouterr().err
