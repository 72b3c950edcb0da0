"""README's examples, run as written: each ``python`` block of its Library
section, and the ``rate-curve`` and ``gtau-table`` command lines with the
output shown beside them."""

import ast
import contextlib
import io
import re
import tokenize
from pathlib import Path

import pytest

from ssesim.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def _trailing_comments(source: str) -> dict[int, str]:
    """The text of each line's trailing ``# comment``, by line number."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {t.start[0]: t.string[1:].strip() for t in tokens if t.type == tokenize.COMMENT}


def _is_print(stmt: ast.stmt) -> bool:
    call = stmt.value if isinstance(stmt, ast.Expr) else None
    return isinstance(call, ast.Call) and getattr(call.func, "id", None) == "print"


LIBRARY = _blocks(_section("Library"), "python")


def test_library_section_has_its_examples():
    assert len(LIBRARY) == 3


@pytest.mark.parametrize("source", LIBRARY, ids=[f"block{i}" for i in range(len(LIBRARY))])
def test_library_example_prints_what_its_comments_say(source):
    """Every statement with a trailing ``# value`` comment is checked: a
    ``print(...)`` against the text it prints, a bare expression against
    its repr."""
    comments = _trailing_comments(source)
    scope: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.Module(body=[stmt], type_ignores=[])
        want = comments.get(stmt.end_lineno)
        if want is None:
            exec(compile(code, "README.md", "exec"), scope)
        elif _is_print(stmt):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(code, "README.md", "exec"), scope)
            assert out.getvalue() == want + "\n", ast.unparse(stmt)
            checked += 1
        else:
            assert isinstance(stmt, ast.Expr), ast.unparse(stmt)
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
            assert repr(got) == want, ast.unparse(stmt)
            checked += 1
    assert checked == len(comments) > 0  # every comment is on a statement's last line


def _shell_example(command: str) -> tuple[list[str], list[str]]:
    """The argv after ``ssesim`` of the README's ``$ ssesim <command>``
    example, and the output lines shown under it."""
    for block in _blocks(README, "sh"):
        first, *shown = block.splitlines()
        if first.startswith(f"$ ssesim {command} "):
            return first.split()[2:], shown
    raise AssertionError(f"README has no {command} example")


def _run(capsys, argv: list[str]) -> list[str]:
    assert main(argv) == 0
    return capsys.readouterr().out.splitlines()


def test_rate_curve_example(capsys):
    argv, shown = _shell_example("rate-curve")
    assert argv == ["rate-curve", "--c-grid", "0.5:2:0.5", "--lbar", "1.75", "--delta", "0.2"]
    assert _run(capsys, argv) == shown


def test_gtau_table_example(capsys):
    argv, shown = _shell_example("gtau-table")
    assert argv[-3:] == ["|", "head", "-4"] and len(shown) == 4
    argv = argv[:-3]
    assert argv == ["gtau-table", "--n", "1024", "--lbar", "2", "--coverage", "2", "--delta", "0.2"]
    assert _run(capsys, argv)[:4] == shown
