"""The README's examples run, and its comments state what they return."""

import ast
import re
import shlex
import shutil
from pathlib import Path

from pairdeutsch.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def block(heading: str, language: str) -> str:
    """The first fenced `language` block after the `heading` line."""
    after = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{language}\n(.*?)```", after, re.S).group(1)


def matches(comment: str, value) -> bool:
    """Whether repr(value) reads as `comment`, where "..." stands for any text."""
    pattern = ".*".join(map(re.escape, comment.split("...")))
    return re.fullmatch(pattern, repr(value)) is not None


def test_library_quick_start_returns_what_its_comments_state():
    code = block("## Library quick start", "python")
    lines = code.splitlines()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(code).body:
        comment = lines[statement.end_lineno - 1].partition("  # ")[2]
        if isinstance(statement, ast.Expr):  # the comment states its value
            value = eval(compile(ast.Expression(statement.value), "README", "eval"),
                         namespace)
        else:  # on an assignment, the comment states what it assigned
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
            value = namespace[statement.targets[0].id] if comment else None
        if comment:
            assert matches(comment, value), (ast.unparse(statement), comment, value)
            checked.append(comment)
    # the distribution, decoded answer, query counts, separability flags,
    # shot counts and fidelity
    assert len(checked) == 6, checked


def test_every_cli_example_exits_zero(tmp_path, monkeypatch, capsys):
    # the fidelity example reads counts.json from the working directory
    shutil.copy(ROOT / "tests" / "data" / "counts_entangled_b1b1.json",
                tmp_path / "counts.json")
    monkeypatch.chdir(tmp_path)
    commands = block("## CLI", "sh").replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line)[1:] for line in commands
             if line.startswith("pairdeutsch ")]
    assert len(argvs) == 6
    for argv in argvs:
        code = main(argv)
        assert code == EXIT_OK, (argv, capsys.readouterr().err)
        capsys.readouterr()
