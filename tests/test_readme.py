"""Every ``orbitgcd ...`` command in the README's "Command line" block runs
and exits 0, and the "Library sketch" runs, so the documentation never
advertises a flag or a name that is gone."""

import math
import pathlib
import re
import shlex

from orbitgcd.cli import dispatch
from orbitgcd.exact import Real

README = pathlib.Path(__file__).parent.parent / "README.md"


def _block(heading: str, language: str) -> str:
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _command_block() -> list[str]:
    return _block("## Command line", "sh").replace("\\\n", " ").splitlines()


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = iter(_command_block())
    commands = []
    for line in lines:
        heredoc = re.match(r"cat > (\S+) <<'(\w+)'$", line)
        if heredoc:
            name, end = heredoc.groups()
            body = []
            for body_line in lines:
                if body_line == end:
                    break
                body.append(body_line)
            (tmp_path / name).write_text("\n".join(body) + "\n")
        elif line.startswith("orbitgcd "):
            commands.append(shlex.split(line)[1:])
    assert len(commands) == 9
    assert (tmp_path / "x2.json").exists()
    for argv in commands:
        assert dispatch(argv) == 0, (argv, capsys.readouterr().err)


def test_readme_library_sketch_runs(capsys):
    namespace = {}
    exec(compile(_block("## Library sketch", "python"), "README.md", "exec"), namespace)
    assert type(namespace["est"].value) is Real and namespace["cert"].replay()
    value, error_bound = map(float, capsys.readouterr().out.split()[:2])
    assert 0 < error_bound <= 1e-10 and abs(value - math.log(3)) <= 1e-9
