"""Every ``orbitgcd ...`` command in the README's "Command line" block runs
and exits 0, so the documentation never advertises a flag that is gone."""

import pathlib
import re
import shlex

from orbitgcd.cli import dispatch

README = pathlib.Path(__file__).parent.parent / "README.md"


def _command_block() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return block.replace("\\\n", " ").splitlines()


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
