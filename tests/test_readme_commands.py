import re
import shlex
from pathlib import Path

from cvbound.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[list[str]]:
    """Every ``cvbound ...`` line of the README's sh blocks, as argv lists without the program name."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("cvbound ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) >= 9
    # in order and in one directory: a later line may read a file an earlier one wrote
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[0] == "validate" and "--count" not in argv:
            argv = [*argv, "--count", "2000"]  # the default 100000 samples take seconds
        code = main(argv)
        err = capsys.readouterr().err
        assert (code, err) == (0, ""), argv
