"""The library example and the CLI examples in README.md run against the current code."""

import pathlib
import re
import shlex

from trihex.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_cli_examples_run(tmp_path, capsys):
    # every `trihex ...` line of the CLI block, with its --output file moved into tmp_path
    blocks = re.findall(r"```sh\n(trihex .*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    commands = [shlex.split(line, comments=True) for line in blocks[0].splitlines()]
    assert len(commands) >= 5 and all(argv[0] == "trihex" for argv in commands)
    for argv in commands:
        argv = argv[1:]
        if "--output" in argv:
            i = argv.index("--output") + 1
            argv[i] = str(tmp_path / argv[i])
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert out or "--output" in argv, argv
