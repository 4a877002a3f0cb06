"""The library example in README.md runs against the current API."""

import pathlib
import re


def test_readme_library_example_runs(capsys):
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out
