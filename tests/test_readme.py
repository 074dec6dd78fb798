"""The README's examples run and print what the README shows."""

import re
from pathlib import Path

import pytest

from bootperc.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_python_quick_example():
    (code,) = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize(
    "command,shown,lines",
    [
        ("bootperc verify --family c --n 5 --r 4 --d 3", "PERCOLATES size=12", 1),
        ("bootperc dimw Kn:4 --r 3", '{"dim": 6}', 1),
        (
            "bootperc search LineK:4 --r 2 --process vertex",
            '{"minimum": 2, "witness": [0, 1], "engine_calls": 8}',
            1,
        ),
        ("bootperc table --d 2 --rmax 5", "n,d,r,lower,construction_size,upper,exact_if_known", 6),
    ],
)
def test_cli_example(capsys, command, shown, lines):
    assert f"{command}\n# {shown}" in README
    assert main(command.split()[1:]) == 0
    out = capsys.readouterr().out.splitlines()
    assert (out[0], len(out)) == (shown, lines)
