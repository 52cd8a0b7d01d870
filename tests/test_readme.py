"""README's library quick start runs and shows the values its comments state,
and its first CLI example prints the line it shows."""

import re
import shlex
from pathlib import Path

from intersets import Closed, contains
from intersets.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start():
    ns: dict = {}
    exec(compile(_quick_start(), str(README), "exec"), ns)
    assert isinstance(ns["res"], Closed)
    s, rep = ns["res"].set, ns["rep"]
    assert repr(s) == (
        "Union(parts=(Finite(elements=(2,)), Congruence(modulus=3, residues=(0, 1))))"
    )
    assert (contains(s, 4), contains(s, 5)) == (True, False)
    assert rep.in_H == (1, 3, 4, 5)
    assert rep.verdict(2).status == "CertifiedOut"
    assert rep.verdict(2).witness == -1


def test_readme_cli_sumset_example(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## CLI"):]
    command, shown = re.search(r"```\n(.*?)\n(.*?)\n```", section).groups()
    argv = shlex.split(command)
    assert argv[:2] == ["intersets", "sumset"]
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out == shown + "\n"
