"""README's library quick start runs and shows the values its comments state."""

import re
from pathlib import Path

from intersets import Closed, contains

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
