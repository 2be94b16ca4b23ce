"""The README's library tour runs as written and gives the values its
comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library tour\s+```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        code = code.strip()
        if not code:
            continue
        expected = re.match(r"\s*(\d+|True|False)\b", comment)
        if expected:
            assert repr(eval(code, namespace)) == expected.group(1), line
            checked.append(expected.group(1))
        else:
            exec(code, namespace)
    assert checked == ["14", "14", "True"]
