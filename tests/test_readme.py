"""The README's library tour runs as written and gives the values its
comments state; its command-line block runs and exits as README says; the
checkpoint format version it states is the one the CLI writes; the
package needs nothing beyond the standard library, as README says."""

import ast
import re
import shlex
import subprocess
import sys
from pathlib import Path

from zerosum.cli import CHECKPOINT_VERSION, main

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = README.parent / "src" / "zerosum"


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


def test_readme_command_line_block(tmp_path, monkeypatch, capsys):
    """Every command of README's command-line block, run in order in an
    empty directory, exits as README's exit codes say: 2 for the run that
    exhausts its node budget, 0 for the rest."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\s+```\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert len(commands) == 13 and all(argv[0] == "zerosum" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        expected = 2 if "--budget-nodes" in argv else 0
        assert main(argv[1:]) == expected, argv
        capsys.readouterr()
    assert (tmp_path / "ck.json").exists() and (tmp_path / "tables.csv").exists()


def test_readme_states_the_checkpoint_format_version():
    text = README.read_text(encoding="utf-8")
    stated = re.findall(r"checkpoint\s+format\s+version\s+\((\d+)", text)
    assert stated == [str(CHECKPOINT_VERSION)]


def test_package_imports_only_the_standard_library():
    """Nothing outside the standard library, and not ``dataclasses``, whose
    import and generated code cost more than a search at start-up."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    imported = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - sys.stdlib_module_names - {"zerosum"} == set()
    assert "dataclasses" not in imported


def test_import_loads_only_what_it_uses():
    """A search or the command line loads neither ``zerosum.extremal`` nor
    ``dataclasses``, and every public name still resolves.  A fresh
    interpreter without site-packages (-S) starts from a clean slate."""
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})",
        "import zerosum.invariants, zerosum.search",
        "print(sorted(m for m in ('zerosum.extremal', 'dataclasses') if m in sys.modules))",
        "import zerosum.cli",
        "print(sorted(m for m in ('zerosum.extremal', 'dataclasses') if m in sys.modules))",
        "import zerosum",
        "print(all(getattr(zerosum, name) is not None for name in zerosum.__all__))",
        "print('__all__' in dir(zerosum), len(zerosum.__all__))",
    ])
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[:4] == ["[]", "[]", "True", "True 64"]
