"""Hygiene guards: every function, class and method `src/slc/` defines is
named somewhere else in `src/` or `tests/`, and start-up imports nothing
that only code generation needs."""

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from conftest import slc_env

ROOT = Path(__file__).resolve().parents[1]


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def defined_names() -> list[tuple[str, str]]:
    """(file name, name) of each module-level function or class and each
    non-dunder method in `src/slc/`."""
    out = []
    for path in sorted((ROOT / "src" / "slc").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not _is_def(node):
                continue
            out.append((path.name, node.name))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (path.name, item.name)
                    for item in node.body
                    if _is_def(item)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
    return out


def test_every_defined_name_is_used_somewhere():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    # Each maximal run of word characters is one word-boundary match.
    words = Counter(
        word for path in files for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    )
    names = defined_names()
    definitions = Counter(name for _, name in names)
    dead = sorted(f"{file}: {name}" for file, name in names if words[name] <= definitions[name])
    assert not dead, f"defined but never named elsewhere: {dead}"


def test_startup_imports_no_code_generation_modules():
    """`import slc.cli` is what every `sl` process pays before any work.
    `dataclasses` builds each class by generating and `exec`ing code, and
    pulls in `inspect` for it; start-up needs neither, nor the pretty
    printer, which no command uses."""
    probe = (
        "import sys, slc.cli; "
        "print(sorted({'dataclasses', 'inspect', 'slc.printer'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=slc_env(), check=True
    )
    assert proc.stdout == "[]\n", proc.stdout
