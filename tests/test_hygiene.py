"""Hygiene guards: every function, class and method `src/slc/` defines is
named somewhere else in `src/` or `tests/`, start-up imports nothing that
only code generation needs, and every node kind has a rule in every pass."""

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from conftest import slc_env

from slc import ast as slc_ast
from slc import corekit, decls, sema
from slc.corekit import (
    CHECKERS,
    ELABORATORS,
    CApp,
    CBuiltin,
    CCtor,
    CDict,
    CGlobal,
    CIf,
    CLam,
    CLet,
    CLit,
    CMatch,
    CoreDef,
    CoreExpr,
    CoreProgram,
    CProj,
    CTuple,
    CTyApp,
    CVar,
    core_to_json,
)
from slc.evaluator import COMPILERS
from slc.types import U64

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


def test_every_node_kind_has_a_rule_in_every_pass():
    """A new core node kind must be compiled, checked and serialized, a new
    typed expression kind elaborated, and a new expression kind checked: no
    pass falls back on a chain of type tests that could miss it."""
    samples = [
        CVar("x"),
        CGlobal("g"),
        CBuiltin("add64"),
        CLit("u64", 1),
        CLam([("x", U64)], CVar("x")),
        CApp(CVar("f"), [CVar("x")]),
        CTyApp(CGlobal("g"), [U64]),
        CDict("m.C", [U64], {}, {"f": CVar("x")}, "m#0"),
        CProj(CVar("d"), "f"),
        CCtor("std.Option", "Some", [U64], [CVar("x")]),
        CMatch(CVar("o"), [("Some", ["y"], CVar("y")), (None, [], CVar("x"))]),
        CLet("y", CVar("x"), CVar("y")),
        CTuple(CVar("x"), CVar("x")),
        CIf(CVar("b"), CVar("x"), CVar("x")),
    ]
    kinds = {cls for cls in CoreExpr.__subclasses__() if cls.__module__ == corekit.__name__}
    assert {type(e) for e in samples} == kinds
    assert kinds <= COMPILERS.keys() and kinds <= CHECKERS.keys()
    names = [f"d{i}" for i in range(len(samples))]
    defs = {name: CoreDef(name, [], U64, e) for name, e in zip(names, samples)}
    program = CoreProgram(defs, names, None, {}, {}, None)
    shown = core_to_json(program)["defs"]  # raises on a kind it does not know
    assert [d["name"] for d in shown] == names
    typed = {cls for cls in decls.TExpr.__subclasses__() if cls.__module__ == decls.__name__}
    assert typed == ELABORATORS.keys()
    exprs = {cls for cls in slc_ast.ExprAST.__subclasses__() if cls.__module__ == slc_ast.__name__}
    assert set(sema.RULES) == exprs
