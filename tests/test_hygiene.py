"""Hygiene guards: every function, class and method `src/slc/` defines is
named somewhere else in `src/` or `tests/`, start-up imports nothing that
only code generation needs, only `run` loads the back end, and every node
kind has a rule in every pass."""

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from conftest import CORPUS, slc_env

from slc import ast as slc_ast
from slc import cli, corekit, decls, sema
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


# Prints which of the named modules a probe has loaded. `slc.cli` puts the
# back end in `sys.modules` unexecuted, as a module of a lazy subclass, and
# reading any attribute of it would load it, so only the type is asked.
LOADED = (
    "import sys, types; print(sorted(n for n in {names} "
    "if type(sys.modules.get(n)) is types.ModuleType))"
)
BACK_END = ("slc.corekit", "slc.evaluator")


def loaded_after(code: str, names, cwd=None) -> str:
    probe = code + "; " + LOADED.format(names=tuple(names))
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=slc_env({"SL_COLOR": "0"}), cwd=cwd, check=True,
    )
    return proc.stdout.splitlines()[-1]


def test_startup_imports_no_code_generation_modules():
    """`import slc.cli` is what every `sl` process pays before any work.
    `dataclasses` builds each class by generating and `exec`ing code, and
    pulls in `inspect` for it; start-up needs neither, nor the pretty
    printer, which no command uses, nor the back end, which only `run`
    uses."""
    names = ("dataclasses", "inspect", "slc.printer") + BACK_END
    assert loaded_after("import slc.cli", names) == "[]"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["check", "iter_lib.sl", "range_iter.sl"], []),
        (["explain", "range_iter.sl:21:26", "iter_lib.sl", "range_iter.sl"], []),
        (["run", "iter_lib.sl", "range_iter.sl"], list(BACK_END)),
    ],
    ids=["check", "explain", "run"],
)
def test_only_run_loads_the_back_end(argv, loaded):
    """`check` and `explain` end at the front end and compile neither
    `corekit` nor `evaluator`; `run` loads both."""
    code = f"import slc.cli; assert slc.cli.main({argv!r}) == 0"
    assert loaded_after(code, BACK_END, cwd=CORPUS) == str(loaded)


@pytest.mark.parametrize(
    "name, argv",
    [
        ("core_check", ["run", "iter_lib.sl", "range_iter.sl"]),
        ("run_program", ["run", "iter_lib.sl", "range_iter.sl"]),
        ("core_to_json", ["run", "--emit-core", "iter_lib.sl", "range_iter.sl"]),
    ],
)
def test_run_calls_the_back_end_through_cli(name, argv, monkeypatch):
    """`cmd_run` reaches each back-end function through its `slc.cli` name,
    so a wrapper set there, as the benchmark's phase spans are, sees the
    call (`test_corekit.py::test_run_without_main_elaborates_nothing` does
    the same for `elaborate`)."""
    calls = []
    inner = getattr(cli, name)

    def recording(*args):
        calls.append(name)
        return inner(*args)

    monkeypatch.setattr(cli, name, recording)
    monkeypatch.chdir(CORPUS)
    assert cli.main(argv) == 0
    assert calls == [name]


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
