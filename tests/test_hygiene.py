"""Hygiene guards: every function, class and method `src/slc/` defines is
referred to by code elsewhere in `src/` or `bench/`, start-up imports
nothing that only code generation needs, only `run` loads the back end, and
every node kind has a rule in every pass."""

import ast
import subprocess
import sys
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


# Names that only tests call, each kept in `src/` for a reason.
TEST_ONLY = {
    ("resolver.py", "check_stability"): "README's stability analysis, an acceptance criterion",
    ("resolver.py", "unstable"): "what `check_stability` reports",
    ("printer.py", "pretty_print"): "the round-trip property's oracle",
    ("printer.py", "ast_equal"): "the round-trip property's oracle",
}


def referenced_outside_own_body() -> set[tuple[str, str]]:
    """(file name, name) of each definition of `defined_names` that a name,
    an attribute or an import in `src/` or `bench/` refers to outside that
    definition's own body. Strings, docstrings and comments refer to
    nothing; a reference is matched by name alone."""
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    by_name: dict[str, list] = {}
    for key in defined_names():
        by_name.setdefault(key[1], []).append(key)
    used = set()

    def visit(node, inside: frozenset):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                refs = (sub.id,)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                refs = (sub.attr,)
            elif isinstance(sub, ast.ImportFrom):
                refs = tuple(alias.name for alias in sub.names)
            else:
                continue
            used.update(key for ref in refs for key in by_name.get(ref, ()) if key not in inside)

    for path in files:
        in_src = path.parent.name == "slc"
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = frozenset({(path.name, top.name)} if in_src and _is_def(top) else ())
            if not isinstance(top, ast.ClassDef):
                visit(top, own)
                continue
            for part in (*top.bases, *top.keywords, *top.decorator_list):
                visit(part, own)
            for item in top.body:
                visit(item, own | {(path.name, item.name)} if in_src and _is_def(item) else own)
    return used


def test_every_defined_name_is_used_somewhere():
    """What only tests call belongs in `tests/`, unless `TEST_ONLY` says why.
    A definition counts as used only when code in `src/` or `bench/` refers
    to it; a string or comment that repeats its name does not."""
    used = referenced_outside_own_body()
    names = defined_names()
    dead = sorted(
        f"{file}: {name}"
        for file, name in names
        if (file, name) not in used and (file, name) not in TEST_ONLY
    )
    assert not dead, f"defined but referred to only by tests, or nowhere: {dead}"
    kept = [key for key in TEST_ONLY if key in used]
    assert not kept, f"no longer test-only: {kept}"


# `__slots__` fields that no code in `src/` or `bench/` reads, each kept for
# a reason.
UNREAD_SLOTS = {
    ("coherence.py", "OverlapWitness", "subst"): "the unifier that makes two model heads overlap",
    ("resolver.py", "StabilityReport", "fun"): "README's stability analysis, an acceptance criterion",
    ("resolver.py", "StabilityReport", "assignment"): "README's stability analysis, as above",
    ("resolver.py", "StabilityEntry", "detail"): "README's stability analysis, as above",
}


def slot_fields() -> list[tuple[str, str, str]]:
    """(file name, class name, field) of each `__slots__` field that a
    module-level class in `src/slc/` declares; dunder slots such as
    `__weakref__` are left out."""
    out = []
    for path in sorted((ROOT / "src" / "slc").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(top, ast.ClassDef):
                continue
            for item in top.body:
                if isinstance(item, ast.Assign) and [
                    t.id for t in item.targets if isinstance(t, ast.Name)
                ] == ["__slots__"]:
                    fields = ast.literal_eval(item.value)
                    out.extend((path.name, top.name, f) for f in fields if not f.startswith("__"))
    return out


def loaded_attribute_names() -> set[str]:
    """Each attribute name that code in `src/` or `bench/` reads."""
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    return {
        node.attr
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_slot_field_is_read_somewhere():
    """A field that code only stores is dead weight on every instance,
    unless `UNREAD_SLOTS` says why it stays. A read is matched by the
    attribute's name alone."""
    loaded = loaded_attribute_names()
    fields = slot_fields()
    unread = sorted(
        f"{file}: {cls}.{field}"
        for file, cls, field in fields
        if field not in loaded and (file, cls, field) not in UNREAD_SLOTS
    )
    assert not unread, f"slot fields no code in src/ or bench/ reads: {unread}"
    kept = [key for key in UNREAD_SLOTS if key[2] in loaded or key not in fields]
    assert not kept, f"no longer unread: {kept}"


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
    program = CoreProgram(defs, names, None, None)
    shown = core_to_json(program)["defs"]  # raises on a kind it does not know
    assert [d["name"] for d in shown] == names
    typed = {cls for cls in decls.TExpr.__subclasses__() if cls.__module__ == decls.__name__}
    assert typed == ELABORATORS.keys()
    exprs = {cls for cls in slc_ast.ExprAST.__subclasses__() if cls.__module__ == slc_ast.__name__}
    assert set(sema.RULES) == exprs


def test_the_evaluator_fails_only_at_a_non_exhaustive_match():
    """`core_check` is the one gate for core, so the evaluator raises
    E-RT-MATCH at one site: a match with no arm for its value, the one
    failure a checked program can reach. A check of what `core_check`
    already rules out, put back in the evaluator, adds a second site."""
    tree = ast.parse((ROOT / "src" / "slc" / "evaluator.py").read_text(encoding="utf-8"))
    [code] = [n for n in ast.walk(tree) if isinstance(n, ast.Constant) and n.value == "E-RT-MATCH"]
    [site] = [n for n in ast.walk(tree) if isinstance(n, ast.Raise) and code in ast.walk(n)]
    texts = [n.value for n in ast.walk(site) if isinstance(n, ast.Constant)]
    assert texts == ["E-RT-MATCH", "non-exhaustive match: no arm for "]
